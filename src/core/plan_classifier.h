// The paper's Section III problem, made executable:
//
//   PARAMETERS FOR RDF BENCHMARKS: split P into subsets S1..Sk such that
//   (a) every binding in Si yields the same C_out-optimal plan,
//   (b) the optimal plan's C_out is the same within Si,
//   (c) plans differ across classes.
//
// Finding the optimal plan per binding is itself NP-hard join ordering, so
// — exactly as the paper prescribes — we run the (exact, DP) optimizer per
// candidate binding and cluster the results. Condition (a) maps to equal
// plan fingerprints; condition (b), which cannot hold exactly over a
// continuous cost range, is relaxed to log-scale cost buckets of
// configurable width (an ablation knob); condition (c) holds by
// construction of the grouping key.
#ifndef RDFPARAMS_CORE_PLAN_CLASSIFIER_H_
#define RDFPARAMS_CORE_PLAN_CLASSIFIER_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/parameter_domain.h"
#include "optimizer/optimizer.h"
#include "rdf/triple_store.h"
#include "sparql/query_template.h"
#include "util/status.h"

namespace rdfparams::core {

/// How stage 1 (one optimizer result per candidate) is computed. Both
/// strategies produce byte-identical classifications; kBatched is the
/// production path, kPerCandidate the differential reference.
enum class ClassifyStrategy : uint8_t {
  /// The paper's literal procedure: one full join-ordering DP per
  /// candidate binding.
  kPerCandidate = 0,
  /// Batch leaf counting (one index sweep per single-parameter pattern)
  /// + signature-deduped DP: candidates whose cardinality signatures —
  /// the bitwise image of every number the DP reads — are equal provably
  /// get the same plan, so the DP runs once per distinct signature. Cost
  /// becomes proportional to distinct optimizer inputs, not candidates.
  kBatched = 1,
};

/// Observability counters for one classification call (see the CLI's
/// `classify --stats`). All zero-initialized; a counter stays 0 when the
/// strategy or session feature it describes was not in play.
struct ClassifyStats {
  uint64_t num_candidates = 0;
  /// Distinct cardinality signatures among this call's candidates
  /// (kBatched only).
  uint64_t distinct_signatures = 0;
  /// Join-ordering DP invocations this call actually ran.
  uint64_t dp_runs = 0;
  /// Candidates classified without their own DP run (signature dedup +
  /// session reuse). On success, num_candidates == dp_runs + dp_runs_saved
  /// (a failed call reports only the runs actually attempted).
  uint64_t dp_runs_saved = 0;
  /// Leaf counts answered by CountPatternBatch index sweeps.
  uint64_t batched_counts = 0;
  /// Patterns the sweep could not batch (no parameter slot, several
  /// parameter occurrences, or a constant absent from the data) — explains
  /// a low batched_counts on multi-parameter templates.
  uint64_t unbatched_patterns = 0;
  /// Exact pair-join counts the stage-1b prefill computed into the cache
  /// (kBatched only): one per qualifying pattern pair and distinct fresh
  /// parameter value, skipping counts the cache already held.
  uint64_t prefilled_pair_joins = 0;
  /// ClassificationSession only: candidates answered from the binding
  /// memo of earlier calls.
  uint64_t reused_candidates = 0;
  /// ClassificationSession only: fresh bindings whose signature had
  /// already been optimized in an earlier call.
  uint64_t reused_signatures = 0;
  /// CardinalityCache hit/miss deltas over this call (0 if no cache).
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;

  /// cache_hits / (cache_hits + cache_misses); 0 when no lookups.
  double CacheHitRate() const;
};

struct ClassifyOptions {
  /// Width of the log2(C_out) bucket implementing condition (b).
  /// +infinity (or <= 0) collapses to plan-fingerprint-only clustering.
  double cost_bucket_log2_width = 1.0;
  /// Candidates examined: Enumerate(max_candidates) over the domain.
  uint64_t max_candidates = 2000;
  /// Worker threads for the per-candidate optimizer runs. 1 = serial,
  /// 0 = hardware concurrency. The partition of candidates is merged in
  /// enumeration order, so the result is byte-identical for every thread
  /// count.
  int threads = 1;
  /// Stage-1 execution strategy (identical results either way).
  ClassifyStrategy strategy = ClassifyStrategy::kBatched;
  /// When non-null, filled with this call's statistics.
  ClassifyStats* stats = nullptr;
  /// Note: there is deliberately no engine::ExecOptions here —
  /// classification only runs the optimizer, never the executor, so
  /// intra-query execution knobs cannot affect it. The measurement stage
  /// (WorkloadOptions::exec) is where they apply.
  opt::OptimizeOptions optimizer;
};

/// One class Si of the partition.
struct PlanClass {
  std::string fingerprint;      ///< shared optimal plan (condition a)
  int64_t cost_bucket = 0;      ///< floor(log2(cost)/width) (condition b)
  double min_cout = 0;          ///< observed est. C_out range in the class
  double max_cout = 0;
  std::vector<sparql::ParameterBinding> members;
  /// A representative member (the one with median cost).
  sparql::ParameterBinding representative;

  /// Share of examined candidates falling into this class.
  double fraction = 0;
};

struct Classification {
  std::vector<PlanClass> classes;  ///< sorted by descending size
  uint64_t num_candidates = 0;
  /// Per-candidate (aligned with the enumeration order): class index.
  std::vector<uint32_t> class_of_candidate;
};

/// Runs the optimizer for every candidate binding and clusters by
/// (fingerprint, cost bucket). Deterministic.
[[nodiscard]] Result<Classification> ClassifyParameters(const sparql::QueryTemplate& tmpl,
                                          const ParameterDomain& domain,
                                          const rdf::TripleStore& store,
                                          const rdf::Dictionary& dict,
                                          const ClassifyOptions& options = {});

/// Stage 2, shared by every strategy and by ClassificationSession: groups
/// per-candidate optimizer results into plan classes. Fingerprints arrive
/// interned (`fingerprint_ids[i]` indexes `fingerprints`; equal ids iff
/// equal strings), so the grouping pass compares integers; the final
/// class order still tie-breaks on the fingerprint *strings*, keeping the
/// output byte-identical to grouping on raw strings. Deterministic.
Classification BuildClassification(
    const std::vector<sparql::ParameterBinding>& candidates,
    const std::vector<double>& couts,
    const std::vector<uint32_t>& fingerprint_ids,
    const std::vector<std::string>& fingerprints,
    double cost_bucket_log2_width);

/// Stratified sampling: n bindings drawn from one class (with replacement
/// if the class is smaller than n).
std::vector<sparql::ParameterBinding> SampleFromClass(const PlanClass& cls,
                                                      size_t n,
                                                      util::Rng* rng);

/// Cost bucket of a C_out value under the given log2 width. Total over
/// every double: width <= 0 / non-finite collapses to bucket 0; cout <= 0
/// or NaN gets the int64 min sentinel; cout = +infinity the int64 max.
int64_t CostBucket(double cout, double log2_width);

}  // namespace rdfparams::core

#endif  // RDFPARAMS_CORE_PLAN_CLASSIFIER_H_
