// Batched cardinality work for classifying many candidate bindings of one
// query template.
//
// Three jobs, all feeding the classification hot loop:
//
//  1. PrefillLeafCounts: every leaf count the optimizer will ask for —
//     one per (triple pattern, candidate) combination — is computed up
//     front and inserted into the shared CardinalityCache. Patterns in
//     which exactly one slot varies across candidates are answered by a
//     single co-sequential sweep over the covering index
//     (TripleStore::CountPatternBatch) instead of one binary-search probe
//     per candidate.
//
//  1b. PrefillPairJoins: the pair analogue. For a pattern pair whose one
//     parameter sits on one side, the parameter-free side is scanned once
//     into a per-key count table; each distinct parameter value's count
//     is then a sum of table lookups over that value's index run, so the
//     whole pair costs one scan plus time proportional to the parameter
//     side. Entries land under exactly the key ExactPairJoinCount uses
//     (both go through ResolvePairJoin and RoutePairJoin), and every
//     count is an exact integer, so the cached values are the ones the
//     estimator would compute itself. Values already cached are skipped,
//     so a long-lived shared cache (the daemon's) pays for a table only
//     while it still misses. A pair whose parameter-free side has keys
//     too sparse for a dense array is left to ExactPairJoinCount's merge
//     sweep.
//
//  2. Signature: the *cardinality signature* of one bound candidate — the
//     bit patterns of every number the C_out join-ordering DP reads. The
//     DP's decisions (subset costs, canonical build sides, tie-breaks)
//     are a deterministic function of (a) the per-pattern RelationInfo
//     leaves and (b) the exact pair-join counts of single-scan pattern
//     pairs; everything else it consults (variable structure, pattern
//     indices, index choices) is a property of the template, identical
//     across candidates. Therefore two candidates with equal signatures
//     provably receive identical Optimize() results — same plan
//     fingerprint, same est_cout — and the DP only needs to run once per
//     distinct signature. Comparison is bitwise (stricter than ==), so a
//     shared signature can never produce a different classification than
//     the per-candidate path.
//
// Thread model: the prefills are called once, before workers start;
// Signature is const and safe to call from many threads concurrently (the
// shared cache is internally synchronized).
#ifndef RDFPARAMS_OPTIMIZER_BATCH_CARDINALITY_H_
#define RDFPARAMS_OPTIMIZER_BATCH_CARDINALITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "optimizer/cardinality.h"
#include "sparql/query_template.h"

namespace rdfparams::opt {

/// Bitwise image of every DP input for one candidate: per pattern, the
/// RelationInfo cardinality followed by its var_distinct values (map
/// order, whose keys are the template's variables and thus identical
/// across candidates); then, per pattern pair (i < j), a presence flag
/// and the exact pair-join count. Equal vectors => equal plans.
using CardinalitySignature = std::vector<uint64_t>;

struct BatchPrefillStats {
  /// Counts answered by CountPatternBatch sweeps.
  uint64_t batched_counts = 0;
  /// Patterns whose counts could not be batched (no parameter slot, two
  /// or more parameter occurrences, or an absent constant).
  uint64_t unbatched_patterns = 0;
};

class BatchCardinality {
 public:
  /// `cache` must be non-null: prefilled counts land there, and the
  /// signature pass both feeds from and feeds it. The referenced
  /// template/store/dict must outlive this object.
  BatchCardinality(const sparql::QueryTemplate& tmpl,
                   const rdf::TripleStore& store, const rdf::Dictionary& dict,
                   CardinalityCache* cache);

  /// Computes the leaf count of every (pattern, candidates[i]) combination
  /// for i in `which` and inserts it into the cache, batching
  /// single-parameter patterns through one CountPatternBatch sweep per
  /// pattern. Candidates are positional bindings of the template (as
  /// produced by ParameterDomain); `which` selects the subset to prefill
  /// (indices into `candidates`, so callers with a partial fresh set need
  /// not copy bindings).
  BatchPrefillStats PrefillLeafCounts(
      const std::vector<sparql::ParameterBinding>& candidates,
      std::span<const size_t> which);

  /// Pre-computes ExactPairJoinCount for every template pattern pair with
  /// one shared variable (once on each side), exactly one parameter
  /// occurrence on one side, none on the other, and a parameter-free side
  /// of at most kDefaultPairJoinMaxWork triples — one cache entry per
  /// distinct parameter value among candidates[i] for i in `which`.
  /// Counts the cache already holds are skipped (a pair whose values are
  /// all cached builds no table). A pair is skipped whole when its
  /// parameter-free side's keys span more than four times its size.
  /// Returns the number of pair counts computed and inserted.
  uint64_t PrefillPairJoins(
      const std::vector<sparql::ParameterBinding>& candidates,
      std::span<const size_t> which);

  /// Cardinality signature of one bound candidate query (`bound` must be
  /// tmpl.Bind(candidate) for this object's template). Thread-safe.
  [[nodiscard]] Result<CardinalitySignature> Signature(const sparql::SelectQuery& bound)
      const;

 private:
  const sparql::QueryTemplate& tmpl_;
  const rdf::TripleStore& store_;
  const rdf::Dictionary& dict_;
  CardinalityCache* cache_;
};

}  // namespace rdfparams::opt

#endif  // RDFPARAMS_OPTIMIZER_BATCH_CARDINALITY_H_
