// Batched cardinality work for classifying many candidate bindings of one
// query template.
//
// Two jobs, both feeding the classification hot loop:
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
// Stage 2 (per-binding cardinality signatures) lives in JoinGraph, which
// reads the counts these prefills leave in the cache.
//
// Thread model: the prefills are called once, before workers start.
#ifndef RDFPARAMS_OPTIMIZER_BATCH_CARDINALITY_H_
#define RDFPARAMS_OPTIMIZER_BATCH_CARDINALITY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/join_graph.h"
#include "sparql/query_template.h"

namespace rdfparams::opt {

struct BatchPrefillStats {
  /// Counts answered by CountPatternBatch sweeps.
  uint64_t batched_counts = 0;
  /// Patterns whose counts could not be batched (no parameter slot, two
  /// or more parameter occurrences, or an absent constant).
  uint64_t unbatched_patterns = 0;
};

class BatchCardinality {
 public:
  /// `cache` must be non-null: prefilled counts land there, where the
  /// signature pass finds them. The template is compiled here (its
  /// constants resolved through `dict`); `store` must outlive this object.
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

  /// The template compiled once; both prefills read it, and so does the
  /// signature pass.
  const JoinGraph& graph() const { return graph_; }

 private:
  const rdf::TripleStore& store_;
  CardinalityCache* cache_;
  JoinGraph graph_;
};

}  // namespace rdfparams::opt

#endif  // RDFPARAMS_OPTIMIZER_BATCH_CARDINALITY_H_
