// Cardinality estimation over the triple store.
//
// Leaf (triple pattern) cardinalities are *exact* — every bound-slot
// combination maps to a contiguous index range, so counting is two binary
// searches. Join cardinalities use the classical distinct-value
// (system-R style) formula with containment assumption. This mix mirrors
// what RDF engines (RDF-3X, Virtuoso) actually do and is what makes the
// paper's plan flips (E4) reproducible.
#ifndef RDFPARAMS_OPTIMIZER_CARDINALITY_H_
#define RDFPARAMS_OPTIMIZER_CARDINALITY_H_

#include <array>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "optimizer/cardinality_cache.h"
#include "rdf/dictionary.h"
#include "rdf/triple.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"
#include "util/status.h"

namespace rdfparams::opt {

/// Cardinality + per-variable distinct-count estimates for a (sub)plan.
struct RelationInfo {
  double cardinality = 0;
  /// var name -> estimated number of distinct values.
  std::map<std::string, double> var_distinct;
};

/// One triple pattern compiled for estimation from ids: constants resolved
/// through the dictionary once, %parameter slots marked, the variables
/// listed in name order. EstimateLeaf reads nothing else, so a template's
/// patterns compile once and every binding is estimated by substituting
/// its ids.
struct LeafShape {
  /// Resolved constants; kWildcardId at variables and %parameter slots.
  rdf::Triple ids{rdf::kWildcardId, rdf::kWildcardId, rdf::kWildcardId};
  /// Per slot (s, p, o): the index of its %parameter among the template's
  /// parameter names, or -1.
  std::array<int, 3> param{-1, -1, -1};
  /// Per slot: the index of its variable in var_names, or -1.
  std::array<int, 3> slot_var{-1, -1, -1};
  /// A constant is absent from the data: the pattern matches nothing.
  bool absent_constant = false;
  /// The pattern's variables, ascending by name.
  std::vector<std::string> var_names;
  /// The filters EstimatePattern folds in, in query order: those with a
  /// constant or %parameter rhs whose lhs is one of var_names (the op and
  /// the lhs's index in var_names).
  std::vector<std::pair<sparql::CompareOp, int>> filters;

  bool has_param() const {
    return param[0] >= 0 || param[1] >= 0 || param[2] >= 0;
  }
  /// `ids` with every %parameter slot set to its value in `values`.
  rdf::Triple Substitute(std::span<const rdf::TermId> values) const;
};

/// Compiles pattern `pattern_index` of `query`. `parameter_names` must
/// list every %parameter the pattern mentions (empty for a ground query).
LeafShape CompileLeaf(const sparql::SelectQuery& query, size_t pattern_index,
                      const std::vector<std::string>& parameter_names,
                      const rdf::Dictionary& dict);

/// One pattern pair resolved for exact join counting. `ids` holds side a's
/// (s, p, o) then side b's, with kWildcardId at variables and at
/// %parameter slots; with the shared variable's slot on each side it is
/// the CardinalityCache key of the count.
struct PairJoinKey {
  std::array<rdf::TermId, 6> ids{};
  rdf::TriplePos pos_a = rdf::TriplePos::kS;
  rdf::TriplePos pos_b = rdf::TriplePos::kS;
  /// A constant of either pattern is absent from the data: the count is 0
  /// (returned without touching the cache).
  bool absent_constant = false;

  rdf::Triple side_a() const { return {ids[0], ids[1], ids[2]}; }
  rdf::Triple side_b() const { return {ids[3], ids[4], ids[5]}; }
};

class CardinalityEstimator {
 public:
  /// `cache` (optional, may be nullptr) memoizes pattern counts and exact
  /// pair-join counts across estimator instances; it may be shared between
  /// threads. Cached values are exact, so estimates are identical with and
  /// without a cache.
  CardinalityEstimator(const rdf::TripleStore& store,
                       const rdf::Dictionary& dict,
                       CardinalityCache* cache = nullptr)
      : store_(store), dict_(dict), cache_(cache) {}

  /// Estimates one ground triple pattern (no %params). Filters from `query`
  /// whose lhs variable is bound by this pattern and whose rhs is constant
  /// are folded in with heuristic selectivities.
  [[nodiscard]] Result<RelationInfo> EstimatePattern(const sparql::SelectQuery& query,
                                       size_t pattern_index) const;

  /// The same estimate from a compiled pattern whose %parameter slots are
  /// substituted into `ids`: writes the cardinality to out[0] and the
  /// distinct-value estimate of shape.var_names[k] to out[1 + k].
  void EstimateLeaf(const LeafShape& shape, const rdf::Triple& ids,
                    double* out) const;

  /// Exact cardinality of joining two *single* triple patterns on their
  /// (single) shared variable: the number of triple pairs, one matching
  /// each pattern, that agree on the shared variable. Computed against the
  /// indexes:
  ///   * small side <= 4096 triples: a merge sweep. The small side's
  ///     shared-variable keys are sorted, and one ascending
  ///     rdf::PatternSweep over the big side measures each distinct key's
  ///     run once — O(k·log(n/k) + k) for k keys instead of k full-index
  ///     binary searches;
  ///   * else a hash-count pass when both ranges fit `max_work`: the
  ///     small side's keys are counted into a dense SlotCountTable (an
  ///     std::unordered_map when their span exceeds four times the side),
  ///     and the big side sums its keys' counts;
  ///   * std::nullopt when too expensive (see RoutePairJoin) or not
  ///     applicable (see ResolvePairJoin).
  /// Every count is an integer far below 2^53, so the returned double is
  /// exact whatever order the terms are summed in.
  /// This mirrors the pairwise join statistics real RDF optimizers keep and
  /// is what lets correlated parameters flip plans (paper E4).
  /// Results are cached (when a cache is attached) only for the default
  /// work budget, since the budget changes which inputs are declined.
  /// BatchCardinality::PrefillPairJoins fills the same cache entries in
  /// bulk through the same ResolvePairJoin / RoutePairJoin helpers.
  static constexpr uint64_t kDefaultPairJoinMaxWork = 1u << 20;
  std::optional<double> ExactPairJoinCount(
      const sparql::SelectQuery& query, size_t pattern_a, size_t pattern_b,
      uint64_t max_work = kDefaultPairJoinMaxWork) const;

  /// ExactPairJoinCount for a pair already resolved by ResolvePairJoin
  /// (with any %parameter slots substituted into `key.ids`).
  std::optional<double> CountPairJoin(
      const PairJoinKey& key,
      uint64_t max_work = kDefaultPairJoinMaxWork) const;

  const rdf::TripleStore& store() const { return store_; }
  const rdf::Dictionary& dict() const { return dict_; }
  CardinalityCache* cache() const { return cache_; }

 private:
  /// CountPattern through the shared cache (when one is attached).
  uint64_t CachedCount(rdf::TermId s, rdf::TermId p, rdf::TermId o) const;

  const rdf::TripleStore& store_;
  const rdf::Dictionary& dict_;
  CardinalityCache* cache_ = nullptr;
};

/// Resolves a pattern pair for ExactPairJoinCount; std::nullopt when the
/// pair is not countable (zero or several shared variables, or the shared
/// variable repeated inside one pattern).
std::optional<PairJoinKey> ResolvePairJoin(const sparql::TriplePattern& a,
                                           const sparql::TriplePattern& b,
                                           const rdf::Dictionary& dict);

/// How a resolved pair's count is settled once both leaf sizes are known.
enum class PairJoinRoute : uint8_t {
  kEmpty,     ///< a side matches nothing: the count is 0
  kDeclined,  ///< both sides large and over `max_work`: std::nullopt
  kCount,     ///< count exactly
};

/// The decline rule: kDeclined iff the smaller side exceeds the 4096-triple
/// merge-sweep limit and both sides together exceed `max_work`.
PairJoinRoute RoutePairJoin(uint64_t size_a, uint64_t size_b,
                            uint64_t max_work);

/// Multiplicity of every value of one slot over a run of triples, as a
/// dense array over the values' span. Values are dictionary ids, which
/// cluster; a run whose span exceeds kDenseSpanFactor times its size gets
/// no table. Shared by ExactPairJoinCount's hash-count pass and the
/// stage-1b pair prefill.
class SlotCountTable {
 public:
  static constexpr uint64_t kDenseSpanFactor = 4;

  /// std::nullopt when the run's values are too sparse for a dense table.
  static std::optional<SlotCountTable> Build(std::span<const rdf::Triple> run,
                                             rdf::TriplePos pos);

  uint64_t Count(rdf::TermId value) const {
    return value >= base_ && value - base_ < counts_.size()
               ? counts_[value - base_]
               : 0;
  }

 private:
  rdf::TermId base_ = 0;
  // Counts fit 32 bits: a count is at most the run's size, and runs are
  // slices of one index vector addressed by 32-bit ids.
  std::vector<uint32_t> counts_;
};

/// Heuristic selectivity of a filter op (used when the rhs is constant).
double FilterSelectivity(sparql::CompareOp op, double distinct_values);

}  // namespace rdfparams::opt

#endif  // RDFPARAMS_OPTIMIZER_CARDINALITY_H_
