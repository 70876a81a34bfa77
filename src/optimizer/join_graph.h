// The join graph of one query or template, compiled once for the C_out
// join-ordering DP (see optimizer.h).
//
// Everything the DP consults besides numbers is template structure:
// per pattern, its variables (as a set over the template's variables,
// sorted by name), its scan index and its resolved constants; per pattern
// pair, whether ExactPairJoinCount applies (ResolvePairJoin). JoinGraph
// holds exactly that, with every constant resolved to a TermId once and
// every %parameter slot marked, so a binding's DP input is computed by
// substituting its ids — no Bind, no dictionary lookup.
//
// The DP input itself is the *cardinality signature*: a flat vector with,
// per pattern, the bit pattern of its estimated cardinality followed by
// its variables' distinct-value estimates in name order; then, per
// pattern pair (i < j), a presence flag and the bit pattern of the exact
// pair-join count. JoinOrderSolver reads nothing else per binding, so two
// bindings with equal signatures receive identical Optimize() results —
// same plan, same fingerprint, same est_cout — by construction, and
// classification runs the DP once per distinct signature. Comparison is
// bitwise (stricter than ==), so a shared signature can never produce a
// different classification than the per-candidate path.
//
// Thread model: a JoinGraph is immutable once compiled; FillSignature may
// run on many threads at once (the estimator's cache is synchronized).
#ifndef RDFPARAMS_OPTIMIZER_JOIN_GRAPH_H_
#define RDFPARAMS_OPTIMIZER_JOIN_GRAPH_H_

#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "optimizer/cardinality.h"
#include "rdf/triple_store.h"
#include "sparql/algebra.h"

namespace rdfparams::opt {

/// Bitwise image of every number the DP reads for one binding (see the
/// header comment for the layout). Equal vectors => equal plans.
using CardinalitySignature = std::vector<uint64_t>;

/// Hash of a signature, for hash-map dedup.
struct SignatureHash {
  size_t operator()(const CardinalitySignature& sig) const;
};

/// A set of template variables (indices into JoinGraph::var_names()).
/// 192 bits cover the 3 · 63 variables of the largest plannable query.
class VarSet {
 public:
  static constexpr size_t kCapacity = 192;

  void Set(size_t v) { words_[v / 64] |= uint64_t{1} << (v % 64); }
  bool Test(size_t v) const { return (words_[v / 64] >> (v % 64)) & 1; }
  bool Any() const { return (words_[0] | words_[1] | words_[2]) != 0; }
  size_t Count() const {
    return static_cast<size_t>(__builtin_popcountll(words_[0]) +
                               __builtin_popcountll(words_[1]) +
                               __builtin_popcountll(words_[2]));
  }
  VarSet operator&(const VarSet& o) const {
    return VarSet({words_[0] & o.words_[0], words_[1] & o.words_[1],
                   words_[2] & o.words_[2]});
  }
  VarSet operator|(const VarSet& o) const {
    return VarSet({words_[0] | o.words_[0], words_[1] | o.words_[1],
                   words_[2] | o.words_[2]});
  }
  /// Calls fn(v) for every member, ascending (= name order).
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (size_t w = 0; w < words_.size(); ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(__builtin_ctzll(bits)));
      }
    }
  }

  VarSet() = default;

 private:
  explicit VarSet(std::array<uint64_t, 3> words) : words_(words) {}
  std::array<uint64_t, 3> words_{};
};

class JoinGraph {
 public:
  struct Pattern {
    LeafShape leaf;
    rdf::IndexOrder scan_index = rdf::IndexOrder::kSPO;
    /// leaf.var_names as template variables; var_ids[k] is the index of
    /// leaf.var_names[k] (both ascending by name).
    VarSet vars;
    std::vector<uint32_t> var_ids;
    /// Signature slot of the cardinality; the distincts follow.
    uint32_t offset = 0;
  };
  struct Pair {
    /// std::nullopt when ExactPairJoinCount does not apply to the pair.
    std::optional<PairJoinKey> key;
    /// Per slot of key->ids: the %parameter index, or -1.
    std::array<int, 6> param{-1, -1, -1, -1, -1, -1};
    /// Signature slot of the presence flag; the count follows.
    uint32_t offset = 0;

    bool has_param() const;
  };

  /// Compiles `query`'s patterns. `parameter_names` lists its %parameters
  /// in binding order (QueryTemplate::parameter_names(); empty for a
  /// ground query). Constants are resolved through `dict` here, once.
  JoinGraph(const sparql::SelectQuery& query,
            const std::vector<std::string>& parameter_names,
            const rdf::Dictionary& dict);

  size_t num_patterns() const { return patterns_.size(); }
  const Pattern& pattern(size_t i) const { return patterns_[i]; }
  const std::vector<Pattern>& patterns() const { return patterns_; }
  /// Every pattern pair (i, j), i < j, in lexicographic order.
  const std::vector<Pair>& pairs() const { return pairs_; }
  /// The template's pattern variables, ascending by name.
  const std::vector<std::string>& var_names() const { return var_names_; }
  size_t num_params() const { return num_params_; }
  size_t signature_size() const { return signature_size_; }
  /// Signature slot of pair (i, j)'s presence flag, i < j.
  uint32_t pair_offset(size_t i, size_t j) const {
    return pairs_[PairIndex(i, j)].offset;
  }

  /// A signature with every parameter-free entry filled: the leaves and
  /// pairs without a %parameter are estimated and counted here, once, on
  /// the calling thread. For a ground query this is the whole signature.
  CardinalitySignature GroundSignature(const CardinalityEstimator& est) const;

  /// Completes `sig`, a copy of GroundSignature(), for one binding
  /// (`values` aligned with the parameter names): the entries that
  /// depend on a %parameter.
  void FillSignature(std::span<const rdf::TermId> values,
                     const CardinalityEstimator& est,
                     CardinalitySignature* sig) const;

 private:
  size_t PairIndex(size_t i, size_t j) const {
    const size_t n = patterns_.size();
    return i * (2 * n - i - 1) / 2 + (j - i - 1);
  }
  void EstimatePatternInto(const Pattern& p, const rdf::Triple& ids,
                           const CardinalityEstimator& est,
                           CardinalitySignature* sig) const;
  static void CountPairInto(const Pair& pair, const PairJoinKey& key,
                            const CardinalityEstimator& est,
                            CardinalitySignature* sig);

  std::vector<Pattern> patterns_;
  std::vector<Pair> pairs_;  ///< (i, j) for i < j, lexicographic
  /// The patterns and countable pairs that mention a %parameter.
  std::vector<uint32_t> param_patterns_;
  std::vector<uint32_t> param_pairs_;
  std::vector<std::string> var_names_;
  size_t num_params_ = 0;
  size_t signature_size_ = 0;
};

}  // namespace rdfparams::opt

#endif  // RDFPARAMS_OPTIMIZER_JOIN_GRAPH_H_
