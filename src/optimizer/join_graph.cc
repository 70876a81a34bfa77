#include "optimizer/join_graph.h"

#include <algorithm>
#include <bit>

#include "util/hash.h"

namespace rdfparams::opt {

namespace {

/// Picks the index whose sort prefix covers the bound slots of a pattern
/// (constants and %parameters, which are constants once bound).
rdf::IndexOrder ChooseScanIndex(const sparql::TriplePattern& tp) {
  bool bs = !tp.s.is_var();
  bool bp = !tp.p.is_var();
  bool bo = !tp.o.is_var();
  if (bs && bp) return rdf::IndexOrder::kSPO;
  if (bp && bo) return rdf::IndexOrder::kPOS;
  if (bo && bs) return rdf::IndexOrder::kOSP;
  if (bs) return rdf::IndexOrder::kSPO;
  if (bp) return rdf::IndexOrder::kPOS;
  if (bo) return rdf::IndexOrder::kOSP;
  return rdf::IndexOrder::kSPO;
}

}  // namespace

size_t SignatureHash::operator()(const CardinalitySignature& sig) const {
  uint64_t h = sig.size();
  for (uint64_t v : sig) h = util::HashCombine(h, v);
  return static_cast<size_t>(h);
}

bool JoinGraph::Pair::has_param() const {
  return std::any_of(param.begin(), param.end(), [](int p) { return p >= 0; });
}

JoinGraph::JoinGraph(const sparql::SelectQuery& query,
                     const std::vector<std::string>& parameter_names,
                     const rdf::Dictionary& dict)
    : num_params_(parameter_names.size()) {
  const size_t n = query.patterns.size();
  var_names_ = query.PatternVariables();
  std::sort(var_names_.begin(), var_names_.end());
  const bool var_sets_fit = var_names_.size() <= VarSet::kCapacity;

  uint32_t offset = 0;
  patterns_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    Pattern p;
    p.leaf = CompileLeaf(query, i, parameter_names, dict);
    p.scan_index = ChooseScanIndex(query.patterns[i]);
    for (const std::string& name : p.leaf.var_names) {
      const auto v = static_cast<uint32_t>(
          std::lower_bound(var_names_.begin(), var_names_.end(), name) -
          var_names_.begin());
      p.var_ids.push_back(v);
      if (var_sets_fit) p.vars.Set(v);
    }
    p.offset = offset;
    offset += static_cast<uint32_t>(1 + p.leaf.var_names.size());
    if (p.leaf.has_param()) param_patterns_.push_back(static_cast<uint32_t>(i));
    patterns_.push_back(std::move(p));
  }

  pairs_.reserve(n > 0 ? n * (n - 1) / 2 : 0);
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      Pair pair;
      pair.key = ResolvePairJoin(query.patterns[i], query.patterns[j], dict);
      if (pair.key.has_value()) {
        for (int k = 0; k < 3; ++k) {
          pair.param[k] = patterns_[i].leaf.param[k];
          pair.param[3 + k] = patterns_[j].leaf.param[k];
        }
      }
      pair.offset = offset;
      offset += 2;
      if (pair.has_param()) {
        param_pairs_.push_back(static_cast<uint32_t>(pairs_.size()));
      }
      pairs_.push_back(pair);
    }
  }
  signature_size_ = offset;
}

void JoinGraph::EstimatePatternInto(const Pattern& p, const rdf::Triple& ids,
                                    const CardinalityEstimator& est,
                                    CardinalitySignature* sig) const {
  double out[4];
  est.EstimateLeaf(p.leaf, ids, out);
  for (size_t k = 0; k <= p.leaf.var_names.size(); ++k) {
    (*sig)[p.offset + k] = std::bit_cast<uint64_t>(out[k]);
  }
}

void JoinGraph::CountPairInto(const Pair& pair, const PairJoinKey& key,
                              const CardinalityEstimator& est,
                              CardinalitySignature* sig) {
  const std::optional<double> count = est.CountPairJoin(key);
  (*sig)[pair.offset] = count.has_value() ? 1u : 0u;
  (*sig)[pair.offset + 1] =
      count.has_value() ? std::bit_cast<uint64_t>(*count) : 0u;
}

CardinalitySignature JoinGraph::GroundSignature(
    const CardinalityEstimator& est) const {
  // Entries that depend on a %parameter stay 0 until FillSignature; so do
  // the pairs ExactPairJoinCount does not apply to (flag 0, count 0).
  CardinalitySignature sig(signature_size_, 0);
  for (const Pattern& p : patterns_) {
    if (!p.leaf.has_param()) EstimatePatternInto(p, p.leaf.ids, est, &sig);
  }
  for (const Pair& pair : pairs_) {
    if (pair.key.has_value() && !pair.has_param()) {
      CountPairInto(pair, *pair.key, est, &sig);
    }
  }
  return sig;
}

void JoinGraph::FillSignature(std::span<const rdf::TermId> values,
                              const CardinalityEstimator& est,
                              CardinalitySignature* sig) const {
  RDFPARAMS_DCHECK(values.size() == num_params_);
  RDFPARAMS_DCHECK(sig->size() == signature_size_);
  for (uint32_t i : param_patterns_) {
    const Pattern& p = patterns_[i];
    EstimatePatternInto(p, p.leaf.Substitute(values), est, sig);
  }
  for (uint32_t k : param_pairs_) {
    const Pair& pair = pairs_[k];
    PairJoinKey key = *pair.key;
    for (size_t slot = 0; slot < key.ids.size(); ++slot) {
      if (pair.param[slot] >= 0) {
        key.ids[slot] = values[static_cast<size_t>(pair.param[slot])];
      }
    }
    CountPairInto(pair, key, est, sig);
  }
}

}  // namespace rdfparams::opt
