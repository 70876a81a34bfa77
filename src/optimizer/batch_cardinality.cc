#include "optimizer/batch_cardinality.h"

#include <algorithm>
#include <bit>

#include "rdf/triple.h"

namespace rdfparams::opt {

namespace {

/// The %parameter occurrences of one pattern: how many, and the slot and
/// template parameter index of the last one.
struct ParamSlots {
  int count = 0;
  rdf::TriplePos pos = rdf::TriplePos::kS;
  size_t index = 0;
};

ParamSlots FindParams(const sparql::TriplePattern& tp,
                      const std::vector<std::string>& names) {
  ParamSlots params;
  const sparql::Slot* slots[3] = {&tp.s, &tp.p, &tp.o};
  for (int k = 0; k < 3; ++k) {
    if (!slots[k]->is_param()) continue;
    ++params.count;
    params.pos = static_cast<rdf::TriplePos>(k);
    auto it = std::find(names.begin(), names.end(), slots[k]->name);
    RDFPARAMS_DCHECK(it != names.end());
    params.index = static_cast<size_t>(it - names.begin());
  }
  return params;
}

/// The values of parameter `index` over candidates[i] for i in `which`,
/// ascending and deduplicated (binding values are dictionary ids, i.e.
/// already resolved).
std::vector<rdf::TermId> DistinctValues(
    const std::vector<sparql::ParameterBinding>& candidates,
    std::span<const size_t> which, size_t index) {
  std::vector<rdf::TermId> values;
  values.reserve(which.size());
  for (size_t i : which) {
    const sparql::ParameterBinding& c = candidates[i];
    RDFPARAMS_DCHECK(index < c.values.size());
    values.push_back(c.values[index]);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

/// Multiplicity of every value of one slot over a run of triples, as a
/// dense array over the values' span. Values are dictionary ids, which
/// cluster; a run whose span exceeds kDenseSpanFactor times its size gets
/// no table.
class SlotCountTable {
 public:
  static std::optional<SlotCountTable> Build(std::span<const rdf::Triple> run,
                                             rdf::TriplePos pos) {
    SlotCountTable table;
    if (run.empty()) return table;
    rdf::TermId lo = rdf::GetPos(run[0], pos);
    rdf::TermId hi = lo;
    for (const rdf::Triple& t : run) {
      lo = std::min(lo, rdf::GetPos(t, pos));
      hi = std::max(hi, rdf::GetPos(t, pos));
    }
    const uint64_t span = uint64_t{hi} - lo + 1;
    if (span > kDenseSpanFactor * run.size()) return std::nullopt;
    table.base_ = lo;
    table.counts_.assign(span, 0);
    for (const rdf::Triple& t : run) ++table.counts_[rdf::GetPos(t, pos) - lo];
    return table;
  }

  uint64_t Count(rdf::TermId value) const {
    return value >= base_ && value - base_ < counts_.size()
               ? counts_[value - base_]
               : 0;
  }

 private:
  static constexpr uint64_t kDenseSpanFactor = 4;
  rdf::TermId base_ = 0;
  // Counts fit 32 bits: tables are only built over runs of at most
  // kDefaultPairJoinMaxWork triples.
  std::vector<uint32_t> counts_;
};

}  // namespace

BatchCardinality::BatchCardinality(const sparql::QueryTemplate& tmpl,
                                   const rdf::TripleStore& store,
                                   const rdf::Dictionary& dict,
                                   CardinalityCache* cache)
    : tmpl_(tmpl), store_(store), dict_(dict), cache_(cache) {
  RDFPARAMS_DCHECK(cache_ != nullptr);
}

BatchPrefillStats BatchCardinality::PrefillLeafCounts(
    const std::vector<sparql::ParameterBinding>& candidates,
    std::span<const size_t> which) {
  BatchPrefillStats stats;
  const sparql::SelectQuery& query = tmpl_.query();

  for (const sparql::TriplePattern& tp : query.patterns) {
    // Resolve the pattern the way EstimatePattern will after binding:
    // constants through the dictionary, variables to wildcards, and the
    // parameter slot (if any) marked as the varying position.
    const ParamSlots param = FindParams(tp, tmpl_.parameter_names());
    bool resolvable = true;
    rdf::Triple fixed(rdf::kWildcardId, rdf::kWildcardId, rdf::kWildcardId);
    const sparql::Slot* slots[3] = {&tp.s, &tp.p, &tp.o};
    for (int k = 0; k < 3; ++k) {
      if (!slots[k]->is_const()) continue;
      auto id = dict_.Find(slots[k]->term);
      if (!id.has_value()) {
        // A constant absent from the data: EstimatePattern short-circuits
        // to cardinality 0 without ever counting, so there is nothing to
        // prefill for this pattern.
        resolvable = false;
        break;
      }
      rdf::SetPos(&fixed, static_cast<rdf::TriplePos>(k), *id);
    }
    if (!resolvable || param.count != 1) {
      // Parameter-free patterns cost one probe total (the first worker
      // caches it); multi-parameter patterns fall back to on-demand
      // cached probes inside the estimator.
      ++stats.unbatched_patterns;
      continue;
    }

    std::vector<rdf::TermId> values =
        DistinctValues(candidates, which, param.index);
    std::vector<uint64_t> counts = store_.CountPatternBatch(
        param.pos, fixed.s, fixed.p, fixed.o, values);
    for (size_t i = 0; i < values.size(); ++i) {
      rdf::Triple key = fixed;
      rdf::SetPos(&key, param.pos, values[i]);
      cache_->InsertCount(key.s, key.p, key.o, counts[i]);
    }
    stats.batched_counts += values.size();
  }
  return stats;
}

uint64_t BatchCardinality::PrefillPairJoins(
    const std::vector<sparql::ParameterBinding>& candidates,
    std::span<const size_t> which) {
  const sparql::SelectQuery& query = tmpl_.query();
  const size_t n = query.patterns.size();
  std::vector<ParamSlots> params;
  for (const sparql::TriplePattern& tp : query.patterns) {
    params.push_back(FindParams(tp, tmpl_.parameter_names()));
  }
  uint64_t inserted = 0;
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      const ParamSlots& pa = params[i];
      const ParamSlots& pb = params[j];
      if (pa.count + pb.count != 1) continue;
      // The parameter slot resolves to a wildcard here; each value fills in
      // its own below, giving the key of the bound query's pair.
      std::optional<PairJoinKey> key = ResolvePairJoin(
          query.patterns[i], query.patterns[j], dict_);
      if (!key.has_value() || key->absent_constant) continue;
      const auto pos_a = static_cast<uint8_t>(key->pos_a);
      const auto pos_b = static_cast<uint8_t>(key->pos_b);

      const bool param_on_a = pa.count == 1;
      const ParamSlots& param = param_on_a ? pa : pb;
      const size_t param_slot = (param_on_a ? 0 : 3) +
                                static_cast<size_t>(param.pos);
      // Values whose count a shared or earlier-used cache already holds
      // need no table: a long-lived cache makes most of them hits.
      std::vector<rdf::TermId> missing;
      for (rdf::TermId value : DistinctValues(candidates, which, param.index)) {
        std::array<rdf::TermId, 6> ids = key->ids;
        ids[param_slot] = value;
        if (!cache_->LookupPairJoin(ids, pos_a, pos_b).has_value()) {
          missing.push_back(value);
        }
      }
      if (missing.empty()) continue;

      const rdf::Triple fixed = param_on_a ? key->side_b() : key->side_a();
      const rdf::TriplePos fixed_pos = param_on_a ? key->pos_b : key->pos_a;
      const rdf::Triple varying = param_on_a ? key->side_a() : key->side_b();
      const rdf::TriplePos varying_pos = param_on_a ? key->pos_a : key->pos_b;
      std::span<const rdf::Triple> fixed_run =
          store_.Range(store_.ChooseIndex(fixed.s, fixed.p, fixed.o), fixed.s,
                       fixed.p, fixed.o);
      if (fixed_run.size() > CardinalityEstimator::kDefaultPairJoinMaxWork) {
        continue;
      }

      // Keys too sparse for a dense table leave the pair to
      // ExactPairJoinCount's merge sweep, value by value.
      const std::optional<SlotCountTable> table =
          SlotCountTable::Build(fixed_run, fixed_pos);
      if (!table.has_value()) continue;

      // Each value's run on the varying side is exactly the range its
      // bound pattern matches; ascending values advance one sweep.
      rdf::PatternSweep sweep(store_, param.pos, varying.s, varying.p,
                              varying.o);
      RDFPARAMS_DCHECK(sweep.valid());
      for (rdf::TermId value : missing) {
        const std::span<const rdf::Triple> run = sweep.Next(value);
        const uint64_t size_a = param_on_a ? run.size() : fixed_run.size();
        const uint64_t size_b = param_on_a ? fixed_run.size() : run.size();
        // An empty side sums to 0 like the kEmpty route says.
        std::optional<double> count;
        if (RoutePairJoin(size_a, size_b,
                          CardinalityEstimator::kDefaultPairJoinMaxWork) !=
            PairJoinRoute::kDeclined) {
          uint64_t total = 0;
          for (const rdf::Triple& t : run) {
            total += table->Count(rdf::GetPos(t, varying_pos));
          }
          count = static_cast<double>(total);
        }
        std::array<rdf::TermId, 6> ids = key->ids;
        ids[param_slot] = value;
        cache_->InsertPairJoin(ids, pos_a, pos_b, count);
        ++inserted;
      }
    }
  }
  return inserted;
}

Result<CardinalitySignature> BatchCardinality::Signature(
    const sparql::SelectQuery& bound) const {
  CardinalityEstimator est(store_, dict_, cache_);
  const size_t n = bound.patterns.size();
  CardinalitySignature sig;
  sig.reserve(n * 4 + n * n);

  // (a) Leaf RelationInfos. The var_distinct keys are the template's
  // variables — identical for every candidate — so encoding the values in
  // map order keeps positions aligned across candidates.
  for (size_t i = 0; i < n; ++i) {
    RDFPARAMS_ASSIGN_OR_RETURN(RelationInfo info, est.EstimatePattern(bound, i));
    sig.push_back(std::bit_cast<uint64_t>(info.cardinality));
    for (const auto& [var, distinct] : info.var_distinct) {
      (void)var;
      sig.push_back(std::bit_cast<uint64_t>(distinct));
    }
  }

  // (b) Exact pair-join counts for every pattern pair. Pairs the DP never
  // overrides with an exact count (no single shared variable) return
  // nullopt from the cheap static checks, encoded as a presence flag so
  // "not computable" can never alias a real count. The computed values
  // land in the shared cache, where the deduped DP run finds them again.
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = i + 1; j < n; ++j) {
      std::optional<double> count = est.ExactPairJoinCount(bound, i, j);
      sig.push_back(count.has_value() ? 1u : 0u);
      sig.push_back(count.has_value() ? std::bit_cast<uint64_t>(*count) : 0u);
    }
  }
  return sig;
}

}  // namespace rdfparams::opt
