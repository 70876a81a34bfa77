#include "optimizer/batch_cardinality.h"

#include <algorithm>
#include <array>
#include <optional>

#include "rdf/triple.h"

namespace rdfparams::opt {

namespace {

/// The one %parameter slot of a pattern (3 slots) or a pattern pair
/// (6 slots; see JoinGraph::Pair::param); std::nullopt when there are
/// none or several.
template <size_t N>
std::optional<size_t> SingleParamSlot(const std::array<int, N>& param) {
  std::optional<size_t> slot;
  for (size_t k = 0; k < N; ++k) {
    if (param[k] < 0) continue;
    if (slot.has_value()) return std::nullopt;
    slot = k;
  }
  return slot;
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

}  // namespace

BatchCardinality::BatchCardinality(const sparql::QueryTemplate& tmpl,
                                   const rdf::TripleStore& store,
                                   const rdf::Dictionary& dict,
                                   CardinalityCache* cache)
    : store_(store),
      cache_(cache),
      graph_(tmpl.query(), tmpl.parameter_names(), dict) {
  RDFPARAMS_DCHECK(cache_ != nullptr);
}

BatchPrefillStats BatchCardinality::PrefillLeafCounts(
    const std::vector<sparql::ParameterBinding>& candidates,
    std::span<const size_t> which) {
  BatchPrefillStats stats;
  for (const JoinGraph::Pattern& p : graph_.patterns()) {
    // The compiled pattern is resolved the way EstimateLeaf reads it after
    // substitution: constants as ids, variables and the parameter slot as
    // wildcards.
    const std::optional<size_t> slot = SingleParamSlot(p.leaf.param);
    if (p.leaf.absent_constant || !slot.has_value()) {
      // A constant absent from the data: EstimateLeaf short-circuits to
      // cardinality 0 without ever counting. Parameter-free patterns are
      // counted once, into the ground signature; multi-parameter patterns
      // fall back to on-demand cached probes inside the estimator.
      ++stats.unbatched_patterns;
      continue;
    }
    const rdf::Triple fixed = p.leaf.ids;
    const auto pos = static_cast<rdf::TriplePos>(*slot);

    std::vector<rdf::TermId> values = DistinctValues(
        candidates, which, static_cast<size_t>(p.leaf.param[*slot]));
    std::vector<uint64_t> counts =
        store_.CountPatternBatch(pos, fixed.s, fixed.p, fixed.o, values);
    for (size_t i = 0; i < values.size(); ++i) {
      rdf::Triple key = fixed;
      rdf::SetPos(&key, pos, values[i]);
      cache_->InsertCount(key.s, key.p, key.o, counts[i]);
    }
    stats.batched_counts += values.size();
  }
  return stats;
}

uint64_t BatchCardinality::PrefillPairJoins(
    const std::vector<sparql::ParameterBinding>& candidates,
    std::span<const size_t> which) {
  uint64_t inserted = 0;
  for (const JoinGraph::Pair& pair : graph_.pairs()) {
    // One parameter slot on one side; it is a wildcard in the compiled
    // key, and each value fills in its own below, giving the key of the
    // bound query's pair.
    const std::optional<size_t> slot = SingleParamSlot(pair.param);
    if (!slot.has_value() || pair.key->absent_constant) continue;
    const PairJoinKey& key = *pair.key;
    const auto pos_a = static_cast<uint8_t>(key.pos_a);
    const auto pos_b = static_cast<uint8_t>(key.pos_b);

    const size_t param_slot = *slot;
    const bool param_on_a = param_slot < 3;
    const auto param_pos = static_cast<rdf::TriplePos>(param_slot % 3);
    const auto param_index = static_cast<size_t>(pair.param[param_slot]);
    // Values whose count a shared or earlier-used cache already holds
    // need no table: a long-lived cache makes most of them hits.
    std::vector<rdf::TermId> missing;
    for (rdf::TermId value : DistinctValues(candidates, which, param_index)) {
      std::array<rdf::TermId, 6> ids = key.ids;
      ids[param_slot] = value;
      if (!cache_->LookupPairJoin(ids, pos_a, pos_b).has_value()) {
        missing.push_back(value);
      }
    }
    if (missing.empty()) continue;

    const rdf::Triple fixed = param_on_a ? key.side_b() : key.side_a();
    const rdf::TriplePos fixed_pos = param_on_a ? key.pos_b : key.pos_a;
    const rdf::Triple varying = param_on_a ? key.side_a() : key.side_b();
    const rdf::TriplePos varying_pos = param_on_a ? key.pos_a : key.pos_b;
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
    rdf::PatternSweep sweep(store_, param_pos, varying.s, varying.p,
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
      std::array<rdf::TermId, 6> ids = key.ids;
      ids[param_slot] = value;
      cache_->InsertPairJoin(ids, pos_a, pos_b, count);
      ++inserted;
    }
  }
  return inserted;
}

}  // namespace rdfparams::opt
