#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <vector>

namespace rdfparams::opt {

namespace {

using rdf::kWildcardId;
using rdf::TermId;
using sparql::Slot;
using sparql::SlotKind;

/// Resolves a constant slot to a TermId; kInvalidTermId when the term does
/// not occur in the data (=> pattern cardinality 0).
bool ResolveSlot(const Slot& slot, const rdf::Dictionary& dict, TermId* out,
                 bool* is_bound) {
  if (slot.is_var()) {
    *out = kWildcardId;
    *is_bound = false;
    return true;
  }
  if (slot.is_const()) {
    *is_bound = true;
    auto id = dict.Find(slot.term);
    *out = id.has_value() ? *id : rdf::kInvalidTermId;
    return id.has_value();
  }
  return false;  // parameter: caller must have bound it
}

}  // namespace

uint64_t CardinalityEstimator::CachedCount(rdf::TermId s, rdf::TermId p,
                                           rdf::TermId o) const {
  if (cache_ == nullptr) return store_.CountPattern(s, p, o);
  if (auto hit = cache_->LookupCount(s, p, o)) return *hit;
  uint64_t count = store_.CountPattern(s, p, o);
  cache_->InsertCount(s, p, o, count);
  return count;
}

double FilterSelectivity(sparql::CompareOp op, double distinct_values) {
  double d = std::max(distinct_values, 1.0);
  switch (op) {
    case sparql::CompareOp::kEq:
      return 1.0 / d;
    case sparql::CompareOp::kNe:
      return 1.0 - 1.0 / d;
    case sparql::CompareOp::kLt:
    case sparql::CompareOp::kLe:
    case sparql::CompareOp::kGt:
    case sparql::CompareOp::kGe:
      return 1.0 / 3.0;  // classical System R guess
  }
  return 1.0;
}

rdf::Triple LeafShape::Substitute(std::span<const TermId> values) const {
  rdf::Triple t = ids;
  for (int k = 0; k < 3; ++k) {
    if (param[k] >= 0) {
      rdf::SetPos(&t, static_cast<rdf::TriplePos>(k),
                  values[static_cast<size_t>(param[k])]);
    }
  }
  return t;
}

LeafShape CompileLeaf(const sparql::SelectQuery& query, size_t pattern_index,
                      const std::vector<std::string>& parameter_names,
                      const rdf::Dictionary& dict) {
  const sparql::TriplePattern& tp = query.patterns[pattern_index];
  LeafShape shape;
  shape.var_names = tp.Variables();
  std::sort(shape.var_names.begin(), shape.var_names.end());
  const Slot* slots[3] = {&tp.s, &tp.p, &tp.o};
  for (int k = 0; k < 3; ++k) {
    const Slot& slot = *slots[k];
    const auto pos = static_cast<rdf::TriplePos>(k);
    if (slot.is_var()) {
      shape.slot_var[k] = static_cast<int>(
          std::lower_bound(shape.var_names.begin(), shape.var_names.end(),
                           slot.name) -
          shape.var_names.begin());
    } else if (slot.is_param()) {
      auto it = std::find(parameter_names.begin(), parameter_names.end(),
                          slot.name);
      RDFPARAMS_DCHECK(it != parameter_names.end());
      shape.param[k] = static_cast<int>(it - parameter_names.begin());
    } else if (auto id = dict.Find(slot.term); id.has_value()) {
      rdf::SetPos(&shape.ids, pos, *id);
    } else {
      rdf::SetPos(&shape.ids, pos, rdf::kInvalidTermId);
      shape.absent_constant = true;
    }
  }
  // A %parameter rhs is a constant once bound, so it folds in like one.
  for (const sparql::FilterCondition& f : query.filters) {
    if (f.rhs.is_var()) continue;
    auto it = std::lower_bound(shape.var_names.begin(), shape.var_names.end(),
                               f.lhs_var);
    if (it == shape.var_names.end() || *it != f.lhs_var) continue;
    shape.filters.emplace_back(
        f.op, static_cast<int>(it - shape.var_names.begin()));
  }
  return shape;
}

Result<RelationInfo> CardinalityEstimator::EstimatePattern(
    const sparql::SelectQuery& query, size_t pattern_index) const {
  if (pattern_index >= query.patterns.size()) {
    return Status::InvalidArgument("pattern index out of range");
  }
  const sparql::TriplePattern& tp = query.patterns[pattern_index];
  if (tp.s.is_param() || tp.p.is_param() || tp.o.is_param()) {
    return Status::InvalidArgument(
        "pattern still contains unbound %parameters");
  }
  const LeafShape shape = CompileLeaf(query, pattern_index, {}, dict_);
  double out[4];
  EstimateLeaf(shape, shape.ids, out);
  RelationInfo info;
  info.cardinality = out[0];
  for (size_t k = 0; k < shape.var_names.size(); ++k) {
    info.var_distinct[shape.var_names[k]] = out[1 + k];
  }
  return info;
}

void CardinalityEstimator::EstimateLeaf(const LeafShape& shape,
                                        const rdf::Triple& ids,
                                        double* out) const {
  const size_t num_vars = shape.var_names.size();
  // A constant that is absent from the dictionary matches nothing.
  if (shape.absent_constant) {
    for (size_t k = 0; k <= num_vars; ++k) out[k] = 0;
    return;
  }
  const TermId p = ids.p;
  const bool bs = shape.slot_var[0] < 0;
  const bool bp = shape.slot_var[1] < 0;
  const bool bo = shape.slot_var[2] < 0;

  // Exact match count through the covering index (memoized).
  double card = static_cast<double>(CachedCount(ids.s, ids.p, ids.o));

  // Repeated variable inside one pattern (e.g. ?x :p ?x): the index range
  // over-counts; apply an equality selectivity between the two positions.
  auto same_var = [&](int a, int b) {
    return shape.slot_var[a] >= 0 && shape.slot_var[a] == shape.slot_var[b];
  };
  const bool s_eq_o = same_var(0, 2);
  const bool s_eq_p = same_var(0, 1);
  const bool p_eq_o = same_var(1, 2);

  // Distinct-value estimates per variable position.
  auto global_distinct = [&](rdf::TriplePos pos) -> double {
    switch (pos) {
      case rdf::TriplePos::kS:
        return static_cast<double>(std::max<uint64_t>(
            store_.NumDistinctSubjects(), 1));
      case rdf::TriplePos::kP:
        return static_cast<double>(std::max<uint64_t>(
            store_.NumDistinctPredicates(), 1));
      case rdf::TriplePos::kO:
        return static_cast<double>(std::max<uint64_t>(
            store_.NumDistinctObjects(), 1));
    }
    return 1;
  };

  auto position_distinct = [&](rdf::TriplePos pos) -> double {
    // Predicate bound: use the per-predicate statistics.
    if (bp && p != rdf::kInvalidTermId) {
      if (pos == rdf::TriplePos::kS && !bs && !bo) {
        return static_cast<double>(
            std::max<uint64_t>(store_.DistinctSubjectsForPredicate(p), 1));
      }
      if (pos == rdf::TriplePos::kO && !bo && !bs) {
        return static_cast<double>(
            std::max<uint64_t>(store_.DistinctObjectsForPredicate(p), 1));
      }
    }
    // Otherwise: bounded by both the match count and the global distinct.
    return std::max(1.0, std::min(card, global_distinct(pos)));
  };

  if (s_eq_o) card /= std::max(position_distinct(rdf::TriplePos::kO), 1.0);
  if (s_eq_p) card /= std::max(position_distinct(rdf::TriplePos::kP), 1.0);
  if (p_eq_o) card /= std::max(position_distinct(rdf::TriplePos::kO), 1.0);

  // A variable repeated inside the pattern keeps its last position's
  // estimate.
  out[0] = card;
  for (int k = 0; k < 3; ++k) {
    if (shape.slot_var[k] < 0) continue;
    out[1 + shape.slot_var[k]] =
        std::min(card, position_distinct(static_cast<rdf::TriplePos>(k)));
  }

  // Fold in constant-rhs filters on variables this pattern produces.
  for (const auto& [op, var] : shape.filters) {
    double sel = FilterSelectivity(op, out[1 + var]);
    out[0] *= sel;
    for (size_t k = 0; k < num_vars; ++k) {
      out[1 + k] = std::max(1.0, std::min(out[1 + k], out[0]));
    }
  }
}

namespace {

/// Where (if anywhere) does variable `var` sit in the pattern? Returns the
/// number of occurrences; `pos` receives the first occurrence.
int FindVarPosition(const sparql::TriplePattern& tp, const std::string& var,
                    rdf::TriplePos* pos) {
  int count = 0;
  if (tp.s.is_var() && tp.s.name == var) {
    if (count++ == 0) *pos = rdf::TriplePos::kS;
  }
  if (tp.p.is_var() && tp.p.name == var) {
    if (count++ == 0) *pos = rdf::TriplePos::kP;
  }
  if (tp.o.is_var() && tp.o.name == var) {
    if (count++ == 0) *pos = rdf::TriplePos::kO;
  }
  return count;
}

/// Resolves the pattern into ids[0..2] = (s, p, o) with wildcards for
/// variables and parameters; false when a constant is absent from the data.
bool ResolvePattern(const sparql::TriplePattern& tp,
                    const rdf::Dictionary& dict, rdf::TermId* ids) {
  bool bound = false;
  if (!ResolveSlot(tp.s, dict, &ids[0], &bound) && tp.s.is_const()) {
    return false;
  }
  if (!ResolveSlot(tp.p, dict, &ids[1], &bound) && tp.p.is_const()) {
    return false;
  }
  if (!ResolveSlot(tp.o, dict, &ids[2], &bound) && tp.o.is_const()) {
    return false;
  }
  return true;
}

/// Patterns of up to this many triples are counted by the merge sweep
/// whatever the work budget.
constexpr uint64_t kMergeSweepLimit = 4096;

/// Merge-sweep kernel: the number of (small, big) triple pairs agreeing on
/// small[small_pos] == big[big_pos]. The small side's keys go through one
/// ascending PatternSweep over the big side, each distinct key's run
/// measured once.
uint64_t MergeSweepCount(const rdf::TripleStore& store,
                         const rdf::Triple& small, rdf::TriplePos small_pos,
                         const rdf::Triple& big, rdf::TriplePos big_pos) {
  std::vector<TermId> keys;
  {
    auto range = store.Range(store.ChooseIndex(small.s, small.p, small.o),
                             small.s, small.p, small.o);
    keys.reserve(range.size());
    for (const rdf::Triple& t : range) {
      keys.push_back(rdf::GetPos(t, small_pos));
    }
  }
  std::sort(keys.begin(), keys.end());
  // The three default permutations cover every bound-slot set, so the
  // sweep always finds an index.
  rdf::PatternSweep sweep(store, big_pos, big.s, big.p, big.o);
  RDFPARAMS_DCHECK(sweep.valid());
  uint64_t total = 0;
  uint64_t run = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i == 0 || keys[i] != keys[i - 1]) run = sweep.Next(keys[i]).size();
    total += run;
  }
  return total;
}

}  // namespace

std::optional<PairJoinKey> ResolvePairJoin(const sparql::TriplePattern& a,
                                           const sparql::TriplePattern& b,
                                           const rdf::Dictionary& dict) {
  // Exactly one shared variable, occurring once on each side.
  std::vector<std::string> shared;
  for (const std::string& v : a.Variables()) {
    for (const std::string& w : b.Variables()) {
      if (v == w) shared.push_back(v);
    }
  }
  if (shared.size() != 1) return std::nullopt;
  PairJoinKey key;
  if (FindVarPosition(a, shared[0], &key.pos_a) != 1) return std::nullopt;
  if (FindVarPosition(b, shared[0], &key.pos_b) != 1) return std::nullopt;
  key.ids.fill(kWildcardId);
  key.absent_constant = !ResolvePattern(a, dict, &key.ids[0]) ||
                        !ResolvePattern(b, dict, &key.ids[3]);
  return key;
}

PairJoinRoute RoutePairJoin(uint64_t size_a, uint64_t size_b,
                            uint64_t max_work) {
  if (size_a == 0 || size_b == 0) return PairJoinRoute::kEmpty;
  if (std::min(size_a, size_b) > kMergeSweepLimit &&
      size_a + size_b > max_work) {
    return PairJoinRoute::kDeclined;
  }
  return PairJoinRoute::kCount;
}

std::optional<SlotCountTable> SlotCountTable::Build(
    std::span<const rdf::Triple> run, rdf::TriplePos pos) {
  SlotCountTable table;
  if (run.empty()) return table;
  TermId lo = rdf::GetPos(run[0], pos);
  TermId hi = lo;
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

std::optional<double> CardinalityEstimator::ExactPairJoinCount(
    const sparql::SelectQuery& query, size_t pattern_a, size_t pattern_b,
    uint64_t max_work) const {
  if (pattern_a >= query.patterns.size() || pattern_b >= query.patterns.size())
    return std::nullopt;
  std::optional<PairJoinKey> key = ResolvePairJoin(
      query.patterns[pattern_a], query.patterns[pattern_b], dict_);
  if (!key.has_value()) return std::nullopt;
  return CountPairJoin(*key, max_work);
}

std::optional<double> CardinalityEstimator::CountPairJoin(
    const PairJoinKey& key, uint64_t max_work) const {
  if (key.absent_constant) return 0.0;

  // The whole result is a deterministic function of the resolved patterns
  // and join positions, so it can be memoized across candidate bindings.
  // Only the default work budget is cached: the budget changes which
  // inputs are declined, so differently-budgeted calls must not alias.
  const bool cacheable =
      cache_ != nullptr && max_work == kDefaultPairJoinMaxWork;
  const auto pos_key_a = static_cast<uint8_t>(key.pos_a);
  const auto pos_key_b = static_cast<uint8_t>(key.pos_b);
  if (cacheable) {
    if (auto hit = cache_->LookupPairJoin(key.ids, pos_key_a, pos_key_b)) {
      return *hit;
    }
  }
  auto memoize = [&](std::optional<double> result) {
    if (cacheable) {
      cache_->InsertPairJoin(key.ids, pos_key_a, pos_key_b, result);
    }
    return result;
  };

  const rdf::Triple a = key.side_a();
  const rdf::Triple b = key.side_b();
  const uint64_t size_a = CachedCount(a.s, a.p, a.o);
  const uint64_t size_b = CachedCount(b.s, b.p, b.o);
  switch (RoutePairJoin(size_a, size_b, max_work)) {
    case PairJoinRoute::kEmpty:
      return memoize(0.0);
    case PairJoinRoute::kDeclined:
      return memoize(std::nullopt);
    case PairJoinRoute::kCount:
      break;
  }

  // Iterate the smaller side.
  const bool a_smaller = size_a <= size_b;
  const rdf::Triple& small = a_smaller ? a : b;
  const rdf::Triple& big = a_smaller ? b : a;
  const rdf::TriplePos small_pos = a_smaller ? key.pos_a : key.pos_b;
  const rdf::TriplePos big_pos = a_smaller ? key.pos_b : key.pos_a;
  if (std::min(size_a, size_b) <= kMergeSweepLimit) {
    return memoize(static_cast<double>(
        MergeSweepCount(store_, small, small_pos, big, big_pos)));
  }

  // Hash-count pass: value -> multiplicity from the small side, then sum
  // the big side's keys' multiplicities — through a dense table when the
  // small side's keys cluster, else a hash map.
  const std::span<const rdf::Triple> small_run = store_.Range(
      store_.ChooseIndex(small.s, small.p, small.o), small.s, small.p,
      small.o);
  const std::span<const rdf::Triple> big_run =
      store_.Range(store_.ChooseIndex(big.s, big.p, big.o), big.s, big.p,
                   big.o);
  uint64_t total = 0;
  if (const std::optional<SlotCountTable> table =
          SlotCountTable::Build(small_run, small_pos)) {
    for (const rdf::Triple& t : big_run) {
      total += table->Count(rdf::GetPos(t, big_pos));
    }
    return memoize(static_cast<double>(total));
  }
  std::unordered_map<rdf::TermId, uint64_t> counts;
  counts.reserve(small_run.size() * 2);
  for (const rdf::Triple& t : small_run) ++counts[rdf::GetPos(t, small_pos)];
  for (const rdf::Triple& t : big_run) {
    auto it = counts.find(rdf::GetPos(t, big_pos));
    if (it != counts.end()) total += it->second;
  }
  return memoize(static_cast<double>(total));
}

}  // namespace rdfparams::opt
