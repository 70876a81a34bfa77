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

  TermId s = kWildcardId, p = kWildcardId, o = kWildcardId;
  bool bs = false, bp = false, bo = false;
  bool s_present = ResolveSlot(tp.s, dict_, &s, &bs);
  bool p_present = ResolveSlot(tp.p, dict_, &p, &bp);
  bool o_present = ResolveSlot(tp.o, dict_, &o, &bo);

  RelationInfo info;
  // A constant that is absent from the dictionary matches nothing.
  if (!s_present || !p_present || !o_present) {
    info.cardinality = 0;
    for (const std::string& v : tp.Variables()) info.var_distinct[v] = 0;
    return info;
  }

  // Exact match count through the covering index (memoized).
  double card = static_cast<double>(CachedCount(s, p, o));

  // Repeated variable inside one pattern (e.g. ?x :p ?x): the index range
  // over-counts; apply an equality selectivity between the two positions.
  bool s_eq_o = tp.s.is_var() && tp.o.is_var() && tp.s.name == tp.o.name;
  bool s_eq_p = tp.s.is_var() && tp.p.is_var() && tp.s.name == tp.p.name;
  bool p_eq_o = tp.p.is_var() && tp.o.is_var() && tp.p.name == tp.o.name;

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

  info.cardinality = card;
  if (tp.s.is_var()) {
    info.var_distinct[tp.s.name] =
        std::min(card, position_distinct(rdf::TriplePos::kS));
  }
  if (tp.p.is_var()) {
    info.var_distinct[tp.p.name] =
        std::min(card, position_distinct(rdf::TriplePos::kP));
  }
  if (tp.o.is_var()) {
    info.var_distinct[tp.o.name] =
        std::min(card, position_distinct(rdf::TriplePos::kO));
  }

  // Fold in constant-rhs filters on variables this pattern produces.
  for (const sparql::FilterCondition& f : query.filters) {
    if (!f.rhs.is_const()) continue;
    auto it = info.var_distinct.find(f.lhs_var);
    if (it == info.var_distinct.end()) continue;
    double sel = FilterSelectivity(f.op, it->second);
    info.cardinality *= sel;
    for (auto& [var, d] : info.var_distinct) {
      d = std::max(1.0, std::min(d, info.cardinality));
      (void)var;
    }
  }
  return info;
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

std::optional<double> CardinalityEstimator::ExactPairJoinCount(
    const sparql::SelectQuery& query, size_t pattern_a, size_t pattern_b,
    uint64_t max_work) const {
  if (pattern_a >= query.patterns.size() || pattern_b >= query.patterns.size())
    return std::nullopt;
  std::optional<PairJoinKey> key = ResolvePairJoin(
      query.patterns[pattern_a], query.patterns[pattern_b], dict_);
  if (!key.has_value()) return std::nullopt;
  if (key->absent_constant) return 0.0;

  // The whole result is a deterministic function of the resolved patterns
  // and join positions, so it can be memoized across candidate bindings.
  // Only the default work budget is cached: the budget changes which
  // inputs are declined, so differently-budgeted calls must not alias.
  const bool cacheable =
      cache_ != nullptr && max_work == kDefaultPairJoinMaxWork;
  const auto pos_key_a = static_cast<uint8_t>(key->pos_a);
  const auto pos_key_b = static_cast<uint8_t>(key->pos_b);
  if (cacheable) {
    if (auto hit = cache_->LookupPairJoin(key->ids, pos_key_a, pos_key_b)) {
      return *hit;
    }
  }
  auto memoize = [&](std::optional<double> result) {
    if (cacheable) {
      cache_->InsertPairJoin(key->ids, pos_key_a, pos_key_b, result);
    }
    return result;
  };

  const rdf::Triple a = key->side_a();
  const rdf::Triple b = key->side_b();
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
  const rdf::TriplePos small_pos = a_smaller ? key->pos_a : key->pos_b;
  const rdf::TriplePos big_pos = a_smaller ? key->pos_b : key->pos_a;
  if (std::min(size_a, size_b) <= kMergeSweepLimit) {
    return memoize(static_cast<double>(
        MergeSweepCount(store_, small, small_pos, big, big_pos)));
  }

  // Hash-count pass: value -> multiplicity from the small side, then sum
  // products over the big side.
  std::unordered_map<rdf::TermId, uint64_t> counts;
  counts.reserve(std::min(size_a, size_b) * 2);
  {
    auto range = store_.Range(store_.ChooseIndex(small.s, small.p, small.o),
                              small.s, small.p, small.o);
    for (const rdf::Triple& t : range) {
      ++counts[rdf::GetPos(t, small_pos)];
    }
  }
  double total = 0;
  {
    auto range = store_.Range(store_.ChooseIndex(big.s, big.p, big.o), big.s,
                              big.p, big.o);
    for (const rdf::Triple& t : range) {
      auto it = counts.find(rdf::GetPos(t, big_pos));
      if (it != counts.end()) total += static_cast<double>(it->second);
    }
  }
  return memoize(total);
}

std::vector<std::string> CardinalityEstimator::SharedVars(
    const RelationInfo& a, const RelationInfo& b) {
  std::vector<std::string> shared;
  for (const auto& [var, d] : a.var_distinct) {
    (void)d;
    if (b.var_distinct.count(var) > 0) shared.push_back(var);
  }
  return shared;  // std::map iteration is already sorted by name
}

RelationInfo CardinalityEstimator::EstimateJoin(const RelationInfo& a,
                                                const RelationInfo& b) {
  RelationInfo out;
  std::vector<std::string> shared = SharedVars(a, b);
  double selectivity = 1.0;
  for (const std::string& v : shared) {
    double da = std::max(a.var_distinct.at(v), 1.0);
    double db = std::max(b.var_distinct.at(v), 1.0);
    selectivity /= std::max(da, db);
  }
  out.cardinality = a.cardinality * b.cardinality * selectivity;

  // Propagate distinct counts: shared vars keep the smaller side
  // (containment assumption); exclusive vars carry over. All are capped by
  // the output cardinality.
  for (const auto& [var, da] : a.var_distinct) {
    double d = da;
    auto it = b.var_distinct.find(var);
    if (it != b.var_distinct.end()) d = std::min(d, it->second);
    out.var_distinct[var] = std::max(0.0, std::min(d, out.cardinality));
  }
  for (const auto& [var, db] : b.var_distinct) {
    if (out.var_distinct.count(var) == 0) {
      out.var_distinct[var] = std::max(0.0, std::min(db, out.cardinality));
    }
  }
  return out;
}

}  // namespace rdfparams::opt
