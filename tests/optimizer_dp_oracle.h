// The string-keyed join-ordering DP that opt::Optimize ran before the
// flat-input JoinOrderSolver, kept verbatim as the differential oracle:
// one RelationInfo (std::map of variable names) per subplan, joined through
// the map-based distinct-value formula (EstimateJoin), the exact pair-join
// count fetched per pattern pair, and a cloned plan tree per improving
// split. tests/optimizer_dp_differential_test.cc checks the production
// optimizer against it bit for bit.
#ifndef RDFPARAMS_TESTS_OPTIMIZER_DP_ORACLE_H_
#define RDFPARAMS_TESTS_OPTIMIZER_DP_ORACLE_H_

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan.h"

namespace rdfparams::opt::oracle {

/// Shared variables of two infos (ascending by name).
inline std::vector<std::string> SharedVars(const RelationInfo& a,
                                          const RelationInfo& b) {
  std::vector<std::string> shared;
  for (const auto& [var, d] : a.var_distinct) {
    (void)d;
    if (b.var_distinct.count(var) > 0) shared.push_back(var);
  }
  return shared;  // std::map iteration is already sorted by name
}

/// Combines two relation infos through an equi-join on their shared
/// variables (cross product when none are shared): the distinct-value
/// formula with the containment assumption.
inline RelationInfo EstimateJoin(const RelationInfo& a, const RelationInfo& b) {
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

namespace {

using sparql::SelectQuery;
using sparql::TriplePattern;

/// Picks the index whose sort prefix covers the bound slots of a pattern.
rdf::IndexOrder ChooseScanIndex(const TriplePattern& tp) {
  bool bs = tp.s.is_const();
  bool bp = tp.p.is_const();
  bool bo = tp.o.is_const();
  if (bs && bp) return rdf::IndexOrder::kSPO;
  if (bp && bo) return rdf::IndexOrder::kPOS;
  if (bo && bs) return rdf::IndexOrder::kOSP;
  if (bs) return rdf::IndexOrder::kSPO;
  if (bp) return rdf::IndexOrder::kPOS;
  if (bo) return rdf::IndexOrder::kOSP;
  return rdf::IndexOrder::kSPO;
}

/// A candidate subplan during enumeration.
struct Candidate {
  std::unique_ptr<PlanNode> plan;
  RelationInfo info;
  double cout = 0;
};

/// Smallest pattern index in a set (for deterministic tie-breaking).
int LowestBit(uint64_t mask) {
  return mask == 0 ? 64 : __builtin_ctzll(mask);
}

/// Canonical join: left (build) side is the smaller estimated input;
/// deterministic tie-break on the lowest covered pattern index.
std::unique_ptr<PlanNode> MakeCanonicalJoin(Candidate* a, Candidate* b,
                                            std::vector<std::string> vars) {
  bool a_left;
  if (a->info.cardinality != b->info.cardinality) {
    a_left = a->info.cardinality < b->info.cardinality;
  } else {
    a_left = LowestBit(a->plan->pattern_set) < LowestBit(b->plan->pattern_set);
  }
  auto left = a_left ? std::move(a->plan) : std::move(b->plan);
  auto right = a_left ? std::move(b->plan) : std::move(a->plan);
  return PlanNode::MakeJoin(std::move(left), std::move(right),
                            std::move(vars));
}

class DpOptimizer {
 public:
  DpOptimizer(const SelectQuery& query, const CardinalityEstimator& est,
              const OptimizeOptions& options)
      : query_(query), est_(est), options_(options) {}

  Result<OptimizedPlan> Run() {
    size_t n = query_.patterns.size();
    if (n == 0) return Status::InvalidArgument("query has no patterns");
    if (n > 63) return Status::Unsupported("more than 63 patterns");

    RDFPARAMS_RETURN_NOT_OK(PrepareLeaves());
    if (n == 1) return Finish(std::move(leaves_[0]));
    if (n > options_.dp_max_patterns) return RunGreedy();
    return RunDp();
  }

  Result<OptimizedPlan> RunGreedyPublic() {
    size_t n = query_.patterns.size();
    if (n == 0) return Status::InvalidArgument("query has no patterns");
    RDFPARAMS_RETURN_NOT_OK(PrepareLeaves());
    if (n == 1) return Finish(std::move(leaves_[0]));
    return RunGreedy();
  }

 private:
  Status PrepareLeaves() {
    size_t n = query_.patterns.size();
    leaves_.resize(n);
    for (size_t i = 0; i < n; ++i) {
      RDFPARAMS_ASSIGN_OR_RETURN(RelationInfo info,
                                 est_.EstimatePattern(query_, i));
      Candidate c;
      c.plan = PlanNode::MakeScan(i, ChooseScanIndex(query_.patterns[i]));
      c.plan->est_cardinality = info.cardinality;
      c.plan->est_cout = 0;  // scans are free under C_out
      c.info = std::move(info);
      c.cout = 0;
      leaves_[i] = std::move(c);
    }
    return Status::OK();
  }

  /// Join estimate, with the exact pairwise count overriding the formula
  /// when both inputs are single scans (cached per pattern pair).
  RelationInfo JoinInfo(const Candidate& a, const Candidate& b) {
    RelationInfo joined = EstimateJoin(a.info, b.info);
    if (a.plan->is_scan() && b.plan->is_scan()) {
      size_t pi = a.plan->pattern_index;
      size_t pj = b.plan->pattern_index;
      auto key = std::make_pair(std::min(pi, pj), std::max(pi, pj));
      auto it = exact_cache_.find(key);
      if (it == exact_cache_.end()) {
        it = exact_cache_
                 .emplace(key, est_.ExactPairJoinCount(query_, pi, pj))
                 .first;
      }
      if (it->second.has_value()) {
        joined.cardinality = *it->second;
        for (auto& [var, d] : joined.var_distinct) {
          d = std::min(d, joined.cardinality);
          (void)var;
        }
      }
    }
    return joined;
  }

  /// Builds the join of two candidates, computing C_out.
  Candidate JoinCandidates(Candidate a, Candidate b) {
    std::vector<std::string> vars =
        SharedVars(a.info, b.info);
    RelationInfo joined = JoinInfo(a, b);
    Candidate out;
    out.cout = joined.cardinality + a.cout + b.cout;
    out.info = std::move(joined);
    out.plan = MakeCanonicalJoin(&a, &b, std::move(vars));
    out.plan->est_cardinality = out.info.cardinality;
    out.plan->est_cout = out.cout;
    out.plan->partition_hint =
        HashJoinPartitionHint(out.plan->left->est_cardinality);
    out.plan->merge_join_hint = MergeJoinHint(*out.plan);
    return out;
  }

  bool Connected(const RelationInfo& a, const RelationInfo& b) const {
    return !SharedVars(a, b).empty();
  }

  Result<OptimizedPlan> RunDp() {
    size_t n = query_.patterns.size();
    uint64_t full = (n == 64) ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
    // best_[S] = optimal candidate covering pattern set S.
    best_.clear();
    for (size_t i = 0; i < n; ++i) {
      best_[uint64_t{1} << i] = std::move(leaves_[i]);
    }
    // Enumerate subsets in increasing size via counting; uint64 subset trick.
    std::vector<uint64_t> by_size;
    for (uint64_t s = 1; s <= full; ++s) {
      if (__builtin_popcountll(s) >= 2) by_size.push_back(s);
    }
    std::sort(by_size.begin(), by_size.end(), [](uint64_t a, uint64_t b) {
      int pa = __builtin_popcountll(a), pb = __builtin_popcountll(b);
      return pa != pb ? pa < pb : a < b;
    });

    for (uint64_t s : by_size) {
      Candidate* best = nullptr;
      // Try connected splits first.
      for (int allow_cross = 0; allow_cross < 2; ++allow_cross) {
        if (allow_cross && (!options_.allow_cross_products ||
                            best_.count(s) != 0)) {
          break;
        }
        for (uint64_t sub = (s - 1) & s; sub != 0; sub = (sub - 1) & s) {
          uint64_t other = s ^ sub;
          if (sub > other) continue;  // unordered split: visit once
          auto it1 = best_.find(sub);
          auto it2 = best_.find(other);
          if (it1 == best_.end() || it2 == best_.end()) continue;
          bool connected = Connected(it1->second.info, it2->second.info);
          if (!connected && allow_cross == 0) continue;
          if (connected && allow_cross == 1) continue;  // already tried
          // Cheap pre-check before materializing the plan tree.
          RelationInfo info = JoinInfo(it1->second, it2->second);
          double cout = info.cardinality + it1->second.cout + it2->second.cout;
          auto cur = best_.find(s);
          if (cur != best_.end() && cout > cur->second.cout) continue;
          Candidate joined = JoinCandidates(CloneCandidate(it1->second),
                                            CloneCandidate(it2->second));
          cur = best_.find(s);  // JoinCandidates does not touch best_
          bool better =
              cur == best_.end() || joined.cout < cur->second.cout ||
              (joined.cout == cur->second.cout &&
               joined.plan->Fingerprint() < cur->second.plan->Fingerprint());
          if (better) {
            best_[s] = std::move(joined);
          }
        }
      }
      (void)best;
    }
    auto it = best_.find(full);
    if (it == best_.end()) {
      return Status::Internal(
          "DP found no complete plan (disconnected graph with cross "
          "products disabled?)");
    }
    return Finish(std::move(it->second));
  }

  static Candidate CloneCandidate(const Candidate& c) {
    Candidate out;
    out.plan = c.plan->Clone();
    out.info = c.info;
    out.cout = c.cout;
    return out;
  }

  Result<OptimizedPlan> RunGreedy() {
    // GOO: repeatedly merge the pair with the smallest resulting C_out
    // increment (join output cardinality), preferring connected pairs.
    std::vector<Candidate> parts = std::move(leaves_);
    while (parts.size() > 1) {
      double best_card = std::numeric_limits<double>::infinity();
      size_t bi = 0, bj = 1;
      bool best_connected = false;
      for (size_t i = 0; i < parts.size(); ++i) {
        for (size_t j = i + 1; j < parts.size(); ++j) {
          bool conn = Connected(parts[i].info, parts[j].info);
          if (!conn && (best_connected || !options_.allow_cross_products)) {
            continue;
          }
          RelationInfo joined = JoinInfo(parts[i], parts[j]);
          bool better = (conn && !best_connected) ||
                        (conn == best_connected &&
                         joined.cardinality < best_card);
          if (better) {
            best_card = joined.cardinality;
            bi = i;
            bj = j;
            best_connected = conn;
          }
        }
      }
      if (!best_connected && !options_.allow_cross_products) {
        return Status::Internal("disconnected query graph");
      }
      Candidate joined =
          JoinCandidates(std::move(parts[bi]), std::move(parts[bj]));
      parts.erase(parts.begin() + static_cast<long>(bj));
      parts[bi] = std::move(joined);
    }
    return Finish(std::move(parts[0]));
  }

  Result<OptimizedPlan> Finish(Candidate c) {
    OptimizedPlan out;
    out.est_cout = c.cout;
    out.est_cardinality = c.info.cardinality;
    out.fingerprint = c.plan->Fingerprint();
    out.root = std::move(c.plan);
    return out;
  }

  const SelectQuery& query_;
  const CardinalityEstimator& est_;
  const OptimizeOptions& options_;
  std::vector<Candidate> leaves_;
  std::unordered_map<uint64_t, Candidate> best_;
  std::map<std::pair<size_t, size_t>, std::optional<double>> exact_cache_;
};

}  // namespace

inline Result<OptimizedPlan> OracleOptimize(const SelectQuery& query,
                               const rdf::TripleStore& store,
                               const rdf::Dictionary& dict,
                               const OptimizeOptions& options = {}) {
  if (!query.IsGround()) {
    return Status::InvalidArgument(
        "query still contains unbound %parameters; bind the template first");
  }
  CardinalityEstimator est(store, dict, options.cardinality_cache);
  DpOptimizer dp(query, est, options);
  return dp.Run();
}

inline Result<OptimizedPlan> OracleOptimizeGreedy(const SelectQuery& query,
                                     const rdf::TripleStore& store,
                                     const rdf::Dictionary& dict) {
  if (!query.IsGround()) {
    return Status::InvalidArgument(
        "query still contains unbound %parameters; bind the template first");
  }
  CardinalityEstimator est(store, dict);
  OptimizeOptions options;
  DpOptimizer dp(query, est, options);
  return dp.RunGreedyPublic();
}

}  // namespace rdfparams::opt::oracle

#endif  // RDFPARAMS_TESTS_OPTIMIZER_DP_ORACLE_H_
