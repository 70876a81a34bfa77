#include "optimizer/optimizer.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <limits>
#include <utility>

namespace rdfparams::opt {

namespace {

/// Smallest pattern index in a set (for deterministic tie-breaking).
int LowestBit(uint64_t mask) {
  return mask == 0 ? 64 : __builtin_ctzll(mask);
}

double SignatureDouble(const CardinalitySignature& sig, size_t slot) {
  return std::bit_cast<double>(sig[slot]);
}

}  // namespace

JoinOrderSolver::JoinOrderSolver(const JoinGraph& graph,
                                 const OptimizeOptions& options)
    : graph_(graph), options_(options), num_vars_(graph.var_names().size()) {}

Status JoinOrderSolver::CheckShape() const {
  const size_t n = graph_.num_patterns();
  if (n == 0) return Status::InvalidArgument("query has no patterns");
  if (n > 63) return Status::Unsupported("more than 63 patterns");
  return Status::OK();
}

Status JoinOrderSolver::Solve(const CardinalitySignature& sig) {
  RDFPARAMS_RETURN_NOT_OK(CheckShape());
  RDFPARAMS_DCHECK(sig.size() == graph_.signature_size());
  const size_t n = graph_.num_patterns();
  if (n == 1 || n > options_.dp_max_patterns) return RunGreedy(sig);
  return RunDp(sig);
}

Status JoinOrderSolver::SolveGreedy(const CardinalitySignature& sig) {
  RDFPARAMS_RETURN_NOT_OK(CheckShape());
  RDFPARAMS_DCHECK(sig.size() == graph_.signature_size());
  return RunGreedy(sig);
}

void JoinOrderSolver::LoadLeaf(const CardinalitySignature& sig, size_t i,
                               uint64_t e) {
  const JoinGraph::Pattern& p = graph_.pattern(i);
  Rel& r = rels_[e];
  r = Rel{};
  r.card = SignatureDouble(sig, p.offset);
  r.patterns = uint64_t{1} << i;
  r.present = true;
  for (size_t k = 0; k < p.var_ids.size(); ++k) {
    Dist(e, p.var_ids[k]) = SignatureDouble(sig, p.offset + 1 + k);
  }
}

double JoinOrderSolver::JoinCard(const CardinalitySignature& sig, uint64_t a,
                                 uint64_t b, double* formula,
                                 bool* has_exact) const {
  // The distinct-value (System R) formula with containment: divide by the
  // larger distinct count of every shared variable, in name order.
  double selectivity = 1.0;
  (vars_[a] & vars_[b]).ForEach([&](size_t v) {
    double da = std::max(Dist(a, v), 1.0);
    double db = std::max(Dist(b, v), 1.0);
    selectivity /= std::max(da, db);
  });
  *formula = rels_[a].card * rels_[b].card * selectivity;
  *has_exact = false;
  // Two single scans: the exact pair-join count overrides the formula.
  if (rels_[a].a == kLeaf && rels_[b].a == kLeaf) {
    const int i = LowestBit(rels_[a].patterns);
    const int j = LowestBit(rels_[b].patterns);
    const uint32_t slot = graph_.pair_offset(static_cast<size_t>(std::min(i, j)),
                                             static_cast<size_t>(std::max(i, j)));
    if (sig[slot] != 0) {
      *has_exact = true;
      return SignatureDouble(sig, slot + 1);
    }
  }
  return *formula;
}

void JoinOrderSolver::FinishDistincts(const CardinalitySignature& sig,
                                      uint64_t e) {
  const uint64_t a = rels_[e].a;
  const uint64_t b = rels_[e].b;
  double formula = 0;
  bool has_exact = false;
  const double card = JoinCard(sig, a, b, &formula, &has_exact);
  // Shared variables keep the smaller side (containment), the others
  // carry over; all are capped by the formula's output cardinality, and
  // by the exact count when it overrode the formula.
  vars_[e].ForEach([&](size_t v) {
    double d;
    if (vars_[a].Test(v)) {
      d = Dist(a, v);
      if (vars_[b].Test(v)) d = std::min(d, Dist(b, v));
    } else {
      d = Dist(b, v);
    }
    d = std::max(0.0, std::min(d, formula));
    if (has_exact) d = std::min(d, card);
    Dist(e, v) = d;
  });
}

bool JoinOrderSolver::CanonicalALeft(uint64_t a, uint64_t b) const {
  // Build side = the smaller estimated input; ties go to the side with the
  // lowest pattern index.
  if (rels_[a].card != rels_[b].card) return rels_[a].card < rels_[b].card;
  return LowestBit(rels_[a].patterns) < LowestBit(rels_[b].patterns);
}

void JoinOrderSolver::AppendFingerprint(uint64_t e, std::string* out) const {
  const Rel& r = rels_[e];
  if (r.a == kLeaf) {
    char digits[4];
    auto [end, ec] =
        std::to_chars(digits, digits + sizeof(digits), LowestBit(r.patterns));
    (void)ec;
    out->push_back('S');
    out->append(digits, end);
    return;
  }
  out->append("J(");
  AppendFingerprint(r.a_left ? r.a : r.b, out);
  out->push_back(',');
  AppendFingerprint(r.a_left ? r.b : r.a, out);
  out->push_back(')');
}

size_t JoinOrderSolver::FingerprintLength(uint64_t e) const {
  const Rel& r = rels_[e];
  if (r.a == kLeaf) return LowestBit(r.patterns) < 10 ? 2 : 3;
  return 4 + FingerprintLength(r.a) + FingerprintLength(r.b);
}

bool JoinOrderSolver::FingerprintLess(uint64_t a, uint64_t b, bool a_left,
                                      uint64_t e) {
  fp_candidate_.assign("J(");
  AppendFingerprint(a_left ? a : b, &fp_candidate_);
  fp_candidate_.push_back(',');
  AppendFingerprint(a_left ? b : a, &fp_candidate_);
  fp_candidate_.push_back(')');
  fp_current_.clear();
  AppendFingerprint(e, &fp_current_);
  return fp_candidate_ < fp_current_;
}

Status JoinOrderSolver::RunDp(const CardinalitySignature& sig) {
  const size_t n = graph_.num_patterns();
  const uint64_t full = (uint64_t{1} << n) - 1;
  if (!dp_ready_) {
    // Template structure, the same for every signature: each subset's
    // variables, and the subsets in increasing size (then mask) order.
    rels_.assign(full + 1, Rel{});
    vars_.assign(full + 1, VarSet{});
    dist_.assign((full + 1) * num_vars_, 0.0);
    for (uint64_t s = 1; s <= full; ++s) {
      vars_[s] = vars_[s & (s - 1)] |
                 graph_.pattern(static_cast<size_t>(LowestBit(s))).vars;
    }
    dp_order_.clear();
    for (size_t k = 2; k <= n; ++k) {
      // Gosper's hack: the masks of popcount k, ascending.
      for (uint64_t s = (uint64_t{1} << k) - 1; s <= full;) {
        dp_order_.push_back(s);
        const uint64_t c = s & (~s + 1);
        const uint64_t r = s + c;
        s = (((r ^ s) >> 2) / c) | r;
      }
    }
    dp_ready_ = true;
  }
  for (size_t i = 0; i < n; ++i) LoadLeaf(sig, i, uint64_t{1} << i);

  for (uint64_t s : dp_order_) {
    Rel& best = rels_[s];
    best.present = false;
    // Connected splits first; cross products only when none exists.
    for (int allow_cross = 0; allow_cross < 2; ++allow_cross) {
      if (allow_cross && (!options_.allow_cross_products || best.present)) {
        break;
      }
      for (uint64_t sub = (s - 1) & s; sub != 0; sub = (sub - 1) & s) {
        const uint64_t other = s ^ sub;
        if (sub > other) continue;  // unordered split: visit once
        if (!rels_[sub].present || !rels_[other].present) continue;
        const bool connected = (vars_[sub] & vars_[other]).Any();
        if (connected == (allow_cross == 1)) continue;
        double formula = 0;
        bool has_exact = false;
        const double card = JoinCard(sig, sub, other, &formula, &has_exact);
        const double cout = card + rels_[sub].cout + rels_[other].cout;
        if (best.present && cout > best.cout) continue;
        const bool a_left = CanonicalALeft(sub, other);
        const bool better =
            !best.present || cout < best.cout ||
            (cout == best.cout && FingerprintLess(sub, other, a_left, s));
        if (!better) continue;
        best.card = card;
        best.cout = cout;
        best.patterns = s;
        best.a = sub;
        best.b = other;
        best.a_left = a_left;
        best.present = true;
      }
    }
    if (best.present) FinishDistincts(sig, s);
  }
  if (!rels_[full].present) {
    return Status::Internal(
        "DP found no complete plan (disconnected graph with cross "
        "products disabled?)");
  }
  root_ = full;
  return Status::OK();
}

Status JoinOrderSolver::RunGreedy(const CardinalitySignature& sig) {
  // GOO: repeatedly merge the pair with the smallest resulting C_out
  // increment (join output cardinality), preferring connected pairs.
  // Entries: the n leaves, then one per merge.
  const size_t n = graph_.num_patterns();
  dp_ready_ = false;
  rels_.resize(std::max(rels_.size(), 2 * n - 1));
  vars_.resize(rels_.size());
  dist_.resize(rels_.size() * num_vars_);
  parts_.clear();
  for (size_t i = 0; i < n; ++i) {
    LoadLeaf(sig, i, i);
    vars_[i] = graph_.pattern(i).vars;
    parts_.push_back(i);
  }
  uint64_t next = n;
  while (parts_.size() > 1) {
    double best_card = std::numeric_limits<double>::infinity();
    size_t bi = 0, bj = 1;
    bool best_connected = false;
    for (size_t i = 0; i < parts_.size(); ++i) {
      for (size_t j = i + 1; j < parts_.size(); ++j) {
        bool conn = (vars_[parts_[i]] & vars_[parts_[j]]).Any();
        if (!conn && (best_connected || !options_.allow_cross_products)) {
          continue;
        }
        double formula = 0;
        bool has_exact = false;
        const double card =
            JoinCard(sig, parts_[i], parts_[j], &formula, &has_exact);
        bool better = (conn && !best_connected) ||
                      (conn == best_connected && card < best_card);
        if (better) {
          best_card = card;
          bi = i;
          bj = j;
          best_connected = conn;
        }
      }
    }
    if (!best_connected && !options_.allow_cross_products) {
      return Status::Internal("disconnected query graph");
    }
    const uint64_t a = parts_[bi];
    const uint64_t b = parts_[bj];
    const uint64_t e = next++;
    double formula = 0;
    bool has_exact = false;
    Rel& r = rels_[e];
    r.card = JoinCard(sig, a, b, &formula, &has_exact);
    r.cout = r.card + rels_[a].cout + rels_[b].cout;
    r.patterns = rels_[a].patterns | rels_[b].patterns;
    r.a = a;
    r.b = b;
    r.a_left = CanonicalALeft(a, b);
    r.present = true;
    vars_[e] = vars_[a] | vars_[b];
    FinishDistincts(sig, e);
    parts_.erase(parts_.begin() + static_cast<long>(bj));
    parts_[bi] = e;
  }
  root_ = parts_[0];
  return Status::OK();
}

std::string JoinOrderSolver::Fingerprint() const {
  std::string out;
  out.reserve(FingerprintLength(root_));
  AppendFingerprint(root_, &out);
  return out;
}

std::unique_ptr<PlanNode> JoinOrderSolver::BuildNode(uint64_t e) const {
  const Rel& r = rels_[e];
  if (r.a == kLeaf) {
    const auto i = static_cast<size_t>(LowestBit(r.patterns));
    auto node = PlanNode::MakeScan(i, graph_.pattern(i).scan_index);
    node->est_cardinality = r.card;
    node->est_cout = 0;  // scans are free under C_out
    return node;
  }
  const VarSet shared = vars_[r.a] & vars_[r.b];
  std::vector<std::string> join_vars;
  join_vars.reserve(shared.Count());
  shared.ForEach([&](size_t v) { join_vars.push_back(graph_.var_names()[v]); });
  auto node = PlanNode::MakeJoin(BuildNode(r.a_left ? r.a : r.b),
                                 BuildNode(r.a_left ? r.b : r.a),
                                 std::move(join_vars));
  node->est_cardinality = r.card;
  node->est_cout = r.cout;
  node->partition_hint = HashJoinPartitionHint(node->left->est_cardinality);
  node->merge_join_hint = MergeJoinHint(*node);
  return node;
}

OptimizedPlan JoinOrderSolver::BuildPlan() const {
  OptimizedPlan out;
  out.root = BuildNode(root_);
  out.est_cout = rels_[root_].cout;
  out.est_cardinality = rels_[root_].card;
  out.fingerprint = Fingerprint();
  return out;
}

namespace {

Result<OptimizedPlan> CompileEstimateSolve(const sparql::SelectQuery& query,
                                           const rdf::TripleStore& store,
                                           const rdf::Dictionary& dict,
                                           const OptimizeOptions& options,
                                           bool greedy) {
  if (!query.IsGround()) {
    return Status::InvalidArgument(
        "query still contains unbound %parameters; bind the template first");
  }
  const JoinGraph graph(query, {}, dict);
  const CardinalityEstimator est(store, dict, options.cardinality_cache);
  const CardinalitySignature sig = graph.GroundSignature(est);
  JoinOrderSolver solver(graph, options);
  RDFPARAMS_RETURN_NOT_OK(greedy ? solver.SolveGreedy(sig) : solver.Solve(sig));
  return solver.BuildPlan();
}

}  // namespace

Result<OptimizedPlan> Optimize(const sparql::SelectQuery& query,
                               const rdf::TripleStore& store,
                               const rdf::Dictionary& dict,
                               const OptimizeOptions& options) {
  return CompileEstimateSolve(query, store, dict, options, /*greedy=*/false);
}

Result<OptimizedPlan> OptimizeGreedy(const sparql::SelectQuery& query,
                                     const rdf::TripleStore& store,
                                     const rdf::Dictionary& dict) {
  return CompileEstimateSolve(query, store, dict, OptimizeOptions{},
                              /*greedy=*/true);
}

}  // namespace rdfparams::opt
