// Join-order optimization minimizing the paper's C_out cost function:
//
//   C_out(T) = 0                                   if T is a scan
//   C_out(T) = |T| + C_out(T1) + C_out(T2)         if T = T1 JOIN T2
//
// Exact dynamic programming over pattern subsets (DPsub with connectivity)
// up to `dp_max_patterns`; greedy operator ordering (GOO) beyond that.
// Plans are canonicalized (build side = smaller estimated input) so that
// equal join trees yield equal fingerprints across parameter bindings.
//
// Optimize() is "compile, estimate, solve": the query compiles to a
// JoinGraph, the estimator fills its CardinalitySignature, and a
// JoinOrderSolver runs the DP on that flat input. Classification calls the
// last step directly, once per distinct signature of a compiled template.
#ifndef RDFPARAMS_OPTIMIZER_OPTIMIZER_H_
#define RDFPARAMS_OPTIMIZER_OPTIMIZER_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "optimizer/cardinality.h"
#include "optimizer/join_graph.h"
#include "optimizer/plan.h"
#include "sparql/algebra.h"
#include "util/status.h"

namespace rdfparams::opt {

struct OptimizeOptions {
  /// Above this pattern count, fall back from exact DP to greedy ordering.
  size_t dp_max_patterns = 13;
  /// Permit cross products when the query graph is disconnected.
  bool allow_cross_products = true;
  /// Optional shared cardinality cache (not owned; may be used from many
  /// threads concurrently). Hits never change the chosen plan, only the
  /// time it takes to find it.
  CardinalityCache* cardinality_cache = nullptr;
};

/// Optimizes a ground query (no unbound %parameters). Returns the
/// C_out-optimal join tree with estimates annotated on every node.
[[nodiscard]] Result<OptimizedPlan> Optimize(const sparql::SelectQuery& query,
                               const rdf::TripleStore& store,
                               const rdf::Dictionary& dict,
                               const OptimizeOptions& options = {});

/// Baseline for tests and ablations: greedy operator ordering only.
[[nodiscard]] Result<OptimizedPlan> OptimizeGreedy(const sparql::SelectQuery& query,
                                     const rdf::TripleStore& store,
                                     const rdf::Dictionary& dict);

/// The join-ordering DP (and its greedy fallback) over one compiled
/// JoinGraph, run on cardinality signatures. Subplans live in a
/// subset-indexed table with per-variable distinct arrays; the enumeration
/// computes costs only, compares fingerprints only when two costs tie, and
/// the winner's plan tree is built once from back-pointers.
///
/// One solver per thread: it keeps its tables between Solve calls, so a
/// warm solver allocates nothing per solve. The graph must outlive it.
class JoinOrderSolver {
 public:
  JoinOrderSolver(const JoinGraph& graph, const OptimizeOptions& options);

  /// Finds the C_out-optimal plan for `sig` (a full signature of the
  /// graph): the DP up to options.dp_max_patterns patterns, greedy above.
  [[nodiscard]] Status Solve(const CardinalitySignature& sig);
  /// Greedy operator ordering whatever the pattern count.
  [[nodiscard]] Status SolveGreedy(const CardinalitySignature& sig);

  /// The last successful solve's winner: its C_out and fingerprint (all
  /// that classification keeps), or the whole annotated plan.
  double est_cout() const { return rels_[root_].cout; }
  std::string Fingerprint() const;
  OptimizedPlan BuildPlan() const;

 private:
  static constexpr uint64_t kLeaf = ~uint64_t{0};

  /// One subplan: a leaf, or the join of entries a and b (in enumeration
  /// order; a_left says which is the canonical build side).
  struct Rel {
    double card = 0;
    double cout = 0;
    uint64_t patterns = 0;
    uint64_t a = kLeaf;
    uint64_t b = kLeaf;
    bool a_left = false;
    bool present = false;
  };

  Status CheckShape() const;
  /// Leaf i of `sig` into entry e.
  void LoadLeaf(const CardinalitySignature& sig, size_t i, uint64_t e);
  Status RunDp(const CardinalitySignature& sig);
  Status RunGreedy(const CardinalitySignature& sig);
  /// Join estimate of entries a and b: the distinct-value formula
  /// (`*formula` receives it), overridden by the exact pair-join count
  /// when both are leaves and the count exists (`*has_exact`).
  double JoinCard(const CardinalitySignature& sig, uint64_t a, uint64_t b,
                  double* formula, bool* has_exact) const;
  /// Distinct-value estimates of entry e from its operands.
  void FinishDistincts(const CardinalitySignature& sig, uint64_t e);
  bool CanonicalALeft(uint64_t a, uint64_t b) const;
  /// Does joining a and b into e (oriented by a_left) fingerprint below
  /// e's current entry?
  bool FingerprintLess(uint64_t a, uint64_t b, bool a_left, uint64_t e);
  void AppendFingerprint(uint64_t e, std::string* out) const;
  size_t FingerprintLength(uint64_t e) const;
  std::unique_ptr<PlanNode> BuildNode(uint64_t e) const;
  double& Dist(uint64_t e, size_t v) { return dist_[e * num_vars_ + v]; }
  double Dist(uint64_t e, size_t v) const { return dist_[e * num_vars_ + v]; }

  const JoinGraph& graph_;
  OptimizeOptions options_;
  size_t num_vars_ = 0;
  /// DP: entries indexed by pattern subset; greedy: leaves then merges.
  std::vector<Rel> rels_;
  std::vector<VarSet> vars_;
  std::vector<double> dist_;  ///< entry-major, num_vars_ per entry
  /// DP subsets with two or more patterns, by (size, mask).
  std::vector<uint64_t> dp_order_;
  bool dp_ready_ = false;
  std::vector<uint64_t> parts_;  ///< greedy: current partial plans
  std::string fp_candidate_, fp_current_;
  uint64_t root_ = 0;
};

}  // namespace rdfparams::opt

#endif  // RDFPARAMS_OPTIMIZER_OPTIMIZER_H_
