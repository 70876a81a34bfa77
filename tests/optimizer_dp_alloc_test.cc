// Allocation regression guard for the join-ordering DP. Classification
// solves one DP per distinct cardinality signature, thousands per call, so
// a warm JoinOrderSolver must not allocate while it enumerates: its
// subset table, distinct arrays and tie-break buffers are kept between
// solves, and the only allocations of a solve-and-build are the winner's
// plan nodes (with their join-variable lists) and its fingerprint string.
// Counted with a global operator new, like rdf_dictionary_alloc_test.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <new>
#include <string>

#include "optimizer/join_graph.h"
#include "optimizer/optimizer.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"

namespace {
std::atomic<uint64_t> g_news{0};
}  // namespace

void* operator new(size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }

namespace rdfparams::opt {
namespace {

using sparql::Slot;
using sparql::TriplePattern;

uint64_t AllocsDuring(const std::function<void()>& fn) {
  uint64_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

class DpAllocTest : public ::testing::Test {
 protected:
  void SetUp() override {
    for (int i = 0; i < 64; ++i) {
      ids_.push_back(dict_.InternIri("http://t/e" + std::to_string(i)));
    }
    // Predicates e0..e3 with 40 / 25 / 12 / 6 triples over subjects and
    // objects e10..e29: four distinct leaf sizes, so no two costs tie.
    const int sizes[4] = {40, 25, 12, 6};
    for (int p = 0; p < 4; ++p) {
      for (int k = 0; k < sizes[p]; ++k) {
        store_.Add(ids_[10 + (k * 7 + p) % 20], ids_[p],
                   ids_[10 + (k * 3 + 2 * p) % 20]);
      }
    }
    store_.Finalize();
  }

  Slot C(int i) const {
    return Slot::Const(rdf::Term::Iri("http://t/e" + std::to_string(i)));
  }

  /// A 4-pattern chain ?a -e0- ?b -e1- ?c -e2- ?d -e3- ?e.
  sparql::SelectQuery Chain(int first_predicate) const {
    sparql::SelectQuery q;
    const char* vars[5] = {"a", "b", "c", "d", "e"};
    for (int i = 0; i < 4; ++i) {
      q.patterns.emplace_back(Slot::Var(vars[i]), C(first_predicate + i),
                              Slot::Var(vars[i + 1]));
    }
    return q;
  }

  /// Solves `q`'s ready signature twice on one solver and checks the
  /// second solve, the fingerprint and the plan build.
  void ExpectOnlyWinnerAllocates(const sparql::SelectQuery& q) {
    const JoinGraph graph(q, {}, dict_);
    const CardinalityEstimator est(store_, dict_);
    const CardinalitySignature sig = graph.GroundSignature(est);
    JoinOrderSolver solver(graph, OptimizeOptions{});
    ASSERT_TRUE(solver.Solve(sig).ok());  // sizes the tables

    uint64_t n = AllocsDuring([&] { ASSERT_TRUE(solver.Solve(sig).ok()); });
    EXPECT_EQ(n, 0u) << "a warm solve allocated " << n << " times";

    std::string fingerprint;
    n = AllocsDuring([&] { fingerprint = solver.Fingerprint(); });
    ASSERT_GT(fingerprint.size(), 15u);  // past the small-string buffer
    EXPECT_EQ(n, 1u) << "the fingerprint took " << n << " allocations";

    OptimizedPlan plan;
    n = AllocsDuring([&] { plan = solver.BuildPlan(); });
    // A deep copy allocates exactly one node per plan node plus one
    // join-variable list per keyed join: the winner's tree and no more.
    const uint64_t tree = AllocsDuring([&] { auto copy = plan.root->Clone(); });
    EXPECT_EQ(tree, 7u + plan.root->NumJoins());
    EXPECT_EQ(n, tree + 1) << "building the plan took " << n
                           << " allocations, the tree alone " << tree;
    EXPECT_EQ(plan.fingerprint, fingerprint);
  }

  rdf::Dictionary dict_;
  rdf::TripleStore store_;
  std::vector<rdf::TermId> ids_;
};

TEST_F(DpAllocTest, WarmSolveAllocatesOnlyTheWinner) {
  ExpectOnlyWinnerAllocates(Chain(0));
}

TEST_F(DpAllocTest, CostTiesReuseTheTieBreakBuffers) {
  // Predicates e4..e7 match nothing: every subplan costs 0, so every split
  // ties and the DP compares fingerprints throughout.
  ExpectOnlyWinnerAllocates(Chain(4));
}

}  // namespace
}  // namespace rdfparams::opt
