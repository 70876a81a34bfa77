// Differential test of the join-ordering DP: opt::Optimize (compile the
// join graph, estimate its signature, solve the flat DP) against the
// string-keyed DP it replaced, kept verbatim in optimizer_dp_oracle.h. On
// random stores, queries, templates and bindings the two must agree on the
// fingerprint, on est_cout and est_cardinality bit for bit, on every field
// of every plan node, and on the Status of a failed optimization.
//
// The generators aim at the DP's delicate spots: cost ties (empty
// patterns, duplicated patterns with equal cardinalities), cross products
// (disconnected queries, with cross products allowed and forbidden), the
// greedy path (a lowered dp_max_patterns, and queries past the default),
// filters with constant, variable and %parameter right-hand sides,
// constants absent from the data, and variables repeated inside a pattern.
#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/parameter_domain.h"
#include "core/plan_classifier.h"
#include "optimizer/cardinality_cache.h"
#include "optimizer/join_graph.h"
#include "optimizer/optimizer.h"
#include "optimizer_dp_oracle.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "sparql/query_template.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace rdfparams::opt {
namespace {

using sparql::Slot;
using sparql::TriplePattern;

// ---------------------------------------------------------------------------
// Random worlds and queries.
// ---------------------------------------------------------------------------

constexpr uint64_t kSpace = 36;      // terms e0 .. e35
constexpr uint64_t kPredicates = 6;  // e0 .. e5 serve as predicates

std::string Iri(uint64_t i) { return "http://t/e" + std::to_string(i); }

struct World {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::vector<rdf::TermId> ids;
};

/// Skewed predicates (e0 frequent, e5 never used) over a small subject and
/// object space, so counts repeat, runs form and some patterns are empty.
void FillWorld(uint64_t seed, bool all_indexes, World* w) {
  util::Rng rng(seed);
  for (uint64_t i = 0; i < kSpace; ++i) w->ids.push_back(w->dict.InternIri(Iri(i)));
  const uint64_t triples = 200 + rng.Uniform(400);
  for (uint64_t t = 0; t < triples; ++t) {
    const uint64_t p = std::min(rng.Uniform(kPredicates - 1),
                                rng.Uniform(kPredicates - 1));
    w->store.Add(w->ids[kPredicates + rng.Uniform(kSpace - kPredicates)],
                 w->ids[p],
                 w->ids[kPredicates + rng.Uniform(kSpace - kPredicates)]);
  }
  if (all_indexes) w->store.BuildAllIndexes();
  w->store.Finalize();
}

struct QueryShape {
  size_t min_patterns = 1;
  size_t max_patterns = 6;
  size_t num_vars = 5;      ///< variable pool ?v0 .. ?v{n-1}
  size_t num_params = 0;    ///< %parameter pool %q0 .. (templates only)
};

Slot RandomConst(util::Rng* rng, bool predicate) {
  if (rng->Bernoulli(0.04)) {
    return Slot::Const(rdf::Term::Iri("http://t/absent"));
  }
  return Slot::Const(rdf::Term::Iri(
      Iri(predicate ? rng->Uniform(kPredicates)
                    : kPredicates + rng->Uniform(kSpace - kPredicates))));
}

Slot RandomSlot(util::Rng* rng, const QueryShape& shape, bool predicate) {
  const double r = rng->NextDouble();
  if (shape.num_params > 0 && !predicate && r < 0.2) {
    return Slot::Param("q" + std::to_string(rng->Uniform(shape.num_params)));
  }
  if (predicate ? r < 0.15 : r < 0.7) {
    return Slot::Var("v" + std::to_string(rng->Uniform(shape.num_vars)));
  }
  return RandomConst(rng, predicate);
}

sparql::SelectQuery RandomQuery(util::Rng* rng, const QueryShape& shape) {
  sparql::SelectQuery q;
  const size_t n =
      shape.min_patterns +
      rng->Uniform(shape.max_patterns - shape.min_patterns + 1);
  for (size_t i = 0; i < n; ++i) {
    if (i > 0 && rng->Bernoulli(0.12)) {
      // A duplicate: equal cardinalities, so equal-cost splits tie.
      q.patterns.push_back(q.patterns[rng->Uniform(i)]);
      continue;
    }
    TriplePattern tp(RandomSlot(rng, shape, false), RandomSlot(rng, shape, true),
                     RandomSlot(rng, shape, false));
    q.patterns.push_back(std::move(tp));
  }
  const uint64_t filters = rng->Uniform(3);
  for (uint64_t f = 0; f < filters; ++f) {
    sparql::FilterCondition cond;
    cond.lhs_var = "v" + std::to_string(rng->Uniform(shape.num_vars));
    cond.op = static_cast<sparql::CompareOp>(rng->Uniform(6));
    const double r = rng->NextDouble();
    if (r < 0.3) {
      cond.rhs = Slot::Var("v" + std::to_string(rng->Uniform(shape.num_vars)));
    } else if (shape.num_params > 0 && r < 0.5) {
      cond.rhs = Slot::Param("q" + std::to_string(rng->Uniform(shape.num_params)));
    } else {
      cond.rhs = Slot::Const(rdf::Term::Integer(
          static_cast<int64_t>(rng->Uniform(100))));
    }
    q.filters.push_back(std::move(cond));
  }
  return q;
}

// ---------------------------------------------------------------------------
// Comparison.
// ---------------------------------------------------------------------------

uint64_t Bits(double d) { return std::bit_cast<uint64_t>(d); }

void ExpectSameNode(const PlanNode& want, const PlanNode& got,
                    const std::string& path, const std::string& label) {
  const std::string at = label + " at " + path;
  ASSERT_EQ(want.kind, got.kind) << at;
  EXPECT_EQ(want.pattern_index, got.pattern_index) << at;
  EXPECT_EQ(want.index_order, got.index_order) << at;
  EXPECT_EQ(want.join_vars, got.join_vars) << at;
  EXPECT_EQ(Bits(want.est_cardinality), Bits(got.est_cardinality)) << at;
  EXPECT_EQ(Bits(want.est_cout), Bits(got.est_cout)) << at;
  EXPECT_EQ(want.partition_hint, got.partition_hint) << at;
  EXPECT_EQ(want.merge_join_hint, got.merge_join_hint) << at;
  EXPECT_EQ(want.pattern_set, got.pattern_set) << at;
  ASSERT_EQ(want.left == nullptr, got.left == nullptr) << at;
  ASSERT_EQ(want.right == nullptr, got.right == nullptr) << at;
  if (want.left) ExpectSameNode(*want.left, *got.left, path + "L", label);
  if (want.right) ExpectSameNode(*want.right, *got.right, path + "R", label);
}

void ExpectSamePlan(const Result<OptimizedPlan>& want,
                    const Result<OptimizedPlan>& got,
                    const std::string& label) {
  ASSERT_EQ(want.ok(), got.ok())
      << label << ": oracle " << want.status().ToString() << ", got "
      << got.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(want.status().code(), got.status().code()) << label;
    EXPECT_EQ(want.status().message(), got.status().message()) << label;
    return;
  }
  EXPECT_EQ(want->fingerprint, got->fingerprint) << label;
  EXPECT_EQ(Bits(want->est_cout), Bits(got->est_cout)) << label;
  EXPECT_EQ(Bits(want->est_cardinality), Bits(got->est_cardinality)) << label;
  ASSERT_TRUE(want->root && got->root) << label;
  ExpectSameNode(*want->root, *got->root, "root", label);
}

/// Counts what the generated cases exercised, so a generator change that
/// stops reaching a case fails loudly instead of silently.
struct Coverage {
  uint64_t plans = 0;
  uint64_t errors = 0;  ///< failed optimizations (no-cross, disconnected)
  uint64_t zero_cost_multi = 0;  ///< >= 3 patterns, C_out 0: every split ties
  uint64_t cross_products = 0;
  uint64_t greedy = 0;
  uint64_t filtered = 0;
  uint64_t absent = 0;
  uint64_t repeated_var = 0;
};

bool HasCrossProduct(const PlanNode& node) {
  if (node.is_scan()) return false;
  return node.join_vars.empty() || HasCrossProduct(*node.left) ||
         HasCrossProduct(*node.right);
}

void Tally(const sparql::SelectQuery& q, const Result<OptimizedPlan>& plan,
           bool greedy, Coverage* cov) {
  if (!plan.ok()) return;
  ++cov->plans;
  if (q.patterns.size() >= 3 && plan->est_cout == 0) ++cov->zero_cost_multi;
  if (HasCrossProduct(*plan->root)) ++cov->cross_products;
  if (greedy && q.patterns.size() >= 2) ++cov->greedy;
  if (!q.filters.empty()) ++cov->filtered;
  for (const TriplePattern& tp : q.patterns) {
    for (const Slot* s : {&tp.s, &tp.p, &tp.o}) {
      if (s->is_const() && s->term.lexical == "http://t/absent") {
        ++cov->absent;
      }
    }
    const std::vector<std::string> vars = tp.Variables();
    const int slots_with_vars =
        tp.s.is_var() + tp.p.is_var() + tp.o.is_var();
    if (static_cast<size_t>(slots_with_vars) > vars.size()) ++cov->repeated_var;
  }
}

/// Every optimizer entry point on one ground query, against the oracle.
void CheckGroundQuery(const World& w, const sparql::SelectQuery& q,
                      const std::string& label, Coverage* cov) {
  OptimizeOptions dp;
  ExpectSamePlan(oracle::OracleOptimize(q, w.store, w.dict, dp),
                 Optimize(q, w.store, w.dict, dp), label + " dp");
  Tally(q, Optimize(q, w.store, w.dict, dp), false, cov);

  OptimizeOptions no_cross;
  no_cross.allow_cross_products = false;
  auto got_no_cross = Optimize(q, w.store, w.dict, no_cross);
  ExpectSamePlan(oracle::OracleOptimize(q, w.store, w.dict, no_cross),
                 got_no_cross, label + " no-cross");
  if (!got_no_cross.ok()) ++cov->errors;

  OptimizeOptions greedy;
  greedy.dp_max_patterns = 2;
  auto got_greedy = Optimize(q, w.store, w.dict, greedy);
  ExpectSamePlan(oracle::OracleOptimize(q, w.store, w.dict, greedy),
                 got_greedy, label + " greedy");
  Tally(q, got_greedy, true, cov);
  greedy.allow_cross_products = false;
  ExpectSamePlan(oracle::OracleOptimize(q, w.store, w.dict, greedy),
                 Optimize(q, w.store, w.dict, greedy),
                 label + " greedy no-cross");

  ExpectSamePlan(oracle::OracleOptimizeGreedy(q, w.store, w.dict),
                 OptimizeGreedy(q, w.store, w.dict), label + " OptimizeGreedy");

  CardinalityCache cache;
  OptimizeOptions cached;
  cached.cardinality_cache = &cache;
  for (int pass = 0; pass < 2; ++pass) {  // cold, then from the cache
    ExpectSamePlan(oracle::OracleOptimize(q, w.store, w.dict, dp),
                   Optimize(q, w.store, w.dict, cached),
                   label + " cached pass " + std::to_string(pass));
  }
}

TEST(DpDifferentialTest, RandomGroundQueriesMatchTheOracle) {
  Coverage cov;
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    World w;
    FillWorld(seed, seed % 2 == 0, &w);
    util::Rng rng(seed * 7919);
    QueryShape shape;
    shape.num_vars = 3 + seed % 3;
    for (int i = 0; i < 150; ++i) {
      const sparql::SelectQuery q = RandomQuery(&rng, shape);
      CheckGroundQuery(w, q,
                       "seed " + std::to_string(seed) + " #" +
                           std::to_string(i) + " " + q.ToString(),
                       &cov);
      if (HasFatalFailure()) return;
    }
  }
  EXPECT_GT(cov.plans, 500u);
  EXPECT_GT(cov.errors, 0u);  // no-cross on disconnected queries
  EXPECT_GT(cov.zero_cost_multi, 10u);
  EXPECT_GT(cov.cross_products, 10u);
  EXPECT_GT(cov.greedy, 100u);
  EXPECT_GT(cov.filtered, 100u);
  EXPECT_GT(cov.absent, 10u);
  EXPECT_GT(cov.repeated_var, 10u);
}

TEST(DpDifferentialTest, GreedyFallbackPastTheDefaultDpLimit) {
  World w;
  FillWorld(99, false, &w);
  util::Rng rng(4242);
  QueryShape shape;
  shape.min_patterns = 14;
  shape.max_patterns = 18;
  shape.num_vars = 9;
  Coverage cov;
  for (int i = 0; i < 20; ++i) {
    const sparql::SelectQuery q = RandomQuery(&rng, shape);
    const std::string label = "#" + std::to_string(i);
    ExpectSamePlan(oracle::OracleOptimize(q, w.store, w.dict),
                   Optimize(q, w.store, w.dict), label);
    OptimizeOptions no_cross;
    no_cross.allow_cross_products = false;
    ExpectSamePlan(oracle::OracleOptimize(q, w.store, w.dict, no_cross),
                   Optimize(q, w.store, w.dict, no_cross),
                   label + " no-cross");
    Tally(q, Optimize(q, w.store, w.dict), true, &cov);
  }
  EXPECT_GT(cov.greedy, 10u);
}

TEST(DpDifferentialTest, HandBuiltTiesAndEdges) {
  World w;
  FillWorld(5, false, &w);
  auto var = [](const char* n) { return Slot::Var(n); };
  auto c = [](uint64_t i) { return Slot::Const(rdf::Term::Iri(Iri(i))); };
  std::vector<sparql::SelectQuery> cases;
  {  // Four empty patterns (e5 is never a predicate): every cost is 0.
    sparql::SelectQuery q;
    for (const char* v : {"a", "b", "c", "d"}) {
      q.patterns.emplace_back(var("x"), c(5), var(v));
    }
    cases.push_back(q);
  }
  {  // The same pattern three times: equal cardinalities everywhere.
    sparql::SelectQuery q;
    for (int i = 0; i < 3; ++i) q.patterns.emplace_back(var("x"), c(0), var("y"));
    cases.push_back(q);
  }
  {  // Two disconnected components: cross products only at the top.
    sparql::SelectQuery q;
    q.patterns.emplace_back(var("a"), c(0), var("b"));
    q.patterns.emplace_back(var("b"), c(1), var("c"));
    q.patterns.emplace_back(var("x"), c(2), var("y"));
    q.patterns.emplace_back(var("y"), c(3), var("z"));
    cases.push_back(q);
  }
  {  // Repeated variables inside patterns, and a shared one twice.
    sparql::SelectQuery q;
    q.patterns.emplace_back(var("x"), c(0), var("x"));
    q.patterns.emplace_back(var("x"), var("p"), var("p"));
    q.patterns.emplace_back(var("p"), var("p"), var("p"));
    cases.push_back(q);
  }
  {  // Absent constant next to present ones, with filters on both sides.
    sparql::SelectQuery q;
    q.patterns.emplace_back(var("x"), Slot::Const(rdf::Term::Iri("http://t/no")),
                            var("y"));
    q.patterns.emplace_back(var("y"), c(1), var("z"));
    q.patterns.emplace_back(var("z"), c(0), c(7));
    sparql::FilterCondition f;
    f.lhs_var = "z";
    f.op = sparql::CompareOp::kLt;
    f.rhs = Slot::Const(rdf::Term::Integer(3));
    q.filters.push_back(f);
    f.lhs_var = "y";
    f.op = sparql::CompareOp::kEq;
    q.filters.push_back(f);
    cases.push_back(q);
  }
  {  // One pattern.
    sparql::SelectQuery q;
    q.patterns.emplace_back(var("x"), c(2), var("y"));
    cases.push_back(q);
  }
  cases.emplace_back();  // no patterns: the same error from both
  Coverage cov;
  for (size_t i = 0; i < cases.size(); ++i) {
    CheckGroundQuery(w, cases[i], "case " + std::to_string(i), &cov);
  }
  EXPECT_GT(cov.zero_cost_multi, 0u);
  EXPECT_GT(cov.cross_products, 0u);
}

// ---------------------------------------------------------------------------
// Templates: the compiled graph, one signature per binding, solved directly.
// ---------------------------------------------------------------------------

struct TemplateCase {
  sparql::QueryTemplate tmpl;
  std::vector<sparql::ParameterBinding> bindings;
  core::ParameterDomain domain;
};

TemplateCase RandomTemplate(const World& w, util::Rng* rng) {
  QueryShape shape;
  shape.min_patterns = 2;
  shape.max_patterns = 5;
  shape.num_vars = 4;
  shape.num_params = 2;
  sparql::SelectQuery q;
  do {
    q = RandomQuery(rng, shape);
  } while (q.ParameterNames().empty());
  TemplateCase tc{sparql::QueryTemplate("random", q), {}, {}};
  for (const std::string& name : tc.tmpl.parameter_names()) {
    std::vector<rdf::TermId> values;
    for (uint64_t v = 0; v < 6; ++v) values.push_back(w.ids[rng->Uniform(kSpace)]);
    tc.domain.AddSingle(name, values);
  }
  tc.bindings = tc.domain.Enumerate(40);
  return tc;
}

/// One compiled graph for the template, its ground signature counted
/// once, then every binding's signature filled and solved at `threads`
/// workers (one solver each), against the oracle on tmpl.Bind.
void CheckCompiledTemplate(const World& w, const TemplateCase& tc,
                           size_t threads, const std::string& label) {
  CardinalityCache cache;
  const CardinalityEstimator est(w.store, w.dict, &cache);
  const JoinGraph graph(tc.tmpl.query(), tc.tmpl.parameter_names(), w.dict);
  const CardinalitySignature ground = graph.GroundSignature(est);
  const size_t n = tc.bindings.size();
  std::vector<Result<OptimizedPlan>> got;
  got.reserve(n);
  for (size_t i = 0; i < n; ++i) got.emplace_back(Status::Internal("not run"));
  util::ThreadPool pool(threads - 1);
  pool.ParallelFor(0, n, [&](uint64_t lo, uint64_t hi) {
    JoinOrderSolver solver(graph, OptimizeOptions{});
    for (uint64_t i = lo; i < hi; ++i) {
      CardinalitySignature sig = ground;
      graph.FillSignature(tc.bindings[i].values, est, &sig);
      if (Status st = solver.Solve(sig); !st.ok()) {
        got[i] = st;
      } else {
        got[i] = solver.BuildPlan();
        // The classify path reads only these two.
        if (solver.Fingerprint() != got[i]->fingerprint ||
            Bits(solver.est_cout()) != Bits(got[i]->est_cout)) {
          got[i] = Status::Internal("classify view differs from the plan");
        }
      }
    }
  }, 1);
  for (size_t i = 0; i < n; ++i) {
    auto bound = tc.tmpl.Bind(tc.bindings[i], w.dict);
    ASSERT_TRUE(bound.ok()) << bound.status().ToString();
    ExpectSamePlan(oracle::OracleOptimize(*bound, w.store, w.dict), got[i],
                   label + " binding " + std::to_string(i));
  }
}

TEST(DpDifferentialTest, CompiledTemplatesMatchTheOracleAtEveryThreadCount) {
  for (uint64_t seed = 11; seed <= 14; ++seed) {
    World w;
    FillWorld(seed, seed % 2 == 1, &w);
    util::Rng rng(seed * 104729);
    for (int t = 0; t < 12; ++t) {
      const TemplateCase tc = RandomTemplate(w, &rng);
      for (size_t threads : {1u, 2u, 4u, 8u}) {
        CheckCompiledTemplate(w, tc, threads,
                              "seed " + std::to_string(seed) + " " +
                                  tc.tmpl.query().ToString() + " threads=" +
                                  std::to_string(threads));
        if (HasFatalFailure()) return;
      }
    }
  }
}

/// The classification the oracle implies: its plan per candidate, grouped
/// by the shared grouping stage.
Result<core::Classification> OracleClassification(const World& w,
                                                  const TemplateCase& tc,
                                                  uint64_t budget) {
  const std::vector<sparql::ParameterBinding> candidates =
      tc.domain.Enumerate(budget);
  std::vector<double> couts;
  std::vector<uint32_t> fp_ids;
  std::vector<std::string> fingerprints;
  for (const sparql::ParameterBinding& c : candidates) {
    RDFPARAMS_ASSIGN_OR_RETURN(sparql::SelectQuery q, tc.tmpl.Bind(c, w.dict));
    RDFPARAMS_ASSIGN_OR_RETURN(OptimizedPlan plan,
                               oracle::OracleOptimize(q, w.store, w.dict));
    couts.push_back(plan.est_cout);
    auto it = std::find(fingerprints.begin(), fingerprints.end(),
                        plan.fingerprint);
    fp_ids.push_back(static_cast<uint32_t>(it - fingerprints.begin()));
    if (it == fingerprints.end()) fingerprints.push_back(plan.fingerprint);
  }
  return core::BuildClassification(candidates, couts, fp_ids, fingerprints,
                                   1.0);
}

TEST(DpDifferentialTest, ClassifyAtEveryThreadCountMatchesTheOracle) {
  for (uint64_t seed = 21; seed <= 23; ++seed) {
    World w;
    FillWorld(seed, false, &w);
    util::Rng rng(seed * 15485863);
    for (int t = 0; t < 6; ++t) {
      const TemplateCase tc = RandomTemplate(w, &rng);
      auto want = OracleClassification(w, tc, 40);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      for (int threads : {1, 2, 4, 8}) {
        core::ClassifyOptions options;
        options.max_candidates = 40;
        options.threads = threads;
        auto got = core::ClassifyParameters(tc.tmpl, tc.domain, w.store,
                                            w.dict, options);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const std::string label = tc.tmpl.query().ToString() +
                                  " threads=" + std::to_string(threads);
        ASSERT_EQ(want->classes.size(), got->classes.size()) << label;
        EXPECT_EQ(want->class_of_candidate, got->class_of_candidate) << label;
        for (size_t k = 0; k < want->classes.size(); ++k) {
          const core::PlanClass& a = want->classes[k];
          const core::PlanClass& b = got->classes[k];
          EXPECT_EQ(a.fingerprint, b.fingerprint) << label;
          EXPECT_EQ(a.cost_bucket, b.cost_bucket) << label;
          EXPECT_EQ(Bits(a.min_cout), Bits(b.min_cout)) << label;
          EXPECT_EQ(Bits(a.max_cout), Bits(b.max_cout)) << label;
          EXPECT_EQ(a.members, b.members) << label;
          EXPECT_EQ(a.representative, b.representative) << label;
        }
      }
    }
  }
}

}  // namespace
}  // namespace rdfparams::opt
