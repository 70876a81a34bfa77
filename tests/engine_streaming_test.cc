// Tests for the streaming root aggregation path: results must be
// identical to materialize-then-aggregate for every query shape, filters
// must apply before accumulation, and cross-product aggregates must work
// (the shape behind BSBM-BI Q4's ratio computation). A determinism
// differential pins the columnar root windows, selection-vector filters
// and slice cutting to byte-identical results at every chunk size, thread
// count and merge-join setting.
#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "engine/group_merge.h"
#include "optimizer/plan.h"
#include "rdf/turtle.h"
#include "sparql/parser.h"
#include "util/rng.h"

namespace rdfparams::engine {
namespace {

class StreamingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string doc = "@prefix x: <http://x/> .\n";
    util::Rng rng(77);
    for (int i = 0; i < 60; ++i) {
      doc += "x:item" + std::to_string(i) + " x:cat x:c" +
             std::to_string(i % 4) + " .\n";
      int n_vals = 1 + static_cast<int>(rng.Uniform(3));
      for (int k = 0; k < n_vals; ++k) {
        doc += "x:item" + std::to_string(i) + " x:score " +
               std::to_string(rng.Uniform(100)) + " .\n";
      }
    }
    for (int i = 0; i < 10; ++i) {
      doc += "x:other" + std::to_string(i) + " x:flag x:on .\n";
    }
    ASSERT_TRUE(rdf::LoadTurtle(doc, &dict_, &store_).ok());
    store_.Finalize();
  }

  sparql::SelectQuery Parse(const std::string& text) {
    auto q = sparql::ParseQuery(text);
    EXPECT_TRUE(q.ok()) << q.status().ToString();
    return std::move(q).value();
  }

  /// Runs through the normal path (streaming kicks in automatically) and
  /// through a forced materialized path (strip aggregates, aggregate by
  /// hand is not needed — instead compare against ExecuteNaive which uses
  /// the same streaming rules, and against a manual computation).
  BindingTable Run(const std::string& text, ExecutionStats* stats = nullptr) {
    auto q = Parse(text);
    Executor exec(store_, &dict_);
    ExecutionStats local;
    auto result = exec.Run(q, stats != nullptr ? stats : &local);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return std::move(result).value();
  }

  double NumAt(const BindingTable& t, size_t row, const char* var) {
    int col = t.VarIndex(var);
    EXPECT_GE(col, 0);
    return dict_.term(t.at(row, static_cast<size_t>(col)))
        .AsDouble()
        .value_or(-1);
  }

  rdf::Dictionary dict_;
  rdf::TripleStore store_;
};

TEST_F(StreamingTest, JoinAggregateMatchesManualComputation) {
  // COUNT of score-triples per category via a join.
  auto t = Run(
      "SELECT ?c (COUNT(?v) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?i <http://x/score> ?v . } GROUP BY ?c ORDER BY ?c");
  ASSERT_EQ(t.num_rows(), 4u);
  // Manual: count via the store.
  rdf::TermId p_cat = *dict_.FindIri("http://x/cat");
  rdf::TermId p_score = *dict_.FindIri("http://x/score");
  double total = 0;
  for (size_t r = 0; r < t.num_rows(); ++r) total += NumAt(t, r, "n");
  uint64_t expected = 0;
  store_.ScanPattern(rdf::kWildcardId, p_cat, rdf::kWildcardId,
                     [&](const rdf::Triple& tri) {
                       expected += store_.CountPattern(tri.s, p_score,
                                                       rdf::kWildcardId);
                     });
  EXPECT_DOUBLE_EQ(total, static_cast<double>(expected));
}

TEST_F(StreamingTest, StreamedEqualsSinglePatternAggregation) {
  // The single-pattern plan takes the materialized path; the join plan
  // takes the streaming path. COUNT(*) over the same data must agree.
  auto single = Run(
      "SELECT (COUNT(*) AS ?n) WHERE { ?i <http://x/score> ?v . }");
  auto joined = Run(
      "SELECT (COUNT(*) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?i <http://x/score> ?v . }");
  ASSERT_EQ(single.num_rows(), 1u);
  ASSERT_EQ(joined.num_rows(), 1u);
  // Every item has exactly one category, so both counts equal the number
  // of score triples.
  EXPECT_DOUBLE_EQ(NumAt(single, 0, "n"), NumAt(joined, 0, "n"));
}

TEST_F(StreamingTest, FilterAppliedBeforeAccumulation) {
  auto all = Run(
      "SELECT (COUNT(*) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?i <http://x/score> ?v . }");
  auto filtered = Run(
      "SELECT (COUNT(*) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?i <http://x/score> ?v . FILTER(?v < 50) }");
  double n_all = NumAt(all, 0, "n");
  double n_filtered = NumAt(filtered, 0, "n");
  EXPECT_LT(n_filtered, n_all);
  EXPECT_GT(n_filtered, 0);

  // Cross-check against the non-aggregate row count with the same filter.
  auto rows = Run(
      "SELECT * WHERE { ?i <http://x/cat> ?c . ?i <http://x/score> ?v . "
      "FILTER(?v < 50) }");
  EXPECT_DOUBLE_EQ(n_filtered, static_cast<double>(rows.num_rows()));
}

TEST_F(StreamingTest, CrossProductAggregate) {
  // Disconnected components: (item, cat) x (flagged others). The root is
  // a cross product; only streaming makes this shape scale.
  ExecutionStats stats;
  auto t = Run(
      "SELECT ?c (COUNT(*) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?o <http://x/flag> <http://x/on> . } GROUP BY ?c ORDER BY ?c",
      &stats);
  ASSERT_EQ(t.num_rows(), 4u);
  // Each category has 15 items x 10 flagged = 150 combinations.
  for (size_t r = 0; r < t.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(NumAt(t, r, "n"), 150.0);
  }
  // The streamed root output was counted as observed C_out.
  EXPECT_EQ(stats.intermediate_rows, 600u);
  EXPECT_EQ(stats.result_rows, 4u);
}

TEST_F(StreamingTest, AvgMinMaxThroughStreaming) {
  auto t = Run(
      "SELECT ?c (AVG(?v) AS ?avg) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) "
      "WHERE { ?i <http://x/cat> ?c . ?i <http://x/score> ?v . } "
      "GROUP BY ?c");
  ASSERT_EQ(t.num_rows(), 4u);
  for (size_t r = 0; r < t.num_rows(); ++r) {
    double avg = NumAt(t, r, "avg");
    double lo = NumAt(t, r, "lo");
    double hi = NumAt(t, r, "hi");
    EXPECT_LE(lo, avg);
    EXPECT_LE(avg, hi);
    EXPECT_GE(lo, 0);
    EXPECT_LE(hi, 99);
  }
}

TEST_F(StreamingTest, OrderByAggregateWithLimit) {
  auto t = Run(
      "SELECT ?c (COUNT(?v) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?i <http://x/score> ?v . } GROUP BY ?c ORDER BY DESC(?n) LIMIT 2");
  ASSERT_EQ(t.num_rows(), 2u);
  EXPECT_GE(NumAt(t, 0, "n"), NumAt(t, 1, "n"));
}

TEST_F(StreamingTest, GroupKeyFromProbeSide) {
  // Group by a variable that only exists on one side of the join.
  auto t = Run(
      "SELECT ?i (COUNT(?v) AS ?n) WHERE { ?i <http://x/cat> "
      "<http://x/c0> . ?i <http://x/score> ?v . } GROUP BY ?i");
  EXPECT_EQ(t.num_rows(), 15u);  // 60 items, 4 categories
}

TEST_F(StreamingTest, EmptyInputYieldsNoGroups) {
  auto t = Run(
      "SELECT ?c (COUNT(*) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?i <http://x/missing> ?v . } GROUP BY ?c");
  EXPECT_EQ(t.num_rows(), 0u);
}

/// Property: for random connected queries, COUNT(*) grouped by any pattern
/// variable must sum to the raw (non-aggregate) result row count, and the
/// group count must equal the number of distinct values of that variable.
class StreamingPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(StreamingPropertyTest, GroupedCountsSumToRowCount) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 97 + 5);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  for (int i = 0; i < 3000; ++i) {
    store.Add(dict.InternIri("http://e/" + std::to_string(rng.Uniform(120))),
              dict.InternIri("http://p/" + std::to_string(rng.Uniform(4))),
              dict.InternIri("http://e/" + std::to_string(rng.Uniform(120))));
  }
  store.Finalize();

  for (int trial = 0; trial < 3; ++trial) {
    size_t n_patterns = 2 + rng.Uniform(2);
    std::string body;
    for (size_t k = 0; k < n_patterns; ++k) {
      body += "?v" + std::to_string(k) + " <http://p/" +
              std::to_string(rng.Uniform(4)) + "> ?v" +
              std::to_string(k + 1) + " . ";
    }
    std::string group_var = "v" + std::to_string(rng.Uniform(n_patterns + 1));

    auto raw = sparql::ParseQuery("SELECT * WHERE { " + body + "}");
    auto agg = sparql::ParseQuery("SELECT ?" + group_var +
                                  " (COUNT(*) AS ?n) WHERE { " + body +
                                  "} GROUP BY ?" + group_var);
    ASSERT_TRUE(raw.ok() && agg.ok());

    Executor exec(store, &dict);
    ExecutionStats s1, s2;
    auto raw_result = exec.Run(*raw, &s1);
    auto agg_result = exec.Run(*agg, &s2);
    ASSERT_TRUE(raw_result.ok()) << raw_result.status().ToString();
    ASSERT_TRUE(agg_result.ok()) << agg_result.status().ToString();

    // Sum of group counts == raw row count.
    double total = 0;
    int n_col = agg_result->VarIndex("n");
    ASSERT_GE(n_col, 0);
    for (size_t r = 0; r < agg_result->num_rows(); ++r) {
      total += dict.term(agg_result->at(r, static_cast<size_t>(n_col)))
                   .AsDouble()
                   .value_or(0);
    }
    EXPECT_DOUBLE_EQ(total, static_cast<double>(raw_result->num_rows()));

    // Number of groups == distinct values of the group var in raw rows.
    int g_col = raw_result->VarIndex(group_var);
    ASSERT_GE(g_col, 0);
    std::set<rdf::TermId> distinct;
    for (size_t r = 0; r < raw_result->num_rows(); ++r) {
      distinct.insert(raw_result->at(r, static_cast<size_t>(g_col)));
    }
    EXPECT_EQ(agg_result->num_rows(), distinct.size());
  }
}

INSTANTIATE_TEST_SUITE_P(RandomSeeds, StreamingPropertyTest,
                         ::testing::Range(1, 9));

TEST_F(StreamingTest, ThreePatternStreaming) {
  // Root join of (join, scan): still streamed.
  ExecutionStats stats;
  auto t = Run(
      "SELECT ?c (COUNT(*) AS ?n) WHERE { ?i <http://x/cat> ?c . "
      "?i <http://x/score> ?v . ?i <http://x/cat> ?c2 . } GROUP BY ?c",
      &stats);
  EXPECT_EQ(t.num_rows(), 4u);
  EXPECT_GT(stats.intermediate_rows, 0u);
}

// ---------------------------------------------------------------------------
// Determinism differential for the streaming sink: each root kind (keyed
// hash join, cross product, index join) with a residual root filter and
// every mergeable aggregate, streaming more than 3 x kAggSliceRows passing
// rows so that slice boundaries fall inside root windows.
// ---------------------------------------------------------------------------

class StreamingDifferentialTest : public ::testing::Test {
 protected:
  static constexpr int kItems = 200;
  static constexpr int kCats = 4;

  void SetUp() override {
    std::string doc = "@prefix x: <http://x/> .\n";
    util::Rng rng(4242);
    for (int i = 0; i < kItems; ++i) {
      const std::string item = "x:item" + std::to_string(i);
      doc += item + " x:cat x:c" + std::to_string(i % kCats) + " .\n";
      // Decimal prices with two fraction digits: binary floating point
      // cannot represent most of them, so their sums depend on the
      // accumulation order and expose any change to the slice tree.
      doc += item + " x:price " + std::to_string(rng.Uniform(37)) + "." +
             std::to_string(10 + rng.Uniform(90)) + " .\n";
      doc += item + " x:rank " + std::to_string(rng.Uniform(10)) + " .\n";
    }
    ASSERT_TRUE(rdf::LoadTurtle(doc, &dict_, &store_).ok());
    store_.Finalize();
  }

  struct Outcome {
    BindingTable table;
    /// Every cell decoded: aggregate outputs get fresh scratch ids in
    /// each executor, so equal ids alone would not prove equal values.
    std::vector<std::string> cells;
    ExecutionStats stats;
  };

  Outcome Execute(const sparql::SelectQuery& query, const opt::PlanNode& plan,
                  const ExecOptions& options) {
    Executor exec(store_, static_cast<const rdf::Dictionary&>(dict_));
    Outcome out;
    auto result = exec.Execute(query, plan, &out.stats, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    if (!result.ok()) return out;
    out.table = std::move(result).value();
    for (size_t r = 0; r < out.table.num_rows(); ++r) {
      for (size_t c = 0; c < out.table.num_vars(); ++c) {
        const rdf::TermView t = exec.scratch_dict()->term(out.table.at(r, c));
        out.cells.push_back(std::string(t.lexical) + "^^" +
                            std::string(t.datatype));
      }
    }
    return out;
  }

  /// Runs `query` under `plan` at chunk_rows {0, 1, 7, 1000, 1024} x exec
  /// threads {1, 2, 4} x merge join on/off and checks every outcome
  /// against the serial default run, byte for byte.
  void RunDifferential(const std::string& text, const opt::PlanNode& plan,
                       const std::string& label) {
    auto parsed = sparql::ParseQuery(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    const sparql::SelectQuery& query = *parsed;
    const Outcome serial = Execute(query, plan, ExecOptions{});
    ASSERT_GT(serial.table.num_rows(), 0u) << label;

    // The filter must drop some rows yet leave more than three slices
    // of rows to the sink: the COUNT column sums to the passing rows.
    const size_t n_col = static_cast<size_t>(serial.table.VarIndex("n"));
    double passing = 0;
    for (size_t r = 0; r < serial.table.num_rows(); ++r) {
      passing += std::stod(serial.cells[r * serial.table.num_vars() + n_col]);
    }
    EXPECT_LT(passing, static_cast<double>(serial.stats.intermediate_rows))
        << label << ": the residual filter should drop some rows";
    ASSERT_GT(passing, 3.0 * kAggSliceRows) << label;

    for (uint64_t chunk : {uint64_t{0}, uint64_t{1}, uint64_t{7},
                           uint64_t{1000}, uint64_t{1024}}) {
      for (int threads : {1, 2, 4}) {
        for (bool merge : {true, false}) {
          ExecOptions options;
          options.chunk_rows = chunk;
          options.threads = threads;
          options.enable_merge_join = merge;
          const Outcome got = Execute(query, plan, options);
          const std::string where = label + " chunk=" + std::to_string(chunk) +
                                    " threads=" + std::to_string(threads) +
                                    " merge=" + (merge ? "on" : "off");
          EXPECT_TRUE(got.table == serial.table) << where;
          EXPECT_EQ(got.cells, serial.cells) << where;
          EXPECT_EQ(got.stats.intermediate_rows,
                    serial.stats.intermediate_rows)
              << where;
          EXPECT_EQ(got.stats.scan_rows, serial.stats.scan_rows) << where;
          EXPECT_EQ(got.stats.result_rows, serial.stats.result_rows) << where;
        }
      }
    }
  }

  rdf::Dictionary dict_;
  rdf::TripleStore store_;
};

constexpr const char* kAggregates =
    "(AVG(?p) AS ?avg) (SUM(?p) AS ?sum) (MIN(?p) AS ?lo) (MAX(?p) AS ?hi) "
    "(COUNT(?j) AS ?n)";

TEST_F(StreamingDifferentialTest, KeyedHashJoinRoot) {
  // Neither root input is a scan, so the root is a hash join on ?c; the
  // filter spans both inputs, so only the root can apply it.
  const std::string text =
      std::string("SELECT ?c ") + kAggregates +
      " WHERE { ?i <http://x/cat> ?c . ?i <http://x/price> ?p . "
      "?j <http://x/cat> ?c . ?j <http://x/rank> ?r . FILTER(?p > ?r) } "
      "GROUP BY ?c";
  auto left = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kPOS), {"i"});
  auto right = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(2, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(3, rdf::IndexOrder::kPOS), {"j"});
  auto root =
      opt::PlanNode::MakeJoin(std::move(left), std::move(right), {"c"});
  RunDifferential(text, *root, "keyed hash join");
}

TEST_F(StreamingDifferentialTest, CrossProductRoot) {
  // No shared variable between (ranked category-0 items) and (priced
  // items with their categories): the root is a cross product, and the
  // filter spans both of its inputs.
  const std::string text =
      std::string("SELECT ?r ") + kAggregates +
      " WHERE { ?i <http://x/price> ?p . ?i <http://x/cat> ?c . "
      "?j <http://x/cat> <http://x/c0> . ?j <http://x/rank> ?r . "
      "FILTER(?p > ?r) } GROUP BY ?r";
  auto build = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(2, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(3, rdf::IndexOrder::kPOS), {"j"});
  auto probe = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kPOS), {"i"});
  auto root = opt::PlanNode::MakeJoin(std::move(build), std::move(probe), {});
  RunDifferential(text, *root, "cross product");
}

TEST_F(StreamingDifferentialTest, IndexJoinRoot) {
  // The root probes ?j <cat> ?c per outer row; ?j is bound only there, so
  // the constant-rhs filter on it is residual at the root. The outer is
  // sorted on ?c, so with the hint the root runs as a merge sweep.
  const std::string text =
      std::string("SELECT ?c ") + kAggregates +
      " WHERE { ?i <http://x/cat> ?c . ?i <http://x/price> ?p . "
      "?j <http://x/cat> ?c . FILTER(?j != <http://x/item8>) } GROUP BY ?c";
  auto outer = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kPOS), {"i"});
  auto root = opt::PlanNode::MakeJoin(
      std::move(outer), opt::PlanNode::MakeScan(2, rdf::IndexOrder::kPOS),
      {"c"});
  root->merge_join_hint = true;
  RunDifferential(text, *root, "index join");
}

}  // namespace
}  // namespace rdfparams::engine
