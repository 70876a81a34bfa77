// Differential / property test harness for intra-query parallel execution.
//
// The contract under test (see engine/exec_options.h): for ANY query and
// ANY store, executing with N exec-threads, any morsel size, any
// vectorization chunk size (including 0 = the row-at-a-time reference
// kernels), and the merge join on or off returns a result table and
// ExecutionStats counters byte-identical to the serial default run. We
// check it two ways:
//   * property-style: seeded util::Rng generates randomized small stores
//     and randomized BGP / FILTER / ORDER BY / aggregate queries, each
//     executed at 1/2/4/8 exec-threads (oversubscribed on small machines
//     on purpose — scheduling interleavings are part of the property) and
//     across the chunk-size sweep;
//   * directed: hand-built plans that force the partitioned hash join and
//     the cross-product path, morsel sizes down to 1 row, and merge-join
//     vs index-probe identity on sorted / unsorted / duplicate-key outers.
#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "engine/executor.h"
#include "optimizer/optimizer.h"
#include "test_store.h"
#include "util/rng.h"

namespace rdfparams::engine {
namespace {

// ---------------------------------------------------------------------------
// Differential driver
// ---------------------------------------------------------------------------

struct ExecOutcome {
  BindingTable table;
  /// Every cell decoded through the executor's dictionaries. Aggregate
  /// outputs get fresh scratch ids in each executor, so equal ids alone
  /// do not prove equal aggregate values.
  std::vector<std::string> cells;
  ExecutionStats stats;
};

/// Fails the test (with `label` in the message) unless the two outcomes
/// are byte-identical modulo wall_seconds.
void ExpectIdentical(const ExecOutcome& serial, const ExecOutcome& other,
                     const std::string& label) {
  ASSERT_EQ(serial.table.vars(), other.table.vars()) << label;
  ASSERT_EQ(serial.table.num_rows(), other.table.num_rows()) << label;
  if (!(serial.table == other.table)) {
    for (size_t r = 0; r < serial.table.num_rows(); ++r) {
      for (size_t c = 0; c < serial.table.num_vars(); ++c) {
        ASSERT_EQ(serial.table.at(r, c), other.table.at(r, c))
            << label << ": first differing row " << r << " col " << c;
      }
    }
  }
  EXPECT_EQ(serial.cells, other.cells) << label << ": decoded values differ";
  EXPECT_EQ(serial.stats.intermediate_rows, other.stats.intermediate_rows)
      << label;
  EXPECT_EQ(serial.stats.scan_rows, other.stats.scan_rows) << label;
  EXPECT_EQ(serial.stats.result_rows, other.stats.result_rows) << label;
}

/// Column-order- and row-order-insensitive view of a table: columns
/// reordered by variable name, rows sorted — lets tables produced by
/// different plans (different var orders) be compared by content.
std::vector<std::vector<rdf::TermId>> Canonical(const BindingTable& t) {
  std::vector<size_t> cols(t.num_vars());
  std::iota(cols.begin(), cols.end(), size_t{0});
  std::sort(cols.begin(), cols.end(), [&](size_t a, size_t b) {
    return t.vars()[a] < t.vars()[b];
  });
  std::vector<std::vector<rdf::TermId>> rows(t.num_rows());
  for (size_t r = 0; r < t.num_rows(); ++r) {
    rows[r].reserve(cols.size());
    for (size_t c : cols) rows[r].push_back(t.at(r, c));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Executes `query` under `plan` (optimizing when null) in read-only mode
/// at every thread count in `threads` and every morsel size in `morsels`,
/// asserting all outcomes equal the serial one.
void RunDifferential(const rdf::TripleStore& store,
                     const rdf::Dictionary& dict,
                     const sparql::SelectQuery& query,
                     const opt::PlanNode* plan, const std::string& label) {
  std::unique_ptr<opt::PlanNode> optimized;
  if (plan == nullptr) {
    auto result = opt::Optimize(query, store, dict);
    ASSERT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    optimized = std::move(result->root);
    plan = optimized.get();
  }

  auto run = [&](const ExecOptions& options) -> ExecOutcome {
    // A fresh read-only executor per config: scratch interning must not
    // leak state between configurations.
    Executor exec(store, dict);
    ExecOutcome out;
    auto result = exec.Execute(query, *plan, &out.stats, options);
    EXPECT_TRUE(result.ok()) << label << ": " << result.status().ToString();
    if (!result.ok()) return out;
    out.table = std::move(result).value();
    for (size_t r = 0; r < out.table.num_rows(); ++r) {
      for (size_t c = 0; c < out.table.num_vars(); ++c) {
        const rdf::TermView t = exec.scratch_dict()->term(out.table.at(r, c));
        out.cells.push_back(std::string(t.lexical) + "^^" +
                            std::string(t.datatype) + "@" +
                            std::string(t.lang));
      }
    }
    return out;
  };

  ExecOutcome serial = run(ExecOptions{});
  for (int threads : {2, 4, 8}) {
    ExecOptions options;
    options.threads = threads;
    ExpectIdentical(serial, run(options),
                    label + " threads=" + std::to_string(threads));
  }
  for (uint64_t morsel : {uint64_t{1}, uint64_t{3}, uint64_t{17}}) {
    ExecOptions options;
    options.threads = 4;
    options.morsel_size = morsel;
    ExpectIdentical(serial, run(options),
                    label + " threads=4 morsel=" + std::to_string(morsel));
  }
  // Chunk size is a schedule knob like morsel size: every chunk width —
  // including 0, the row-at-a-time reference kernels — must reproduce the
  // serial default run at every thread count.
  for (uint64_t chunk :
       {uint64_t{0}, uint64_t{1}, uint64_t{3}, uint64_t{64}, uint64_t{4096}}) {
    for (int threads : {1, 2, 4, 8}) {
      ExecOptions options;
      options.threads = threads;
      options.chunk_rows = chunk;
      ExpectIdentical(serial, run(options),
                      label + " chunk=" + std::to_string(chunk) +
                          " threads=" + std::to_string(threads));
    }
  }
  // The operator switches are pure perf knobs: flipping them off (alone
  // and together) at high thread counts must not change a byte either.
  for (int mask = 1; mask <= 7; ++mask) {
    ExecOptions options;
    options.threads = 8;
    options.morsel_size = 2;
    options.parallel_sort = (mask & 1) == 0;
    options.parallel_group_by = (mask & 2) == 0;
    options.enable_merge_join = (mask & 4) == 0;
    ExpectIdentical(serial, run(options),
                    label + " knobs mask=" + std::to_string(mask));
  }
}

// ---------------------------------------------------------------------------
// Randomized store + query generation (seeded, fully deterministic)
// ---------------------------------------------------------------------------

/// Turtle doc for a random graph: `knows` edges between people, `likes`
/// edges to things, and numeric `score` / `age` literals — IRI-valued and
/// int-valued predicates kept apart so filters/aggregates stay sensible.
std::string RandomStoreTurtle(util::Rng* rng) {
  int num_people = 4 + static_cast<int>(rng->Uniform(8));
  int num_things = 3 + static_cast<int>(rng->Uniform(5));
  int num_edges = 10 + static_cast<int>(rng->Uniform(60));
  std::string doc = "@prefix x: <http://x/> .\n";
  auto person = [&](uint64_t i) { return "x:pers" + std::to_string(i); };
  for (int e = 0; e < num_edges; ++e) {
    std::string s = person(rng->Uniform(static_cast<uint64_t>(num_people)));
    switch (rng->Uniform(4)) {
      case 0:
        doc += s + " x:knows " +
               person(rng->Uniform(static_cast<uint64_t>(num_people))) +
               " .\n";
        break;
      case 1:
        doc += s + " x:likes x:thing" +
               std::to_string(rng->Uniform(
                   static_cast<uint64_t>(num_things))) + " .\n";
        break;
      case 2:
        doc += s + " x:score " + std::to_string(rng->Uniform(20)) + " .\n";
        break;
      default:
        doc += s + " x:age " + std::to_string(18 + rng->Uniform(50)) + " .\n";
        break;
    }
  }
  return doc;
}

/// One random query over the RandomStoreTurtle vocabulary. Shapes: chains
/// and stars of 1-4 patterns, optionally decorated with FILTER, DISTINCT,
/// ORDER BY (+LIMIT), or a GROUP BY aggregate.
std::string RandomQueryText(util::Rng* rng) {
  const char* iri_preds[] = {"<http://x/knows>", "<http://x/likes>"};
  const char* num_preds[] = {"<http://x/score>", "<http://x/age>"};
  int num_patterns = 1 + static_cast<int>(rng->Uniform(4));
  bool star = rng->Bernoulli(0.4);

  std::vector<std::string> patterns;
  std::string numeric_var;  // a variable bound to an integer literal
  for (int i = 0; i < num_patterns; ++i) {
    std::string subj = star ? "?v0" : "?v" + std::to_string(i);
    std::string obj = "?v" + std::to_string(i + 1);
    // Last pattern sometimes binds a numeric object for FILTER/aggregate.
    if (i == num_patterns - 1 && rng->Bernoulli(0.6)) {
      patterns.push_back(subj + " " + num_preds[rng->Uniform(2)] + " " + obj);
      numeric_var = obj.substr(1);
    } else {
      patterns.push_back(subj + " " + iri_preds[rng->Uniform(2)] + " " + obj);
    }
  }

  std::string where;
  for (const std::string& p : patterns) where += p + " . ";
  if (!numeric_var.empty() && rng->Bernoulli(0.5)) {
    const char* ops[] = {">", ">=", "<", "=", "!="};
    where += "FILTER(?" + numeric_var + " " + ops[rng->Uniform(5)] + " " +
             std::to_string(rng->Uniform(40)) + ") ";
  }

  // Aggregate form: group by the first variable. Half the time there is
  // no ORDER BY, exercising the group-by's own ascending-key output
  // order; otherwise sort by the key or by the aggregate output.
  if (!numeric_var.empty() && rng->Bernoulli(0.3)) {
    const char* aggs[] = {"COUNT", "SUM", "MIN", "MAX", "AVG"};
    std::string agg = aggs[rng->Uniform(5)];
    std::string text = "SELECT ?v0 (" + agg + "(?" + numeric_var +
                       ") AS ?out) WHERE { " + where + "} GROUP BY ?v0";
    switch (rng->Uniform(4)) {
      case 0: break;  // no ORDER BY: ascending-key emit is the order
      case 1: text += " ORDER BY ?v0"; break;
      case 2: text += " ORDER BY DESC(?out)"; break;
      default: text += " ORDER BY ?out ?v0"; break;
    }
    return text;
  }

  std::string select = rng->Bernoulli(0.3) ? "SELECT DISTINCT *" : "SELECT *";
  std::string text = select + " WHERE { " + where + "}";
  if (rng->Bernoulli(0.5)) {
    // ?v0 repeats heavily (star subjects), so sorting by it stresses the
    // stable tie-break; two-key and DESC variants stress the comparator.
    const char* orders[] = {"?v1", "DESC(?v1)", "?v0", "?v0 DESC(?v1)",
                            "DESC(?v0) ?v1"};
    text += " ORDER BY " + std::string(orders[rng->Uniform(5)]);
    if (rng->Bernoulli(0.5)) {
      text += " LIMIT " + std::to_string(1 + rng->Uniform(10));
    }
  }
  return text;
}

// ---------------------------------------------------------------------------
// Property tests
// ---------------------------------------------------------------------------

TEST(ParallelExecPropertyTest, RandomQueriesIdenticalAcrossThreadCounts) {
  util::Rng rng(20260729);
  for (int store_round = 0; store_round < 6; ++store_round) {
    util::Rng store_rng = rng.Fork(static_cast<uint64_t>(store_round));
    rdf::Dictionary dict;
    rdf::TripleStore store;
    std::string doc = RandomStoreTurtle(&store_rng);
    ASSERT_TRUE(rdf::LoadTurtle(doc, &dict, &store).ok()) << doc;
    store.Finalize();

    for (int query_round = 0; query_round < 8; ++query_round) {
      std::string text = RandomQueryText(&store_rng);
      auto q = sparql::ParseQuery(text);
      ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
      RunDifferential(store, dict, *q, nullptr,
                      "store " + std::to_string(store_round) + " query `" +
                          text + "`");
    }
  }
}

TEST(ParallelExecPropertyTest, NaiveEvaluatorAgreesOnRandomBgps) {
  // Cross-check against the optimizer-free reference evaluator: the
  // parallel operators must not just be self-consistent but correct.
  util::Rng rng(424242);
  rdf::Dictionary dict;
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadTurtle(RandomStoreTurtle(&rng), &dict, &store).ok());
  store.Finalize();

  for (int round = 0; round < 10; ++round) {
    std::string text = RandomQueryText(&rng);
    auto q = sparql::ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    if (!q->aggregates.empty()) continue;  // naive interning order differs

    auto naive = ExecuteNaive(*q, store, &dict);
    ASSERT_TRUE(naive.ok()) << text << ": " << naive.status().ToString();

    Executor exec(store, &dict);
    ExecutionStats stats;
    ExecOptions options;
    options.threads = 4;
    options.morsel_size = 2;
    auto opt_result = exec.OptimizeAndExecute(*q, &stats, {}, options);
    ASSERT_TRUE(opt_result.ok()) << text;
    EXPECT_EQ(opt_result->num_rows(), naive->num_rows()) << text;
    if (q->limit >= 0) continue;  // LIMIT ties may resolve per-plan
    // Full content check, insensitive to the plans' differing column and
    // (absent ORDER BY) row orders.
    EXPECT_EQ(Canonical(*opt_result), Canonical(*naive)) << text;
  }
}

// ---------------------------------------------------------------------------
// Directed tests for the partitioned hash join and edge cases
// ---------------------------------------------------------------------------

class ParallelExecDirectedTest : public test::TurtleStoreTest {
 protected:
  void SetUp() override { Load(test::ItemScoreTurtle(100)); }
};

TEST_F(ParallelExecDirectedTest, ForcedPartitionedHashJoin) {
  // Root joins two materialized two-pattern components on ?i: neither
  // side is a scan, so the executor must take the (partitioned) hash join.
  auto q = Parse(
      "SELECT * WHERE { ?i <http://x/type> ?t . ?i <http://x/score> ?s . "
      "?j <http://x/type> ?t . ?j <http://x/score> ?s2 . }");
  auto left = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kPOS), {"i"});
  auto right = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(2, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(3, rdf::IndexOrder::kPOS), {"j"});
  auto root = opt::PlanNode::MakeJoin(std::move(left), std::move(right),
                                      {"t"});
  RunDifferential(store_, dict_, q, root.get(), "forced hash join");

  // Partition hints must not change results either: rerun with a plan
  // annotated the way the optimizer would annotate it.
  root->partition_hint = 16;
  RunDifferential(store_, dict_, q, root.get(), "forced hash join parts=16");
}

TEST_F(ParallelExecDirectedTest, ForcedParallelCrossProduct) {
  // No shared variable between the components: the hash-join plan has an
  // empty build key, exercising the morsel cross-product path.
  auto q = Parse(
      "SELECT * WHERE { ?i <http://x/score> ?s . ?j <http://x/type> ?t . "
      "?j <http://x/score> ?s2 . FILTER(?s2 > 3) }");
  auto left = opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS);
  auto right = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(2, rdf::IndexOrder::kPOS), {"j"});
  auto root = opt::PlanNode::MakeJoin(std::move(left), std::move(right), {});
  RunDifferential(store_, dict_, q, root.get(), "forced cross product");
}

TEST_F(ParallelExecDirectedTest, EmptyInputsAndSingleRows) {
  // Degenerate shapes: absent constants (empty scan), LIMIT 0-adjacent
  // results, single-row outers — morsel math must not trip on them.
  for (const char* text :
       {"SELECT * WHERE { ?i <http://x/type> <http://x/Nope> . "
        "?i <http://x/score> ?s . }",
        "SELECT * WHERE { ?i <http://x/type> <http://x/T1> . "
        "?i <http://x/score> ?s . } LIMIT 1",
        "SELECT * WHERE { ?i <http://x/score> ?s . FILTER(?s > 100) }"}) {
    RunDifferential(store_, dict_, Parse(text), nullptr, text);
  }
}

// ---------------------------------------------------------------------------
// Directed tests for the parallel ORDER BY merge sort
// ---------------------------------------------------------------------------

TEST_F(ParallelExecDirectedTest, OrderByDuplicateKeysIsStable) {
  // ?t has only 3 distinct values over 100 items: almost every comparison
  // is a tie, so the parallel merge lives or dies on the row-index
  // tie-break. RunDifferential pins it to the serial stable sort.
  auto q = Parse(
      "SELECT * WHERE { ?i <http://x/type> ?t . ?i <http://x/score> ?s . } "
      "ORDER BY ?t");
  RunDifferential(store_, dict_, q, nullptr, "order-by duplicate keys");

  // And explicitly: ties must keep their pre-sort (input) order. With the
  // secondary column untouched by the sort, every ?t run must preserve
  // the relative order the join emitted.
  Executor exec(store_, dict_);
  ExecutionStats stats;
  ExecOptions options;
  options.threads = 8;
  options.morsel_size = 1;
  auto unsorted = exec.OptimizeAndExecute(
      Parse("SELECT * WHERE { ?i <http://x/type> ?t . "
            "?i <http://x/score> ?s . }"),
      &stats, {}, options);
  auto sorted = exec.OptimizeAndExecute(q, &stats, {}, options);
  ASSERT_TRUE(unsorted.ok() && sorted.ok());
  int t_col = sorted->VarIndex("t");
  int i_col = sorted->VarIndex("i");
  ASSERT_GE(t_col, 0);
  ASSERT_GE(i_col, 0);
  // Build the per-key input sequence, then check the sorted table walks
  // each key's sequence in order.
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> expect_seq;
  int ut_col = unsorted->VarIndex("t");
  int ui_col = unsorted->VarIndex("i");
  for (size_t r = 0; r < unsorted->num_rows(); ++r) {
    expect_seq[unsorted->at(r, static_cast<size_t>(ut_col))].push_back(
        unsorted->at(r, static_cast<size_t>(ui_col)));
  }
  std::unordered_map<rdf::TermId, size_t> cursor;
  for (size_t r = 0; r < sorted->num_rows(); ++r) {
    rdf::TermId t = sorted->at(r, static_cast<size_t>(t_col));
    size_t& c = cursor[t];
    ASSERT_LT(c, expect_seq[t].size());
    EXPECT_EQ(sorted->at(r, static_cast<size_t>(i_col)), expect_seq[t][c])
        << "tie order broken at sorted row " << r;
    ++c;
  }
}

TEST(ParallelSortEdgeTest, NanInfAndMixedRankKeys) {
  // One object column mixing NaN, +/-inf, finite numerics, plain string
  // literals, and IRIs. The comparator must stay a strict weak ordering
  // (ranked classes; NaN after every number) or the sort — serial or
  // parallel — would be undefined. Identity across configs is checked by
  // RunDifferential; the rank layout is asserted directly.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  rdf::TermId pred = dict.InternIri("http://x/val");
  std::vector<rdf::TermId> objects;
  objects.push_back(dict.Intern(
      rdf::Term::TypedLiteral("nan", std::string(rdf::kXsdDouble))));
  objects.push_back(dict.Intern(
      rdf::Term::TypedLiteral("inf", std::string(rdf::kXsdDouble))));
  objects.push_back(dict.Intern(
      rdf::Term::TypedLiteral("-inf", std::string(rdf::kXsdDouble))));
  for (int v : {5, -3, 12, 0, 5, 7, -3}) {
    objects.push_back(dict.InternInteger(v));
  }
  objects.push_back(dict.InternDouble(2.5));
  objects.push_back(dict.Intern(rdf::Term::Literal("apple")));
  objects.push_back(dict.Intern(rdf::Term::Literal("10")));  // lexicographic
  objects.push_back(dict.InternIri("http://x/zzz"));
  for (size_t i = 0; i < 40; ++i) {
    store.Add(dict.InternIri("http://x/s" + std::to_string(i)), pred,
              objects[i % objects.size()]);
  }
  store.Finalize();

  auto q = test::ParseQueryOrFail(
      "SELECT * WHERE { ?s <http://x/val> ?v . } ORDER BY ?v");
  RunDifferential(store, dict, q, nullptr, "NaN/mixed-rank ORDER BY");

  Executor exec(store, dict);
  ExecutionStats stats;
  ExecOptions options;
  options.threads = 4;
  options.morsel_size = 1;
  auto result = exec.OptimizeAndExecute(q, &stats, {}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  int v_col = result->VarIndex("v");
  ASSERT_GE(v_col, 0);
  // Expected class layout: IRIs, then numerics ascending with NaN last
  // among them, then non-numeric literals.
  int phase = 0;  // 0=iri, 1=finite numeric, 2=nan, 3=other literal
  double last_value = -std::numeric_limits<double>::infinity();
  for (size_t r = 0; r < result->num_rows(); ++r) {
    const rdf::TermView term = dict.term(result->at(r, static_cast<size_t>(v_col)));
    int cls;
    std::optional<double> num;
    if (term.is_numeric()) num = term.AsDouble();
    if (term.is_iri()) {
      cls = 0;
    } else if (num && !std::isnan(*num)) {
      cls = 1;
    } else if (num) {
      cls = 2;
    } else {
      cls = 3;
    }
    ASSERT_GE(cls, phase) << "rank order violated at row " << r;
    if (cls == 1) {
      if (phase == 1) {
        EXPECT_LE(last_value, *num) << "row " << r;
      }
      last_value = *num;
    }
    phase = cls;
  }
}

// ---------------------------------------------------------------------------
// Directed tests for the parallel group-by reduction
// ---------------------------------------------------------------------------

TEST_F(ParallelExecDirectedTest, GroupByMatchesManualAggregates) {
  // SUM/AVG/MIN/MAX/COUNT per type, computed by hand from the store, at
  // an aggressive parallel config (join root => streaming reduction).
  auto q = Parse(
      "SELECT ?t (SUM(?s) AS ?sum) (AVG(?s) AS ?avg) (MIN(?s) AS ?lo) "
      "(MAX(?s) AS ?hi) (COUNT(?s) AS ?n) WHERE { ?i <http://x/type> ?t . "
      "?i <http://x/score> ?s . } GROUP BY ?t ORDER BY ?t");
  RunDifferential(store_, dict_, q, nullptr, "group-by manual aggregates");

  // Mutable-dictionary mode so the aggregate output literals decode
  // through dict_ directly.
  Executor exec(store_, &dict_);
  ExecutionStats stats;
  ExecOptions options;
  options.threads = 8;
  options.morsel_size = 1;
  auto result = exec.OptimizeAndExecute(q, &stats, {}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->num_rows(), 3u);  // T0, T1, T2

  // Manual aggregation straight off the generator formula in
  // ItemScoreTurtle(100): item i has type T(i%3) and score i%7.
  for (size_t r = 0; r < result->num_rows(); ++r) {
    std::string type(
        dict_.term(result->at(r, static_cast<size_t>(result->VarIndex("t"))))
            .lexical);
    int t = type.back() - '0';
    double sum = 0, lo = 1e9, hi = -1e9, n = 0;
    for (int i = 0; i < 100; ++i) {
      if (i % 3 != t) continue;
      double s = i % 7;
      sum += s;
      lo = std::min(lo, s);
      hi = std::max(hi, s);
      n += 1;
    }
    auto num_at = [&](const char* var) {
      return dict_
          .term(result->at(r, static_cast<size_t>(result->VarIndex(var))))
          .AsDouble()
          .value_or(-1);
    };
    EXPECT_DOUBLE_EQ(num_at("sum"), sum) << type;
    EXPECT_DOUBLE_EQ(num_at("avg"), sum / n) << type;
    EXPECT_DOUBLE_EQ(num_at("lo"), lo) << type;
    EXPECT_DOUBLE_EQ(num_at("hi"), hi) << type;
    EXPECT_DOUBLE_EQ(num_at("n"), n) << type;
  }
}

TEST_F(ParallelExecDirectedTest, GroupByWithoutOrderByEmitsAscendingKeys) {
  // No ORDER BY: the group-by's own output order — ascending group-key
  // tuples — is the contract, at every config.
  auto q = Parse(
      "SELECT ?t (COUNT(?s) AS ?n) WHERE { ?i <http://x/type> ?t . "
      "?i <http://x/score> ?s . } GROUP BY ?t");
  RunDifferential(store_, dict_, q, nullptr, "group-by ascending-key emit");

  for (int threads : {1, 8}) {
    Executor exec(store_, dict_);
    ExecutionStats stats;
    ExecOptions options;
    options.threads = threads;
    options.morsel_size = 1;
    auto result = exec.OptimizeAndExecute(q, &stats, {}, options);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    int t_col = result->VarIndex("t");
    ASSERT_GE(t_col, 0);
    for (size_t r = 1; r < result->num_rows(); ++r) {
      EXPECT_LT(result->at(r - 1, static_cast<size_t>(t_col)),
                result->at(r, static_cast<size_t>(t_col)))
          << "threads=" << threads;
    }
  }
}

// ---------------------------------------------------------------------------
// Directed tests for the merge join over sorted index runs
// ---------------------------------------------------------------------------

TEST_F(ParallelExecDirectedTest, MergeJoinSortedOuterMatchesProbes) {
  // Outer scan `?i <type> <T1>` reads a POS region: the ?i column is the
  // index's tertiary sort key, so it comes out globally ascending and the
  // hinted merge sweep engages. RunDifferential pins every config —
  // including enable_merge_join=false — to the serial (merge-on) run.
  auto q = Parse(
      "SELECT * WHERE { ?i <http://x/type> <http://x/T1> . "
      "?i <http://x/score> ?s . }");
  auto root = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kSPO), {"i"});
  root->merge_join_hint = true;
  EXPECT_NE(root->Explain(q).find("join=merge-sweep"), std::string::npos);
  RunDifferential(store_, dict_, q, root.get(), "merge join sorted outer");

  // And with the hint off: same plan, per-row probes, same bytes.
  root->merge_join_hint = false;
  EXPECT_NE(root->Explain(q).find("join=index-probe"), std::string::npos);
  RunDifferential(store_, dict_, q, root.get(), "index probes sorted outer");
}

TEST_F(ParallelExecDirectedTest, MergeJoinUnsortedOuterFallsBackToProbes) {
  // Outer scan `?i <type> ?t` emits ?i sorted only within each type run —
  // globally unsorted — so the runtime sortedness check must reject the
  // hint and fall back to per-row probes, at every config.
  auto q = Parse(
      "SELECT * WHERE { ?i <http://x/type> ?t . ?i <http://x/score> ?s . }");
  auto root = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kSPO), {"i"});
  root->merge_join_hint = true;
  RunDifferential(store_, dict_, q, root.get(), "merge join unsorted outer");
}

TEST(MergeJoinDuplicateKeyTest, RepeatedOuterKeysMatchProbes) {
  // Each item carries two scores, so the outer (type ⋈ score) emits every
  // ?i twice, back to back and ascending: the sweep must re-find runs on
  // repeated keys. Items 0 and 7 have no label (empty runs mid-sweep),
  // and the hinted root joins the duplicate-key outer to the label scan.
  std::string doc = "@prefix x: <http://x/> .\n";
  for (int i = 0; i < 20; ++i) {
    std::string item = "x:item" + std::to_string(i);
    doc += item + " x:type x:T .\n";
    doc += item + " x:score " + std::to_string(i % 5) + " .\n";
    doc += item + " x:score " + std::to_string(10 + i % 3) + " .\n";
    if (i != 0 && i != 7) {
      doc += item + " x:label \"L" + std::to_string(i % 4) + "\" .\n";
    }
  }
  rdf::Dictionary dict;
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadTurtle(doc, &dict, &store).ok());
  store.Finalize();

  auto q = test::ParseQueryOrFail(
      "SELECT * WHERE { ?i <http://x/type> <http://x/T> . "
      "?i <http://x/score> ?s . ?i <http://x/label> ?l . }");
  auto outer = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
      opt::PlanNode::MakeScan(1, rdf::IndexOrder::kSPO), {"i"});
  outer->merge_join_hint = true;
  auto root = opt::PlanNode::MakeJoin(
      std::move(outer), opt::PlanNode::MakeScan(2, rdf::IndexOrder::kSPO),
      {"i"});
  root->merge_join_hint = true;
  RunDifferential(store, dict, q, root.get(), "merge join duplicate keys");
}

TEST_F(ParallelExecDirectedTest, ReadOnlyModeStaysReadOnly) {
  // Parallel workers must never touch the shared dictionary: only the
  // calling thread interns (filters/aggregates), and only into scratch.
  size_t before = dict_.size();
  auto q = Parse(
      "SELECT ?t (AVG(?s) AS ?avg) WHERE { ?i <http://x/type> ?t . "
      "?i <http://x/score> ?s . FILTER(?s < 6) } GROUP BY ?t ORDER BY ?t");
  Executor exec(store_, static_cast<const rdf::Dictionary&>(dict_));
  ExecutionStats stats;
  ExecOptions options;
  options.threads = 8;
  options.morsel_size = 4;
  auto result = exec.OptimizeAndExecute(q, &stats, {}, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->num_rows(), 3u);
  EXPECT_EQ(dict_.size(), before);
  ASSERT_NE(exec.scratch_dict(), nullptr);
  EXPECT_GE(exec.scratch_dict()->num_scratch(), 1u);
}

}  // namespace
}  // namespace rdfparams::engine
