// Intra-query parallel execution harness: measures per-query wall time of
// the morsel-parallel index join, the partitioned hash join, the group-by
// slice-merge reduction, and the ORDER BY parallel merge sort at
// increasing exec-thread counts against the serial baseline, and verifies
// that every configuration returns a byte-identical result table and
// identical ExecutionStats counters.
//
//   ./bench_intra_query [--products=N] [--max_threads=N] [--morsel_size=N]
//                       [--reps=N]
#include <algorithm>
#include <cstdio>
#include <limits>
#include <vector>

#include "bench_common.h"
#include "bsbm/queries.h"
#include "engine/executor.h"
#include "optimizer/optimizer.h"
#include "sparql/parser.h"
#include "util/table.h"
#include "util/thread_pool.h"

using namespace rdfparams;

namespace {

bool SameCounters(const engine::ExecutionStats& a,
                  const engine::ExecutionStats& b) {
  return a.intermediate_rows == b.intermediate_rows &&
         a.scan_rows == b.scan_rows && a.result_rows == b.result_rows;
}

struct Case {
  std::string name;
  sparql::SelectQuery query;
  std::unique_ptr<opt::PlanNode> plan;  ///< null: use the optimizer's plan
};

/// Returns false when any configuration failed or mismatched the serial
/// baseline — main() turns that into a nonzero exit so CI can gate on it.
bool RunCase(const Case& c, bsbm::Dataset* ds,
             const std::vector<int>& thread_counts, uint64_t morsel_size,
             int reps) {
  std::unique_ptr<opt::PlanNode> plan;
  if (c.plan != nullptr) {
    plan = c.plan->Clone();
  } else {
    auto optimized = opt::Optimize(c.query, ds->store, ds->dict);
    if (!optimized.ok()) {
      std::fprintf(stderr, "%s: %s\n", c.name.c_str(),
                   optimized.status().ToString().c_str());
      return false;
    }
    plan = std::move(optimized->root);
  }

  engine::Executor exec(ds->store, &ds->dict);
  util::TablePrinter table({"exec-threads", "first run s", "min s",
                            "speedup", "rows", "identical"});
  engine::BindingTable baseline;
  engine::ExecutionStats baseline_stats;
  double serial_seconds = 0;
  bool all_identical = true;
  for (int threads : thread_counts) {
    engine::ExecOptions options;
    options.threads = threads;
    options.morsel_size = morsel_size;
    engine::BindingTable result;
    engine::ExecutionStats stats;
    double seconds = std::numeric_limits<double>::infinity();
    double first_seconds = 0;
    for (int r = 0; r < std::max(reps, 1); ++r) {
      auto run = exec.Execute(c.query, *plan, &stats, options);
      if (!run.ok()) {
        std::fprintf(stderr, "%s: %s\n", c.name.c_str(),
                     run.status().ToString().c_str());
        return false;
      }
      if (r == 0) first_seconds = stats.wall_seconds;
      seconds = std::min(seconds, stats.wall_seconds);
      result = std::move(run).value();
    }
    bool identical = true;
    if (threads == thread_counts.front()) {
      baseline = std::move(result);
      baseline_stats = stats;
      serial_seconds = seconds;
    } else {
      identical = baseline == result && SameCounters(baseline_stats, stats);
      all_identical = all_identical && identical;
    }
    table.AddRow({std::to_string(threads),
                  util::StringPrintf("%.4f", first_seconds),
                  util::StringPrintf("%.4f", seconds),
                  util::StringPrintf("%.2fx", serial_seconds / seconds),
                  std::to_string(baseline.num_rows()),
                  identical ? "yes" : "NO (BUG)"});
  }
  std::printf("=== %s ===\n%s\n", c.name.c_str(), table.ToText().c_str());
  return all_identical;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t products = 4000;
  int64_t max_threads =
      static_cast<int64_t>(util::ThreadPool::ResolveThreads(0));
  int64_t morsel_size = 1024;
  int64_t reps = 3;
  util::FlagParser flags;
  flags.AddInt64("products", &products, "BSBM scale");
  flags.AddInt64("max_threads", &max_threads, "highest exec-thread count");
  flags.AddInt64("morsel_size", &morsel_size, "probe rows per morsel");
  flags.AddInt64("reps", &reps,
                 "repetitions per config (first-run and min wall time kept)");
  if (int rc = bench::ParseBenchArgs(argc, argv, &flags); rc >= 0) return rc;

  std::printf("generating BSBM dataset (%lld products)...\n",
              static_cast<long long>(products));
  bsbm::Dataset ds = bsbm::Generate(
      bench::DefaultBsbmConfig(static_cast<uint64_t>(products)));
  std::printf("%zu triples, %zu terms, %u hardware threads\n\n",
              ds.store.size(), ds.dict.size(),
              static_cast<unsigned>(util::ThreadPool::ResolveThreads(0)));

  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);

  const std::string root_type =
      "<" + std::string(ds.dict.term(ds.types[0].id).lexical) + ">";
  const char* vocab = "http://rdfparams.org/bsbm/vocabulary#";

  std::vector<Case> cases;

  // Morsel index-join chain at the generic root type: every offer of every
  // product of the type is probed through the store's indexes.
  {
    Case c;
    c.name = "index-join chain (type -> feature -> offer -> price)";
    auto q = sparql::ParseQuery(
        "SELECT * WHERE { "
        "?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> " +
        root_type + " . ?p <" + std::string(vocab) + "productFeature> ?f . "
        "?offer <" + vocab + "product> ?p . "
        "?offer <" + vocab + "price> ?price . }");
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    c.query = std::move(q).value();
    cases.push_back(std::move(c));
  }

  // Partitioned hash join: a hand-built bushy plan whose root joins two
  // materialized two-pattern components on ?p, so the executor cannot fall
  // back to the index nested-loop path.
  {
    Case c;
    c.name = "partitioned hash join (offersxprices JOIN typesxfeatures)";
    auto q = sparql::ParseQuery(
        "SELECT * WHERE { "
        "?offer <" + std::string(vocab) + "product> ?p . "
        "?offer <" + vocab + "price> ?price . "
        "?p <http://www.w3.org/1999/02/22-rdf-syntax-ns#type> " + root_type +
        " . ?p <" + vocab + "productFeature> ?f . }");
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    c.query = std::move(q).value();
    auto offers = opt::PlanNode::MakeJoin(
        opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
        opt::PlanNode::MakeScan(1, rdf::IndexOrder::kPOS), {"offer"});
    auto typed = opt::PlanNode::MakeJoin(
        opt::PlanNode::MakeScan(2, rdf::IndexOrder::kPOS),
        opt::PlanNode::MakeScan(3, rdf::IndexOrder::kPOS), {"p"});
    c.plan = opt::PlanNode::MakeJoin(std::move(offers), std::move(typed),
                                     {"p"});
    cases.push_back(std::move(c));
  }

  // Group-by-heavy: AVG/COUNT of every offer price per product — ~one
  // group per product, streamed through the canonical slice-merge
  // reduction (the root probe stays serial; slice partials reduce on the
  // pool).
  {
    Case c;
    c.name = "group-by reduction (avg/count offer price per product)";
    auto q = sparql::ParseQuery(
        "SELECT ?p (AVG(?price) AS ?avg) (COUNT(?price) AS ?n) WHERE { "
        "?offer <" + std::string(vocab) + "product> ?p . "
        "?offer <" + vocab + "price> ?price . } GROUP BY ?p");
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    c.query = std::move(q).value();
    cases.push_back(std::move(c));
  }

  // ORDER-BY-heavy: materialize every (offer, price) pair and sort it
  // descending by price — the parallel merge sort dominates the profile.
  {
    Case c;
    c.name = "order-by merge sort (all offers by price desc)";
    auto q = sparql::ParseQuery(
        "SELECT * WHERE { "
        "?offer <" + std::string(vocab) + "product> ?p . "
        "?offer <" + vocab + "price> ?price . } "
        "ORDER BY DESC(?price) ?offer");
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    c.query = std::move(q).value();
    cases.push_back(std::move(c));
  }

  // Streaming aggregate (BSBM Q4 at the root type): the root probe is
  // serial (it anchors the floating-point accumulation order), but its
  // output slices reduce on the pool and the child joins parallelize.
  {
    Case c;
    c.name = "streaming aggregate (BSBM Q4, root type; serial root probe)";
    auto q4 = bsbm::MakeQ4(ds);
    auto q = q4.Bind(sparql::ParameterBinding{{ds.types[0].id}}, ds.dict);
    if (!q.ok()) {
      std::fprintf(stderr, "%s\n", q.status().ToString().c_str());
      return 1;
    }
    c.query = std::move(q).value();
    cases.push_back(std::move(c));
  }

  bool ok = true;
  for (const Case& c : cases) {
    ok &= RunCase(c, &ds, thread_counts, static_cast<uint64_t>(morsel_size),
                  static_cast<int>(reps));
  }
  std::printf(
      "(speedup is machine-limited by hardware threads; results and stats\n"
      " counters are asserted byte-identical at every thread count)\n");
  if (!ok) std::fprintf(stderr, "FAILED: parallel/serial mismatch\n");
  return ok ? 0 : 1;
}
