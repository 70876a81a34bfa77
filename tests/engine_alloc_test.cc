// Allocation regression guard for the chunked executor. Counting global
// operator new calls pins down two linearity properties without any
// wall-clock gate:
//   * chunked materialization (index join, hash join, the filter gather
//     through BindingTable::AppendGather) grows its output columns
//     geometrically, so even at chunk_rows = 1 a table of n rows costs
//     O(log n) column reallocations, not one per chunk;
//   * the streaming aggregate decodes each distinct value once and
//     recycles its slice buffers and partial tables, so N streamed rows
//     with D distinct values cost O(D + N / kAggSliceRows) allocations,
//     not O(N).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "engine/binding_table.h"
#include "engine/executor.h"
#include "engine/group_merge.h"
#include "optimizer/plan.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "sparql/parser.h"

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

namespace rdfparams::engine {
namespace {

uint64_t AllocsDuring(const std::function<void()>& fn) {
  uint64_t before = g_news.load(std::memory_order_relaxed);
  fn();
  return g_news.load(std::memory_order_relaxed) - before;
}

struct Store {
  rdf::Dictionary dict;
  rdf::TripleStore store;
};

/// `subjects` subjects of type x:T and kind x:K, each with one label and
/// `per` distinct x:has values.
std::unique_ptr<Store> MakeJoinStore(int subjects, int per) {
  auto s = std::make_unique<Store>();
  auto iri = [&](const std::string& v) { return s->dict.InternIri(v); };
  const rdf::TermId type = iri("http://x/type"), t = iri("http://x/T");
  const rdf::TermId kind = iri("http://x/kind"), k = iri("http://x/K");
  const rdf::TermId label = iri("http://x/label");
  const rdf::TermId has = iri("http://x/has");
  for (int i = 0; i < subjects; ++i) {
    const rdf::TermId subj = iri("http://x/s" + std::to_string(i));
    s->store.Add(subj, type, t);
    s->store.Add(subj, kind, k);
    s->store.Add(subj, label, iri("http://x/l" + std::to_string(i)));
    for (int v = 0; v < per; ++v) {
      s->store.Add(subj, has, iri("http://x/v" + std::to_string(v)));
    }
  }
  s->store.Finalize();
  return s;
}

struct Counted {
  uint64_t allocs = 0;
  uint64_t rows = 0;
};

Counted ExecuteCounted(const Store& s, const std::string& text,
                   const opt::PlanNode& plan, const ExecOptions& options) {
  auto query = sparql::ParseQuery(text);
  EXPECT_TRUE(query.ok()) << query.status().ToString();
  Executor exec(s.store, s.dict);
  ExecutionStats stats;
  Counted run;
  run.allocs = AllocsDuring([&] {
    auto result = exec.Execute(*query, plan, &stats, options);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
  });
  run.rows = stats.intermediate_rows;
  return run;
}

// Index join (outer scan probed per row) followed by a FILTER that keeps
// almost every row, so the filtered table is gathered one row per chunk.
constexpr const char* kIndexJoinQuery =
    "SELECT * WHERE { ?s <http://x/type> <http://x/T> . ?s <http://x/has> ?v "
    ". FILTER(?v != <http://x/v0>) }";

// Keyed hash join of (label x type) with (has x kind) on ?s; the probe
// side is itself a chunked index join.
constexpr const char* kHashJoinQuery =
    "SELECT * WHERE { ?s <http://x/label> ?l . ?s <http://x/type> "
    "<http://x/T> . ?s <http://x/has> ?v . ?s <http://x/kind> <http://x/K> "
    ". }";

TEST(EngineAllocTest, ChunkedJoinsGrowColumnsGeometrically) {
  auto index_plan =
      opt::PlanNode::MakeJoin(opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
                              opt::PlanNode::MakeScan(1, rdf::IndexOrder::kSPO),
                              {"s"});
  auto hash_plan = opt::PlanNode::MakeJoin(
      opt::PlanNode::MakeJoin(opt::PlanNode::MakeScan(0, rdf::IndexOrder::kSPO),
                              opt::PlanNode::MakeScan(1, rdf::IndexOrder::kSPO),
                              {"s"}),
      opt::PlanNode::MakeJoin(opt::PlanNode::MakeScan(2, rdf::IndexOrder::kSPO),
                              opt::PlanNode::MakeScan(3, rdf::IndexOrder::kSPO),
                              {"s"}),
      {"s"});
  ExecOptions options;
  options.chunk_rows = 1;  // one reallocation per chunk would be per row

  // 500 subjects x 200 / 400 values: 100k and 200k output rows.
  auto small = MakeJoinStore(500, 200);
  auto large = MakeJoinStore(500, 400);
  struct Case {
    const char* name;
    const char* query;
    const opt::PlanNode* plan;
  };
  for (const Case& c : {Case{"index join", kIndexJoinQuery, index_plan.get()},
                        Case{"hash join", kHashJoinQuery, hash_plan.get()}}) {
    const Counted a = ExecuteCounted(*small, c.query, *c.plan, options);
    const Counted b = ExecuteCounted(*large, c.query, *c.plan, options);
    ASSERT_GE(a.rows, 100000u) << c.name;
    ASSERT_GE(b.rows, 2 * a.rows - 1000) << c.name;
    // Far below one allocation per chunk...
    EXPECT_LT(a.allocs, a.rows / 20) << c.name << ": " << a.allocs
                                     << " allocations for " << a.rows
                                     << " rows";
    // ...and doubling the output adds a couple of reallocations per
    // column, not another a.rows of them.
    EXPECT_LT(b.allocs, a.allocs + 100)
        << c.name << ": " << a.allocs << " allocations at " << a.rows
        << " rows, " << b.allocs << " at " << b.rows;
  }
}

TEST(EngineAllocTest, AppendGatherGrowsGeometrically) {
  BindingTable src({"a", "b", "c"});
  const uint32_t n = 100000;
  for (uint32_t r = 0; r < n; ++r) src.AppendRow({r, r + 1, r + 2});
  BindingTable dst({"a", "b", "c"});
  const uint64_t allocs = AllocsDuring([&] {
    for (uint32_t r = 0; r < n; ++r) {
      dst.AppendGather(src, std::span<const uint32_t>(&r, 1));
    }
  });
  ASSERT_EQ(dst.num_rows(), n);
  EXPECT_TRUE(dst == src);
  // Three columns, each O(log n) reallocations (~30 at growth factor 1.5).
  EXPECT_LE(allocs, 3u * 40u) << allocs << " allocations for " << n
                              << " one-row gathers";
}

/// `items` items spread over 8 groups, each with `per` prices drawn from
/// `distinct` decimal values (per <= distinct, so no duplicate triples).
std::unique_ptr<Store> MakePriceStore(int items, int per, int distinct) {
  auto s = std::make_unique<Store>();
  auto iri = [&](const std::string& v) { return s->dict.InternIri(v); };
  const rdf::TermId grp = iri("http://x/grp");
  const rdf::TermId price = iri("http://x/price");
  std::vector<rdf::TermId> values;
  for (int d = 0; d < distinct; ++d) {
    values.push_back(s->dict.Intern(
        rdf::Term::TypedLiteral(std::to_string(d) + ".5",
                                "http://www.w3.org/2001/XMLSchema#decimal")));
  }
  for (int i = 0; i < items; ++i) {
    const rdf::TermId item = iri("http://x/i" + std::to_string(i));
    s->store.Add(item, grp, iri("http://x/g" + std::to_string(i % 8)));
    for (int k = 0; k < per; ++k) {
      s->store.Add(item, price,
                   values[static_cast<size_t>((i + k) % distinct)]);
    }
  }
  s->store.Finalize();
  return s;
}

TEST(EngineAllocTest, StreamingAggregateAllocsTrackDistinctValuesAndSlices) {
  constexpr int kDistinct = 50;
  const std::string query =
      "SELECT ?g (AVG(?p) AS ?avg) (SUM(?p) AS ?sum) (MIN(?p) AS ?lo) "
      "(COUNT(?x) AS ?n) WHERE { ?x <http://x/grp> ?g . "
      "?x <http://x/price> ?p . } GROUP BY ?g";
  auto plan =
      opt::PlanNode::MakeJoin(opt::PlanNode::MakeScan(0, rdf::IndexOrder::kPOS),
                              opt::PlanNode::MakeScan(1, rdf::IndexOrder::kSPO),
                              {"x"});
  // 4000 items x 25 / 50 prices: 100k and 200k streamed rows.
  auto small = MakePriceStore(4000, 25, kDistinct);
  auto large = MakePriceStore(4000, 50, kDistinct);
  for (int threads : {1, 2}) {
    ExecOptions options;
    options.threads = threads;
    for (const Store* s : {small.get(), large.get()}) {
      const Counted run = ExecuteCounted(*s, query, *plan, options);
      ASSERT_GE(run.rows, 100000u);
      const uint64_t bound = 8 * (kDistinct + run.rows / kAggSliceRows) + 256;
      EXPECT_LE(run.allocs, bound)
          << "threads=" << threads << ": " << run.allocs
          << " allocations streaming " << run.rows << " rows";
    }
  }
}

}  // namespace
}  // namespace rdfparams::engine
