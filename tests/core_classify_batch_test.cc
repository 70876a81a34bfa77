// Differential harness for the batched classification pipeline: the
// signature-deduped strategy and the incremental ClassificationSession
// must be byte-identical — classes, fractions, representatives,
// class_of_candidate — to the per-candidate reference at 1/2/4/8 threads,
// including the grow-the-budget path, while actually saving DP runs on
// skewed domains. The pair-join prefill (stage 1b) must leave every
// result unchanged, whether its entries are read, evicted, or skipped.
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "bsbm/queries.h"
#include "core/classification_session.h"
#include "core/plan_classifier.h"
#include "optimizer/batch_cardinality.h"
#include "optimizer/cardinality_cache.h"
#include "server/workbench.h"
#include "sparql/query_template.h"
#include "test_store.h"

namespace rdfparams::core {
namespace {

/// Exact equality on every field of the result (doubles compared bitwise
/// through ==; the determinism contract promises identical bits).
void ExpectIdentical(const Classification& a, const Classification& b,
                     const std::string& label) {
  ASSERT_EQ(a.num_candidates, b.num_candidates) << label;
  ASSERT_EQ(a.classes.size(), b.classes.size()) << label;
  EXPECT_EQ(a.class_of_candidate, b.class_of_candidate) << label;
  for (size_t i = 0; i < a.classes.size(); ++i) {
    const PlanClass& x = a.classes[i];
    const PlanClass& y = b.classes[i];
    EXPECT_EQ(x.fingerprint, y.fingerprint) << label << " class " << i;
    EXPECT_EQ(x.cost_bucket, y.cost_bucket) << label << " class " << i;
    EXPECT_EQ(x.min_cout, y.min_cout) << label << " class " << i;
    EXPECT_EQ(x.max_cout, y.max_cout) << label << " class " << i;
    EXPECT_EQ(x.fraction, y.fraction) << label << " class " << i;
    EXPECT_EQ(x.members, y.members) << label << " class " << i;
    EXPECT_EQ(x.representative, y.representative) << label << " class " << i;
  }
}

class ClassifyBatchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ds_ = new bsbm::Dataset(test::MakeMiniBsbm());
  }
  static void TearDownTestSuite() {
    delete ds_;
    ds_ = nullptr;
  }
  static bsbm::Dataset* ds_;
};

bsbm::Dataset* ClassifyBatchTest::ds_ = nullptr;

ClassifyOptions Opt(ClassifyStrategy strategy, int threads,
                    uint64_t max_candidates = 2000) {
  ClassifyOptions options;
  options.strategy = strategy;
  options.threads = threads;
  options.max_candidates = max_candidates;
  return options;
}

TEST_F(ClassifyBatchTest, BatchedIdenticalToPerCandidateAcrossThreads) {
  auto q4 = bsbm::MakeQ4(*ds_);
  ParameterDomain domain;
  domain.AddSingle("ProductType", bsbm::TypeDomain(*ds_));

  auto reference = ClassifyParameters(
      q4, domain, ds_->store, ds_->dict,
      Opt(ClassifyStrategy::kPerCandidate, 1));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();

  for (int threads : {1, 2, 4, 8}) {
    ClassifyStats stats;
    ClassifyOptions options = Opt(ClassifyStrategy::kBatched, threads);
    options.stats = &stats;
    auto batched = ClassifyParameters(q4, domain, ds_->store, ds_->dict,
                                      options);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(*reference, *batched,
                    "threads=" + std::to_string(threads));
    EXPECT_EQ(stats.num_candidates, reference->num_candidates);
    EXPECT_EQ(stats.dp_runs + stats.dp_runs_saved, stats.num_candidates);
    EXPECT_EQ(stats.dp_runs, stats.distinct_signatures);
    EXPECT_GT(stats.batched_counts, 0u);
  }
}

TEST_F(ClassifyBatchTest, TwoParameterTemplateIdentical) {
  // Q1 binds %type and %feature in different patterns: the domain is a
  // cross product and both patterns are batch-counted independently.
  auto q1 = bsbm::MakeQ1(*ds_);
  ParameterDomain domain;
  domain.AddSingle("type", bsbm::TypeDomain(*ds_));
  std::vector<rdf::TermId> features = bsbm::FeatureDomain(*ds_);
  features.resize(std::min<size_t>(features.size(), 12));
  domain.AddSingle("feature", features);

  auto reference = ClassifyParameters(
      q1, domain, ds_->store, ds_->dict,
      Opt(ClassifyStrategy::kPerCandidate, 1, 500));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : {1, 4}) {
    auto batched =
        ClassifyParameters(q1, domain, ds_->store, ds_->dict,
                           Opt(ClassifyStrategy::kBatched, threads, 500));
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(*reference, *batched,
                    "q1 threads=" + std::to_string(threads));
  }
}

TEST(ClassifyBatchFallbackTest, TwoParametersInOnePatternIdentical) {
  // Both slots of one pattern vary per candidate: the prefill cannot
  // batch that pattern (it falls back to on-demand cached probes), but
  // the signature dedup must still be byte-identical.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::string doc = "@prefix x: <http://x/> .\n";
  for (int i = 0; i < 12; ++i) {
    doc += "x:p" + std::to_string(i) + " x:knows x:p" +
           std::to_string((i + 1) % 12) + " .\n";
    doc += "x:p" + std::to_string(i) + " x:age " + std::to_string(20 + i % 3) +
           " .\n";
  }
  ASSERT_TRUE(rdf::LoadTurtle(doc, &dict, &store).ok());
  store.Finalize();

  auto tmpl = sparql::QueryTemplate::Parse("pair", R"(
PREFIX x: <http://x/>
SELECT ?a WHERE {
  %a x:knows %b .
  %a x:age ?a .
}
)");
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();

  std::vector<std::vector<rdf::TermId>> tuples;
  for (int i = 0; i < 12; ++i) {
    auto a = dict.FindIri("http://x/p" + std::to_string(i));
    auto b = dict.FindIri("http://x/p" + std::to_string((i + 1) % 12));
    ASSERT_TRUE(a.has_value() && b.has_value());
    tuples.push_back({*a, *b});
  }
  ParameterDomain domain;
  domain.AddTuples({"a", "b"}, tuples);

  auto reference =
      ClassifyParameters(*tmpl, domain, store, dict,
                         Opt(ClassifyStrategy::kPerCandidate, 1));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  ClassifyStats stats;
  ClassifyOptions options = Opt(ClassifyStrategy::kBatched, 2);
  options.stats = &stats;
  auto batched = ClassifyParameters(*tmpl, domain, store, dict, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  ExpectIdentical(*reference, *batched, "two-params-one-pattern");
  // Every candidate ring position is structurally identical: the dedup
  // must collapse them to few signatures.
  EXPECT_LT(stats.dp_runs, stats.num_candidates);
  EXPECT_GT(stats.dp_runs_saved, 0u);
}

TEST(ClassifyBatchDedupTest, SkewedDomainCollapsesToOneSignature) {
  // Three types with exactly 10 members each: identical leaf counts and
  // pair-join counts => one signature, one DP run, two saved.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  ASSERT_TRUE(rdf::LoadTurtle(test::ItemScoreTurtle(30), &dict, &store).ok());
  store.Finalize();

  auto tmpl = sparql::QueryTemplate::Parse("skew", R"(
PREFIX x: <http://x/>
SELECT ?i WHERE {
  ?i x:type %t .
  ?i x:score ?s .
}
)");
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  ParameterDomain domain;
  std::vector<rdf::TermId> types;
  for (int t = 0; t < 3; ++t) {
    auto id = dict.FindIri("http://x/T" + std::to_string(t));
    ASSERT_TRUE(id.has_value());
    types.push_back(*id);
  }
  domain.AddSingle("t", types);

  ClassifyStats stats;
  ClassifyOptions options = Opt(ClassifyStrategy::kBatched, 1);
  options.stats = &stats;
  auto batched = ClassifyParameters(*tmpl, domain, store, dict, options);
  ASSERT_TRUE(batched.ok()) << batched.status().ToString();
  EXPECT_EQ(stats.num_candidates, 3u);
  EXPECT_EQ(stats.distinct_signatures, 1u);
  EXPECT_EQ(stats.dp_runs, 1u);
  EXPECT_EQ(stats.dp_runs_saved, 2u);

  auto reference = ClassifyParameters(
      *tmpl, domain, store, dict, Opt(ClassifyStrategy::kPerCandidate, 1));
  ASSERT_TRUE(reference.ok());
  ExpectIdentical(*reference, *batched, "skewed");
}

TEST_F(ClassifyBatchTest, SessionGrowingBudgetIdenticalToFreshRuns) {
  // The ROADMAP case: grow max_candidates across one session; every
  // intermediate result must equal a fresh per-candidate classification
  // with the same budget, and the growth must reuse earlier work.
  auto q4 = bsbm::MakeQ4(*ds_);
  ParameterDomain domain;
  domain.AddSingle("ProductType", bsbm::TypeDomain(*ds_));
  const uint64_t full = bsbm::TypeDomain(*ds_).size();

  for (int threads : {1, 4}) {
    ClassificationSession session(q4, ds_->store, ds_->dict,
                                  Opt(ClassifyStrategy::kBatched, threads));
    uint64_t previous_memo = 0;
    for (uint64_t budget : {full / 4, full / 2, full, full + 100}) {
      if (budget == 0) continue;
      auto incremental = session.Classify(domain, budget);
      ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
      auto reference = ClassifyParameters(
          q4, domain, ds_->store, ds_->dict,
          Opt(ClassifyStrategy::kPerCandidate, 1, budget));
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      ExpectIdentical(*reference, *incremental,
                      "budget=" + std::to_string(budget) +
                          " threads=" + std::to_string(threads));
      EXPECT_GE(session.memoized_bindings(), previous_memo);
      previous_memo = session.memoized_bindings();
    }
    // Growing to the full domain twice: the second call is pure reuse.
    auto again = session.Classify(domain, full + 100);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(session.last_stats().reused_candidates, full);
    EXPECT_EQ(session.last_stats().dp_runs, 0u);
    EXPECT_EQ(session.last_stats().dp_runs_saved, full);
  }
}

TEST_F(ClassifyBatchTest, SessionPartialOverlapBudgets) {
  // Budgets below the domain size enumerate uniformly spaced subsets that
  // only partially overlap; the binding-keyed memo must still reproduce
  // fresh results exactly while reusing the overlap.
  auto q4 = bsbm::MakeQ4(*ds_);
  ParameterDomain domain;
  domain.AddSingle("ProductType", bsbm::TypeDomain(*ds_));
  const uint64_t full = bsbm::TypeDomain(*ds_).size();
  ASSERT_GT(full, 8u);

  ClassificationSession session(q4, ds_->store, ds_->dict,
                                Opt(ClassifyStrategy::kBatched, 2));
  for (uint64_t budget : {full / 5, full / 3, full / 2}) {
    auto incremental = session.Classify(domain, budget);
    ASSERT_TRUE(incremental.ok()) << incremental.status().ToString();
    auto reference = ClassifyParameters(
        q4, domain, ds_->store, ds_->dict,
        Opt(ClassifyStrategy::kPerCandidate, 1, budget));
    ASSERT_TRUE(reference.ok());
    ExpectIdentical(*reference, *incremental,
                    "overlap budget=" + std::to_string(budget));
  }
}

TEST_F(ClassifyBatchTest, ErrorParityOnMismatchedDomain) {
  auto q4 = bsbm::MakeQ4(*ds_);
  ParameterDomain domain;
  domain.AddSingle("WrongName", bsbm::TypeDomain(*ds_));
  auto per_candidate = ClassifyParameters(
      q4, domain, ds_->store, ds_->dict,
      Opt(ClassifyStrategy::kPerCandidate, 1));
  auto batched = ClassifyParameters(q4, domain, ds_->store, ds_->dict,
                                    Opt(ClassifyStrategy::kBatched, 1));
  ASSERT_FALSE(per_candidate.ok());
  ASSERT_FALSE(batched.ok());
  EXPECT_EQ(per_candidate.status().ToString(), batched.status().ToString());
}


/// The ClassifyStats counters that are functions of the inputs alone (the
/// cache hit/miss split depends on scheduling and is left out).
std::vector<uint64_t> DeterministicCounters(const ClassifyStats& s) {
  return {s.num_candidates,  s.distinct_signatures,  s.dp_runs,
          s.dp_runs_saved,   s.batched_counts,       s.unbatched_patterns,
          s.prefilled_pair_joins, s.reused_candidates, s.reused_signatures};
}

server::Workbench MakeWorkbench(const std::string& workload) {
  server::WorkbenchConfig config;
  config.workload = workload;
  config.products = 400;
  config.persons = 600;
  config.seed = 13;
  auto wb = server::BuildWorkbench(config);
  EXPECT_TRUE(wb.ok()) << wb.status().ToString();
  return std::move(wb).value();
}

TEST(ClassifyPrefillTest, AllTemplatesIdenticalAcrossThreads) {
  // Every SNB and BSBM template: batched (with the pair-join prefill) vs
  // the per-candidate reference, and the deterministic counters —
  // prefilled_pair_joins included — equal at every thread count.
  for (const char* workload : {"snb", "bsbm"}) {
    server::Workbench wb = MakeWorkbench(workload);
    for (const sparql::QueryTemplate& tmpl : wb.templates) {
      auto domain = server::MakeDomain(wb, tmpl);
      ASSERT_TRUE(domain.ok()) << domain.status().ToString();
      auto reference =
          ClassifyParameters(tmpl, *domain, wb.store(), wb.dict(),
                             Opt(ClassifyStrategy::kPerCandidate, 1, 400));
      ASSERT_TRUE(reference.ok()) << reference.status().ToString();
      std::vector<uint64_t> serial_counters;
      for (int threads : {1, 2, 4, 8}) {
        ClassifyStats stats;
        ClassifyOptions options =
            Opt(ClassifyStrategy::kBatched, threads, 400);
        options.stats = &stats;
        auto batched =
            ClassifyParameters(tmpl, *domain, wb.store(), wb.dict(), options);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        const std::string label =
            tmpl.name() + " threads=" + std::to_string(threads);
        ExpectIdentical(*reference, *batched, label);
        if (threads == 1) {
          serial_counters = DeterministicCounters(stats);
        } else {
          EXPECT_EQ(DeterministicCounters(stats), serial_counters) << label;
        }
      }
    }
  }
}

TEST(ClassifyPrefillTest, SnbPairsArePrefilledOncePerCache) {
  // SNB Q1 pairs two parameter sides (nothing to prefill); Q2-Q4 each
  // have a pair with the parameter on one side only. A second call over
  // the same cache (as the daemon's shared cache sees) finds every count
  // cached and prefills nothing.
  server::Workbench wb = MakeWorkbench("snb");
  ASSERT_EQ(wb.templates.size(), 4u);
  for (size_t t = 0; t < wb.templates.size(); ++t) {
    auto domain = server::MakeDomain(wb, wb.templates[t]);
    ASSERT_TRUE(domain.ok());
    opt::CardinalityCache shared;
    ClassifyStats stats;
    ClassifyOptions options = Opt(ClassifyStrategy::kBatched, 1, 400);
    options.optimizer.cardinality_cache = &shared;
    options.stats = &stats;
    auto first = ClassifyParameters(wb.templates[t], *domain, wb.store(),
                                    wb.dict(), options);
    ASSERT_TRUE(first.ok());
    if (t == 0) {
      EXPECT_EQ(stats.prefilled_pair_joins, 0u);
    } else {
      EXPECT_GT(stats.prefilled_pair_joins, 0u) << wb.templates[t].name();
    }
    auto second = ClassifyParameters(wb.templates[t], *domain, wb.store(),
                                     wb.dict(), options);
    ASSERT_TRUE(second.ok());
    EXPECT_EQ(stats.prefilled_pair_joins, 0u) << wb.templates[t].name();
    ExpectIdentical(*first, *second, wb.templates[t].name() + " warm cache");
  }
}

TEST(ClassifyPrefillTest, EvictedPrefillEntriesStayIdentical) {
  // One entry per shard: the prefilled pair joins are evicted long before
  // the signature pass reads them, which then recounts through the
  // merge-sweep kernel. Results must not change.
  for (const char* workload : {"snb", "bsbm"}) {
    server::Workbench wb = MakeWorkbench(workload);
    for (const sparql::QueryTemplate& tmpl : wb.templates) {
      auto domain = server::MakeDomain(wb, tmpl);
      ASSERT_TRUE(domain.ok());
      auto reference =
          ClassifyParameters(tmpl, *domain, wb.store(), wb.dict(),
                             Opt(ClassifyStrategy::kPerCandidate, 1, 250));
      ASSERT_TRUE(reference.ok());
      for (int threads : {1, 4}) {
        opt::CardinalityCache tiny(16, 1);
        ClassifyStats stats;
        ClassifyOptions options =
            Opt(ClassifyStrategy::kBatched, threads, 250);
        options.optimizer.cardinality_cache = &tiny;
        options.stats = &stats;
        auto batched =
            ClassifyParameters(tmpl, *domain, wb.store(), wb.dict(), options);
        ASSERT_TRUE(batched.ok()) << batched.status().ToString();
        ExpectIdentical(*reference, *batched,
                        tmpl.name() + " evicting threads=" +
                            std::to_string(threads));
        if (stats.prefilled_pair_joins > 16) {
          EXPECT_GT(tiny.evictions(), 0u) << tmpl.name();
        }
      }
    }
  }
}

TEST(ClassifyPrefillTest, SessionGrowthIdenticalToFreshCalls) {
  // Budgets 125 -> 250 -> 1000 in one session: each step prefills only
  // its fresh values and must equal fresh one-shot calls byte for byte.
  server::Workbench wb = MakeWorkbench("snb");
  for (size_t t : {size_t{1}, size_t{3}}) {
    const sparql::QueryTemplate& tmpl = wb.templates[t];
    auto domain = server::MakeDomain(wb, tmpl);
    ASSERT_TRUE(domain.ok());
    for (int threads : {1, 4}) {
      ClassificationSession session(tmpl, wb.store(), wb.dict(),
                                    Opt(ClassifyStrategy::kBatched, threads));
      for (uint64_t budget : {125u, 250u, 1000u}) {
        auto grown = session.Classify(*domain, budget);
        ASSERT_TRUE(grown.ok()) << grown.status().ToString();
        const std::string label = tmpl.name() + " budget=" +
                                  std::to_string(budget) +
                                  " threads=" + std::to_string(threads);
        for (ClassifyStrategy strategy :
             {ClassifyStrategy::kBatched, ClassifyStrategy::kPerCandidate}) {
          auto fresh = ClassifyParameters(tmpl, *domain, wb.store(),
                                          wb.dict(),
                                          Opt(strategy, 1, budget));
          ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
          ExpectIdentical(*fresh, *grown, label);
        }
      }
    }
  }
}

/// Prefills a fresh cache for candidates, then checks every bound pattern
/// pair: the count read through that cache (the prefilled entry where
/// there is one) equals the one an uncached estimator computes. Returns
/// the number of pair counts the prefill settled.
uint64_t ExpectPrefillMatchesEstimator(
    const sparql::QueryTemplate& tmpl,
    const std::vector<sparql::ParameterBinding>& candidates,
    const rdf::TripleStore& store, const rdf::Dictionary& dict);

TEST(ClassifyPrefillTest, PrefillHonoursTheWorkBudget) {
  // Pattern 0 matches every triple of a store just above the default
  // pair-join work budget, so its pair with the parameter pattern 1 is not
  // prefilled (the estimator merge-sweeps or declines it per candidate).
  // Pattern 2 fits the budget, so pair (1, 2) is prefilled, and its four
  // values straddle the decline rule: a 5000-triple run overflows the
  // budget together with pattern 2 (declined), 4097 and 4096 sit at the
  // merge-sweep limit, 100 is small.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::vector<rdf::TermId> ids;
  for (int i = 0; i < 5220; ++i) {
    ids.push_back(dict.InternIri("http://x/e" + std::to_string(i)));
  }
  const rdf::TermId p0 = dict.InternIri("http://x/p0");
  const rdf::TermId p1 = dict.InternIri("http://x/p1");
  for (int s = 0; s < 5220; ++s) {
    for (int o = 0; o < 200; ++o) store.Add(ids[s], p1, ids[o]);
  }
  std::vector<rdf::TermId> values;
  for (int run : {5000, 4097, 4096, 100}) {
    values.push_back(dict.InternIri("http://x/v" + std::to_string(run)));
    for (int s = 0; s < run; ++s) store.Add(ids[s], p0, values.back());
  }
  store.Finalize();
  const uint64_t budget = opt::CardinalityEstimator::kDefaultPairJoinMaxWork;
  ASSERT_GT(store.size(), budget);
  ASSERT_LE(store.CountPattern(rdf::kWildcardId, p1, rdf::kWildcardId),
            budget);
  ASSERT_GT(store.CountPattern(rdf::kWildcardId, p1, rdf::kWildcardId) + 5000,
            budget);

  auto tmpl = sparql::QueryTemplate::Parse("budget", R"(
PREFIX x: <http://x/>
SELECT ?x WHERE {
  ?x ?q ?z .
  ?x x:p0 %v .
  ?x x:p1 ?w .
}
)");
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  std::vector<sparql::ParameterBinding> candidates;
  for (rdf::TermId v : values) {
    candidates.push_back(sparql::ParameterBinding{{v}});
  }
  // One entry per value for pair (1, 2); pair (0, 1) not at all, and the
  // parameter-free pair (0, 2) is left to the estimator.
  EXPECT_EQ(ExpectPrefillMatchesEstimator(*tmpl, candidates, store, dict),
            values.size());

  ParameterDomain domain;
  domain.AddSingle("v", values);
  auto reference = ClassifyParameters(
      *tmpl, domain, store, dict, Opt(ClassifyStrategy::kPerCandidate, 1));
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  for (int threads : {1, 4}) {
    ClassifyStats stats;
    ClassifyOptions options = Opt(ClassifyStrategy::kBatched, threads);
    options.stats = &stats;
    auto batched = ClassifyParameters(*tmpl, domain, store, dict, options);
    ASSERT_TRUE(batched.ok()) << batched.status().ToString();
    ExpectIdentical(*reference, *batched,
                    "budget threads=" + std::to_string(threads));
    EXPECT_EQ(stats.prefilled_pair_joins, values.size());
  }
}

/// Prefills a fresh cache for candidates, then checks every bound pattern
/// pair: the count read through that cache (the prefilled entry where
/// there is one) equals the one an uncached estimator computes. Returns
/// the number of pair counts the prefill settled.
uint64_t ExpectPrefillMatchesEstimator(
    const sparql::QueryTemplate& tmpl,
    const std::vector<sparql::ParameterBinding>& candidates,
    const rdf::TripleStore& store, const rdf::Dictionary& dict) {
  opt::CardinalityCache cache;
  opt::BatchCardinality batch(tmpl, store, dict, &cache);
  std::vector<size_t> which(candidates.size());
  for (size_t i = 0; i < which.size(); ++i) which[i] = i;
  const uint64_t settled = batch.PrefillPairJoins(candidates, which);
  const uint64_t hits_before = cache.hits();
  opt::CardinalityEstimator cached(store, dict, &cache);
  opt::CardinalityEstimator plain(store, dict);
  for (const sparql::ParameterBinding& c : candidates) {
    auto bound = tmpl.Bind(c, dict);
    EXPECT_TRUE(bound.ok()) << bound.status().ToString();
    if (!bound.ok()) return settled;
    const size_t n = bound->patterns.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = i + 1; j < n; ++j) {
        EXPECT_EQ(cached.ExactPairJoinCount(*bound, i, j),
                  plain.ExactPairJoinCount(*bound, i, j))
            << tmpl.name() << " pair " << i << "," << j;
      }
    }
  }
  if (settled > 0) {
    EXPECT_GT(cache.hits(), hits_before) << tmpl.name();
  }
  return settled;
}

TEST(ClassifyPrefillTest, PrefilledCountsEqualEstimatorCounts) {
  for (const char* workload : {"snb", "bsbm"}) {
    server::Workbench wb = MakeWorkbench(workload);
    for (const sparql::QueryTemplate& tmpl : wb.templates) {
      auto domain = server::MakeDomain(wb, tmpl);
      ASSERT_TRUE(domain.ok());
      ExpectPrefillMatchesEstimator(tmpl, domain->Enumerate(300), wb.store(),
                                    wb.dict());
    }
  }
}

TEST(ClassifyPrefillTest, SparseKeySpanIsLeftToTheKernel) {
  // Twenty filler terms between consecutive subjects spread the keys of the
  // parameter-free side far beyond a dense table's reach, so the pair gets
  // no table: every value is counted per candidate by the merge sweep.
  // Subjects repeat, objects are shared.
  rdf::Dictionary dict;
  rdf::TripleStore store;
  std::vector<rdf::TermId> subjects;
  for (int i = 0; i < 60; ++i) {
    subjects.push_back(dict.InternIri("http://x/s" + std::to_string(i)));
    for (int f = 0; f < 20; ++f) {
      dict.InternIri("http://x/f" + std::to_string(i) + "_" +
                     std::to_string(f));
    }
  }
  const rdf::TermId has = dict.InternIri("http://x/has");
  const rdf::TermId tag = dict.InternIri("http://x/tag");
  std::vector<rdf::TermId> tags;
  for (int t = 0; t < 7; ++t) {
    tags.push_back(dict.InternIri("http://x/t" + std::to_string(t)));
  }
  for (int i = 0; i < 60; ++i) {
    for (int k = 0; k < 1 + i % 4; ++k) {
      store.Add(subjects[static_cast<size_t>(i)], has,
                subjects[static_cast<size_t>((i * 7 + k) % 60)]);
    }
    store.Add(subjects[static_cast<size_t>(i)], tag,
              tags[static_cast<size_t>(i % 7)]);
    store.Add(subjects[static_cast<size_t>(i)], tag,
              tags[static_cast<size_t>(i % 3)]);
  }
  store.Finalize();

  auto tmpl = sparql::QueryTemplate::Parse("sparse", R"(
PREFIX x: <http://x/>
SELECT ?a WHERE {
  ?a x:has ?b .
  ?a x:tag %t .
}
)");
  ASSERT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  std::vector<sparql::ParameterBinding> candidates;
  for (rdf::TermId t : tags) {
    candidates.push_back(sparql::ParameterBinding{{t}});
  }
  EXPECT_EQ(ExpectPrefillMatchesEstimator(*tmpl, candidates, store, dict),
            0u);

  ParameterDomain domain;
  domain.AddSingle("t", tags);
  auto reference = ClassifyParameters(
      *tmpl, domain, store, dict, Opt(ClassifyStrategy::kPerCandidate, 1));
  ASSERT_TRUE(reference.ok());
  auto batched = ClassifyParameters(*tmpl, domain, store, dict,
                                    Opt(ClassifyStrategy::kBatched, 2));
  ASSERT_TRUE(batched.ok());
  ExpectIdentical(*reference, *batched, "sparse key span");
}

}  // namespace
}  // namespace rdfparams::core
