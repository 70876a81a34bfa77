// Differential proof for the storage layer: a store opened from a
// snapshot must be indistinguishable from the fresh load that produced
// it — same TermIds, same terms, same index runs, same derived stats,
// and byte-identical classify / run / explain output through the shared
// protocol formatters. Covers both workloads, seeded random stores over
// several page sizes, the degenerate stores (empty, single triple), and
// the save -> open -> save fixpoint (the second file is bit-identical).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/plan_classifier.h"
#include "core/workload.h"
#include "optimizer/optimizer.h"
#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "server/protocol.h"
#include "server/workbench.h"
#include "storage/snapshot.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace rdfparams::storage {
namespace {

std::string TmpPath(const std::string& name) {
  return ::testing::TempDir() + "rdfparams_" + name;
}

void ExpectDictsIdentical(const rdf::Dictionary& a, const rdf::Dictionary& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.term(static_cast<rdf::TermId>(i)),
              b.term(static_cast<rdf::TermId>(i)))
        << "term " << i << " differs";
  }
}

void ExpectStoresIdentical(const rdf::TripleStore& a,
                           const rdf::TripleStore& b) {
  ASSERT_EQ(a.size(), b.size());
  ASSERT_EQ(a.all_indexes_built(), b.all_indexes_built());
  for (rdf::IndexOrder order : a.BuiltIndexes()) {
    auto run_a = a.IndexRun(order);
    auto run_b = b.IndexRun(order);
    ASSERT_EQ(run_a.size(), run_b.size()) << rdf::IndexOrderName(order);
    EXPECT_TRUE(std::equal(run_a.begin(), run_a.end(), run_b.begin()))
        << rdf::IndexOrderName(order) << " run differs";
  }
  EXPECT_EQ(a.NumDistinctSubjects(), b.NumDistinctSubjects());
  EXPECT_EQ(a.NumDistinctPredicates(), b.NumDistinctPredicates());
  EXPECT_EQ(a.NumDistinctObjects(), b.NumDistinctObjects());
  EXPECT_EQ(a.Predicates(), b.Predicates());
  for (rdf::TermId p : a.Predicates()) {
    EXPECT_EQ(a.DistinctSubjectsForPredicate(p),
              b.DistinctSubjectsForPredicate(p));
    EXPECT_EQ(a.DistinctObjectsForPredicate(p),
              b.DistinctObjectsForPredicate(p));
  }
}

/// classify + run + explain output for one template, rendered with the
/// same formatters the daemon uses — the end-to-end determinism anchor.
std::string PipelineOutput(const server::Workbench& wb, int64_t query) {
  auto tmpl = server::PickTemplate(wb, query);
  EXPECT_TRUE(tmpl.ok()) << tmpl.status().ToString();
  auto domain = server::MakeDomain(wb, **tmpl);
  EXPECT_TRUE(domain.ok()) << domain.status().ToString();

  core::ClassifyOptions classify_options;
  classify_options.max_candidates = 120;
  classify_options.threads = 1;
  auto classification = core::ClassifyParameters(**tmpl, *domain, wb.store(),
                                                 wb.dict(), classify_options);
  EXPECT_TRUE(classification.ok()) << classification.status().ToString();
  std::string out =
      server::FormatClassification(**tmpl, *classification, wb.dict());

  util::Rng rng(1007);
  auto bindings = domain->SampleN(&rng, 8);
  // RunAll interns only already-present terms here, so the const_cast-free
  // copy of the dictionary stays byte-stable; use a runner on a mutable
  // workbench instead.
  core::WorkloadRunner runner(wb.store(),
                              const_cast<rdf::Dictionary*>(&wb.dict()));
  core::WorkloadOptions run_options;
  run_options.threads = 1;
  auto obs = runner.RunAll(**tmpl, bindings, run_options);
  EXPECT_TRUE(obs.ok()) << obs.status().ToString();
  out += server::FormatObservations(**tmpl, *obs, wb.dict());

  util::Rng explain_rng(1007);
  auto binding = domain->Sample(&explain_rng);
  auto bound = (*tmpl)->Bind(binding, wb.dict());
  EXPECT_TRUE(bound.ok()) << bound.status().ToString();
  auto plan = opt::Optimize(*bound, wb.store(), wb.dict(), {});
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  out += server::FormatExplain(**tmpl, *bound, binding, *plan, wb.dict());
  return out;
}

void RoundTripWorkbench(const std::string& workload, int64_t query) {
  server::WorkbenchConfig config;
  config.workload = workload;
  config.products = 300;
  config.persons = 400;
  auto fresh = server::BuildWorkbench(config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  std::string path = TmpPath(workload + "_roundtrip.snap");
  ASSERT_TRUE(server::SaveWorkbenchSnapshot(*fresh, path).ok());
  auto opened = server::OpenWorkbenchSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  ExpectDictsIdentical(fresh->dict(), opened->dict());
  ExpectStoresIdentical(fresh->store(), opened->store());
  ASSERT_EQ(fresh->templates.size(), opened->templates.size());
  EXPECT_EQ(PipelineOutput(*fresh, query), PipelineOutput(*opened, query));
  std::remove(path.c_str());
}

TEST(StorageSnapshot, BsbmWorkbenchRoundTripsByteIdentically) {
  RoundTripWorkbench("bsbm", 4);
}

TEST(StorageSnapshot, SnbWorkbenchRoundTripsByteIdentically) {
  RoundTripWorkbench("snb", 1);
}

TEST(StorageSnapshot, BsbmEntityListsRoundTrip) {
  server::WorkbenchConfig config;
  config.products = 300;
  auto fresh = server::BuildWorkbench(config);
  ASSERT_TRUE(fresh.ok());
  std::string path = TmpPath("bsbm_entities.snap");
  ASSERT_TRUE(server::SaveWorkbenchSnapshot(*fresh, path).ok());
  auto opened = server::OpenWorkbenchSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  const bsbm::Dataset& a = *fresh->bsbm_ds;
  const bsbm::Dataset& b = *opened->bsbm_ds;
  ASSERT_EQ(a.types.size(), b.types.size());
  for (size_t i = 0; i < a.types.size(); ++i) {
    EXPECT_EQ(a.types[i].id, b.types[i].id);
    EXPECT_EQ(a.types[i].level, b.types[i].level);
    EXPECT_EQ(a.types[i].parent, b.types[i].parent);
    EXPECT_EQ(a.types[i].feature_pool, b.types[i].feature_pool);
    EXPECT_EQ(a.types[i].num_products, b.types[i].num_products);
  }
  EXPECT_EQ(a.products, b.products);
  EXPECT_EQ(a.features, b.features);
  EXPECT_EQ(a.producers, b.producers);
  EXPECT_EQ(a.vendors, b.vendors);
  EXPECT_EQ(a.reviewers, b.reviewers);
  EXPECT_EQ(a.TypeIds(), b.TypeIds());
  EXPECT_EQ(a.LeafTypeIds(), b.LeafTypeIds());
  std::remove(path.c_str());
}

TEST(StorageSnapshot, SnbEntityListsRoundTrip) {
  server::WorkbenchConfig config;
  config.workload = "snb";
  config.persons = 400;
  auto fresh = server::BuildWorkbench(config);
  ASSERT_TRUE(fresh.ok());
  std::string path = TmpPath("snb_entities.snap");
  ASSERT_TRUE(server::SaveWorkbenchSnapshot(*fresh, path).ok());
  auto opened = server::OpenWorkbenchSnapshot(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();

  const snb::Dataset& a = *fresh->snb_ds;
  const snb::Dataset& b = *opened->snb_ds;
  EXPECT_EQ(a.persons, b.persons);
  EXPECT_EQ(a.countries, b.countries);
  EXPECT_EQ(a.tags, b.tags);
  EXPECT_EQ(a.posts, b.posts);
  EXPECT_EQ(a.first_names, b.first_names);
  EXPECT_EQ(a.home_country, b.home_country);
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Seeded random stores: structure-free coverage across page sizes,
// including terms with every kind / datatype / language-tag shape.
// ---------------------------------------------------------------------------

rdf::Term RandomTerm(util::Rng* rng, uint64_t i) {
  switch (rng->Uniform(5)) {
    case 0: return rdf::Term::Iri("http://example.org/e" + std::to_string(i));
    case 1: return rdf::Term::Blank("b" + std::to_string(i));
    case 2: return rdf::Term::Literal("lit \"quoted\"\n#" + std::to_string(i));
    case 3: return rdf::Term::Integer(static_cast<int64_t>(i) - 50);
    default: {
      rdf::Term t = rdf::Term::Literal("tagged" + std::to_string(i));
      t.lang = (i % 2) == 0 ? "en" : "de";
      return t;
    }
  }
}

void RoundTripRandomStore(uint64_t seed, uint32_t page_size, size_t triples,
                          bool all_indexes) {
  util::Rng rng(seed);
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  size_t num_terms = 20 + rng.Uniform(60);
  for (size_t i = 0; i < num_terms; ++i) {
    ids.push_back(dict.Intern(RandomTerm(&rng, i)));
  }
  rdf::TripleStore store;
  for (size_t i = 0; i < triples; ++i) {
    store.Add(ids[rng.Uniform(ids.size())],
              ids[rng.Uniform(ids.size())],
              ids[rng.Uniform(ids.size())]);
  }
  if (all_indexes) store.BuildAllIndexes();
  store.Finalize();

  std::string path = TmpPath("random_" + std::to_string(seed) + "_" +
                             std::to_string(page_size) + ".snap");
  SaveOptions options;
  options.page_size = page_size;
  ASSERT_TRUE(Snapshot::Save(dict, store, "opaque-meta", path, options).ok());
  auto opened = Snapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectDictsIdentical(dict, opened->dict);
  ExpectStoresIdentical(store, opened->store);
  EXPECT_TRUE(opened->has_app_meta);
  EXPECT_EQ(opened->app_meta, "opaque-meta");
  std::remove(path.c_str());
}

TEST(StorageSnapshot, SeededRandomStoresRoundTrip) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    for (uint32_t page_size : {512u, 4096u}) {
      RoundTripRandomStore(seed, page_size, 500 + seed * 137,
                           /*all_indexes=*/seed % 2 == 0);
    }
  }
}

TEST(StorageSnapshot, EmptyStoreRoundTrips) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  store.Finalize();
  std::string path = TmpPath("empty.snap");
  ASSERT_TRUE(Snapshot::Save(dict, store, {}, path).ok());
  auto opened = Snapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(opened->dict.size(), 0u);
  EXPECT_EQ(opened->store.size(), 0u);
  EXPECT_TRUE(opened->store.finalized());
  EXPECT_FALSE(opened->has_app_meta);
  std::remove(path.c_str());
}

TEST(StorageSnapshot, SingleTripleRoundTrips) {
  rdf::Dictionary dict;
  rdf::TermId s = dict.InternIri("http://example.org/s");
  rdf::TermId p = dict.InternIri("http://example.org/p");
  rdf::TermId o = dict.InternLiteral("o");
  rdf::TripleStore store;
  store.Add(s, p, o);
  store.Finalize();
  std::string path = TmpPath("single.snap");
  ASSERT_TRUE(Snapshot::Save(dict, store, {}, path).ok());
  auto opened = Snapshot::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectDictsIdentical(dict, opened->dict);
  ExpectStoresIdentical(store, opened->store);
  EXPECT_EQ(opened->store.CountPattern(s, p, o), 1u);
  std::remove(path.c_str());
}

TEST(StorageSnapshot, SaveOpenSaveIsAFixpoint) {
  server::WorkbenchConfig config;
  config.products = 300;
  auto fresh = server::BuildWorkbench(config);
  ASSERT_TRUE(fresh.ok());
  std::string first = TmpPath("fixpoint1.snap");
  std::string second = TmpPath("fixpoint2.snap");
  ASSERT_TRUE(server::SaveWorkbenchSnapshot(*fresh, first).ok());
  auto opened = server::OpenWorkbenchSnapshot(first);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ASSERT_TRUE(server::SaveWorkbenchSnapshot(*opened, second).ok());

  auto bytes_a = util::ReadFileToString(first);
  auto bytes_b = util::ReadFileToString(second);
  ASSERT_TRUE(bytes_a.ok() && bytes_b.ok());
  ASSERT_EQ(bytes_a->size(), bytes_b->size());
  EXPECT_TRUE(*bytes_a == *bytes_b) << "second save is not bit-identical";
  std::remove(first.c_str());
  std::remove(second.c_str());
}

TEST(StorageSnapshot, BareSnapshotRefusesToServeWorkload) {
  rdf::Dictionary dict;
  rdf::TripleStore store;
  store.Finalize();
  std::string path = TmpPath("bare.snap");
  ASSERT_TRUE(Snapshot::Save(dict, store, {}, path).ok());
  auto opened = server::OpenWorkbenchSnapshot(path);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("no workload metadata"),
            std::string::npos)
      << opened.status().ToString();
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Open-mode differentials: the mmap (zero-copy) path and the read path
// (MmapMode::kOff) must restore identical stores at every page size, and a
// v1 file must keep opening through the re-intern fallback.
// ---------------------------------------------------------------------------

TEST(StorageSnapshot, MmapAndCopiedOpensAreIdentical) {
  if (!util::MmapFile::Supported()) GTEST_SKIP() << "no mmap platform";
  for (uint32_t page_size : {512u, 2048u, 4096u}) {
    util::Rng rng(31 + page_size);
    rdf::Dictionary dict;
    std::vector<rdf::TermId> ids;
    for (size_t i = 0; i < 150; ++i) {
      ids.push_back(dict.Intern(RandomTerm(&rng, i)));
    }
    rdf::TripleStore store;
    for (size_t i = 0; i < 1500; ++i) {
      store.Add(ids[rng.Uniform(ids.size())], ids[rng.Uniform(ids.size())],
                ids[rng.Uniform(ids.size())]);
    }
    store.BuildAllIndexes();
    store.Finalize();

    std::string path = TmpPath("mmap_diff_" + std::to_string(page_size) +
                               ".snap");
    SaveOptions save;
    save.page_size = page_size;
    ASSERT_TRUE(Snapshot::Save(dict, store, "m", path, save).ok());

    OpenOptions copied;
    copied.mmap = MmapMode::kOff;
    OpenStats copied_stats;
    copied.stats = &copied_stats;
    auto a = Snapshot::Open(path, copied);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    EXPECT_FALSE(copied_stats.mmap_used);
    EXPECT_EQ(copied_stats.format_version, kFormatVersion);

    OpenOptions mapped;
    mapped.mmap = MmapMode::kOn;
    OpenStats mapped_stats;
    mapped.stats = &mapped_stats;
    auto b = Snapshot::Open(path, mapped);
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_TRUE(mapped_stats.mmap_used);
    EXPECT_TRUE(b->dict.borrowed());

    ExpectDictsIdentical(a->dict, b->dict);
    ExpectStoresIdentical(a->store, b->store);
    ExpectDictsIdentical(dict, b->dict);
    ExpectStoresIdentical(store, b->store);
    EXPECT_EQ(a->app_meta, b->app_meta);

    // Same with the whole-file pass off: pages and raw sections then rely
    // on their own CRCs, and the result must not change in either mode.
    for (MmapMode mode : {MmapMode::kOff, MmapMode::kOn}) {
      OpenOptions unverified;
      unverified.mmap = mode;
      unverified.verify_file_checksum = false;
      auto c = Snapshot::Open(path, unverified);
      ASSERT_TRUE(c.ok()) << c.status().ToString();
      ExpectDictsIdentical(a->dict, c->dict);
      ExpectStoresIdentical(a->store, c->store);
      EXPECT_EQ(a->app_meta, c->app_meta);
    }
    std::remove(path.c_str());
  }
}

TEST(StorageSnapshot, V1SaveStillRoundTrips) {
  util::Rng rng(41);
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  for (size_t i = 0; i < 80; ++i) {
    ids.push_back(dict.Intern(RandomTerm(&rng, i)));
  }
  rdf::TripleStore store;
  for (size_t i = 0; i < 700; ++i) {
    store.Add(ids[rng.Uniform(ids.size())], ids[rng.Uniform(ids.size())],
              ids[rng.Uniform(ids.size())]);
  }
  store.Finalize();

  std::string path = TmpPath("v1_roundtrip.snap");
  SaveOptions save;
  save.format_version = 1;
  ASSERT_TRUE(Snapshot::Save(dict, store, "legacy", path, save).ok());

  OpenStats stats;
  OpenOptions options;
  options.stats = &stats;
  auto opened = Snapshot::Open(path, options);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  EXPECT_EQ(stats.format_version, 1u);
  EXPECT_FALSE(opened->dict.borrowed());  // v1 always re-interns
  ExpectDictsIdentical(dict, opened->dict);
  ExpectStoresIdentical(store, opened->store);
  std::remove(path.c_str());
}

// The checked-in fixture was written by the format-v1 writer as it
// existed before the v2 sections landed — a genuine old file, not one
// this build produced. It must keep opening with identical contents, and
// today's v1 writer must still reproduce it bit for bit.
TEST(StorageSnapshot, CheckedInV1FixtureOpensByteIdentically) {
  const std::string fixture =
      std::string(RDFPARAMS_TESTDATA_DIR) + "/v1_bsbm_p120.snap";

  server::WorkbenchConfig config;
  config.products = 120;
  auto fresh = server::BuildWorkbench(config);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();

  auto opened = server::OpenWorkbenchSnapshot(fixture);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  ExpectDictsIdentical(fresh->dict(), opened->dict());
  ExpectStoresIdentical(fresh->store(), opened->store());
  EXPECT_EQ(PipelineOutput(*fresh, 4), PipelineOutput(*opened, 4));

  // The v1 decoder restores the same world from a read image, with and
  // without the whole-file pass.
  for (bool verify : {true, false}) {
    storage::OpenOptions read;
    read.mmap = MmapMode::kOff;
    read.verify_file_checksum = verify;
    auto reread = server::OpenWorkbenchSnapshot(fixture, read);
    ASSERT_TRUE(reread.ok()) << reread.status().ToString();
    ExpectDictsIdentical(fresh->dict(), reread->dict());
    ExpectStoresIdentical(fresh->store(), reread->store());
    EXPECT_EQ(PipelineOutput(*fresh, 4), PipelineOutput(*reread, 4));
  }

  // Writer stability: saving the same workbench at v1 today yields the
  // fixture's exact bytes (the save -> open -> save fixpoint, across
  // format generations).
  std::string resaved = TmpPath("v1_fixture_resave.snap");
  storage::SaveOptions save;
  save.page_size = 512;
  save.format_version = 1;
  ASSERT_TRUE(server::SaveWorkbenchSnapshot(*fresh, resaved, save).ok());
  auto bytes_fixture = util::ReadFileToString(fixture);
  auto bytes_resaved = util::ReadFileToString(resaved);
  ASSERT_TRUE(bytes_fixture.ok() && bytes_resaved.ok());
  EXPECT_TRUE(*bytes_fixture == *bytes_resaved)
      << "v1 writer output drifted from the checked-in fixture";
  std::remove(resaved.c_str());
}

TEST(StorageSnapshot, InspectReportsLayout) {
  server::WorkbenchConfig config;
  config.products = 300;
  auto fresh = server::BuildWorkbench(config);
  ASSERT_TRUE(fresh.ok());
  std::string path = TmpPath("inspect.snap");
  ASSERT_TRUE(server::SaveWorkbenchSnapshot(*fresh, path).ok());
  auto info = Snapshot::Inspect(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->header.page_size, kDefaultPageSize);
  EXPECT_EQ(info->header.version, kFormatVersion);
  // v2 carries the raw dictionary triple instead of the v1 byte stream.
  EXPECT_EQ(info->header.FindSection(kSectionDictionary), nullptr);
  ASSERT_NE(info->header.FindSection(kSectionDictArena), nullptr);
  ASSERT_NE(info->header.FindSection(kSectionDictHash), nullptr);
  const SectionInfo* records = info->header.FindSection(kSectionDictRecords);
  ASSERT_NE(records, nullptr);
  EXPECT_EQ(records->item_count, fresh->dict().size());
  EXPECT_EQ(records->byte_length, fresh->dict().size() * rdf::kTermRecordBytes);
  ASSERT_NE(info->header.FindSection(kSectionAppMeta), nullptr);
  const SectionInfo* spo =
      info->header.FindSection(SectionKindForIndex(rdf::IndexOrder::kSPO));
  ASSERT_NE(spo, nullptr);
  EXPECT_EQ(spo->item_count, fresh->store().size());
  EXPECT_FALSE(info->header.all_indexes());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdfparams::storage
