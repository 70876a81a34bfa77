// Fault injection for the snapshot format: every corruption must surface
// as a clean checksum / format Status — never a crash, a hang, or a
// silently wrong store. Covers a bit flip in every page (header,
// dictionary, index runs, app meta, footer; CRC fields, payload, and
// padding alike), truncation at every page boundary and mid-page, wrong
// magic / version / page size, and zero-length / sub-page files. Every
// case opens through the read path (MmapMode::kOff) and, where the
// platform can map, through the zero-copy path (MmapMode::kOn).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "rdf/dictionary.h"
#include "rdf/triple_store.h"
#include "storage/format.h"
#include "storage/snapshot.h"
#include "util/mmap_file.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace rdfparams::storage {
namespace {

constexpr uint32_t kPageSize = 512;  // small pages -> every class present

class StorageCorruptionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A small mixed store with an app-meta blob: at 512-byte pages the
    // file has a header, several dictionary pages, three index runs, a
    // meta page, and a footer — every page class the format defines.
    util::Rng rng(99);
    rdf::Dictionary dict;
    std::vector<rdf::TermId> ids;
    for (size_t i = 0; i < 40; ++i) {
      ids.push_back(dict.InternIri("http://example.org/corrupt/e" +
                                   std::to_string(i)));
    }
    rdf::TripleStore store;
    for (size_t i = 0; i < 300; ++i) {
      store.Add(ids[rng.Uniform(ids.size())], ids[rng.Uniform(ids.size())],
                ids[rng.Uniform(ids.size())]);
    }
    store.Finalize();

    path_ = new std::string(::testing::TempDir() + "rdfparams_corrupt.snap");
    SaveOptions options;
    options.page_size = kPageSize;
    ASSERT_TRUE(
        Snapshot::Save(dict, store, "meta-blob", *path_, options).ok());
    auto bytes = util::ReadFileToString(*path_);
    ASSERT_TRUE(bytes.ok());
    image_ = new std::string(std::move(bytes).value());
    ASSERT_EQ(image_->size() % kPageSize, 0u);

    // The pristine image must open cleanly — otherwise every "corruption
    // detected" assertion below would be vacuous.
    for (MmapMode mode : Modes()) {
      for (bool verify_file_checksum : {true, false}) {
        OpenOptions options;
        options.mmap = mode;
        options.verify_file_checksum = verify_file_checksum;
        auto opened = Snapshot::Open(*path_, options);
        ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      }
    }
  }

  static void TearDownTestSuite() {
    std::remove(path_->c_str());
    delete path_;
    delete image_;
    path_ = nullptr;
    image_ = nullptr;
  }

  /// Writes `bytes` to a scratch file and returns its path.
  static std::string WriteScratch(const std::string& bytes) {
    std::string path = ::testing::TempDir() + "rdfparams_corrupt_case.snap";
    std::ofstream os(path, std::ios::trunc | std::ios::binary);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    os.close();
    return path;
  }

  /// The open modes every case runs through: the read path always, the
  /// zero-copy path where the platform can map.
  static std::vector<MmapMode> Modes() {
    std::vector<MmapMode> modes = {MmapMode::kOff};
    if (util::MmapFile::Supported()) modes.push_back(MmapMode::kOn);
    return modes;
  }

  static const char* ModeName(MmapMode mode) {
    return mode == MmapMode::kOff ? "read" : "mmap";
  }

  /// Opening `bytes` as a snapshot must fail cleanly in every mode
  /// (DataLoss for checksum damage, ParseError for format damage — never
  /// OK).
  static void ExpectOpenFails(const std::string& bytes, const char* what,
                              bool verify_file_checksum = true) {
    std::string path = WriteScratch(bytes);
    for (MmapMode mode : Modes()) {
      OpenOptions options;
      options.mmap = mode;
      options.verify_file_checksum = verify_file_checksum;
      auto opened = Snapshot::Open(path, options);
      EXPECT_FALSE(opened.ok())
          << what << " (" << ModeName(mode) << "): corruption not detected";
      if (!opened.ok()) {
        StatusCode code = opened.status().code();
        EXPECT_TRUE(code == StatusCode::kDataLoss ||
                    code == StatusCode::kParseError ||
                    code == StatusCode::kInvalidArgument)
            << what << " (" << ModeName(mode) << "): unexpected status "
            << opened.status().ToString();
      }
    }
    std::remove(path.c_str());
  }

  /// Opening `bytes` must fail in every mode with ParseError naming
  /// `needle`.
  static void ExpectParseError(const std::string& bytes,
                               const std::string& needle) {
    std::string path = WriteScratch(bytes);
    for (MmapMode mode : Modes()) {
      OpenOptions options;
      options.mmap = mode;
      auto opened = Snapshot::Open(path, options);
      ASSERT_FALSE(opened.ok()) << ModeName(mode);
      EXPECT_EQ(opened.status().code(), StatusCode::kParseError)
          << ModeName(mode);
      EXPECT_NE(opened.status().message().find(needle), std::string::npos)
          << ModeName(mode) << ": " << opened.status().ToString();
    }
    std::remove(path.c_str());
  }

  static std::string* path_;
  static std::string* image_;  ///< pristine snapshot bytes
};

std::string* StorageCorruptionTest::path_ = nullptr;
std::string* StorageCorruptionTest::image_ = nullptr;

TEST_F(StorageCorruptionTest, BitFlipInEveryPageIsDetected) {
  const size_t pages = image_->size() / kPageSize;
  for (size_t page = 0; page < pages; ++page) {
    // Vary the offset across pages so CRC fields, early payload, and tail
    // padding all get hit somewhere in the sweep.
    size_t offset = page * kPageSize + (page * 131) % kPageSize;
    std::string corrupt = *image_;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x10);
    ExpectOpenFails(corrupt,
                    ("bit flip in page " + std::to_string(page)).c_str());
  }
}

TEST_F(StorageCorruptionTest, PayloadFlipCaughtWithoutWholeFilePass) {
  // Per-page CRCs alone (verify_file_checksum=false) must still catch
  // payload damage in pages the restore actually reads.
  const size_t pages = image_->size() / kPageSize;
  for (size_t page = 0; page < pages; ++page) {
    std::string corrupt = *image_;
    size_t offset = page * kPageSize + kPageCrcBytes + 7;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x01);
    ExpectOpenFails(corrupt,
                    ("payload flip, page " + std::to_string(page)).c_str(),
                    /*verify_file_checksum=*/false);
  }
}

TEST_F(StorageCorruptionTest, TruncationAtEveryPageBoundaryIsDetected) {
  const size_t pages = image_->size() / kPageSize;
  for (size_t keep = 0; keep < pages; ++keep) {
    ExpectOpenFails(image_->substr(0, keep * kPageSize),
                    ("truncated to " + std::to_string(keep) + " pages").c_str());
  }
}

TEST_F(StorageCorruptionTest, MidPageTruncationIsDetected) {
  const size_t pages = image_->size() / kPageSize;
  for (size_t keep = 0; keep < pages; ++keep) {
    ExpectOpenFails(
        image_->substr(0, keep * kPageSize + kPageSize / 2),
        ("truncated mid-page " + std::to_string(keep)).c_str());
  }
}

TEST_F(StorageCorruptionTest, ZeroLengthFileIsRejected) {
  ExpectParseError("", "empty");
}

TEST_F(StorageCorruptionTest, SubPageFileIsRejected) {
  ExpectOpenFails(std::string(100, 'x'), "100-byte file");
}

TEST_F(StorageCorruptionTest, WrongMagicIsRejected) {
  std::string corrupt = *image_;
  corrupt[kPageCrcBytes] = 'X';  // first magic byte
  ExpectParseError(corrupt, "magic");
}

TEST_F(StorageCorruptionTest, WrongVersionIsRejected) {
  std::string corrupt = *image_;
  corrupt[kPageCrcBytes + sizeof(kHeaderMagic)] = 99;  // version u32 LSB
  ExpectParseError(corrupt, "version");
}

TEST_F(StorageCorruptionTest, WrongPageSizeIsRejected) {
  std::string corrupt = *image_;
  // page_size u32 follows magic + version; 513 is not a power of two.
  size_t off = kPageCrcBytes + sizeof(kHeaderMagic) + 4;
  corrupt[off] = 1;
  corrupt[off + 1] = 2;
  ExpectParseError(corrupt, "page size");
}

TEST_F(StorageCorruptionTest, SwappedPagesAreDetected) {
  // Two intact pages exchanged: every byte is valid somewhere, but the
  // page-number seed in the CRC makes position part of the checksum.
  const size_t pages = image_->size() / kPageSize;
  ASSERT_GE(pages, 4u);
  std::string corrupt = *image_;
  std::string tmp = corrupt.substr(1 * kPageSize, kPageSize);
  corrupt.replace(1 * kPageSize, kPageSize, corrupt, 2 * kPageSize, kPageSize);
  corrupt.replace(2 * kPageSize, kPageSize, tmp);
  ExpectOpenFails(corrupt, "swapped pages 1 and 2");
}

// ---------------------------------------------------------------------------
// v2 raw sections (dictionary arena / records / hash): no per-page CRC,
// so damage there must be caught by the whole-file pass, and by the
// section CRC when that pass is off.
// ---------------------------------------------------------------------------

TEST_F(StorageCorruptionTest, RawSectionFlipsAreDetectedInBothModes) {
  auto info = Snapshot::Inspect(*path_);
  ASSERT_TRUE(info.ok());
  for (uint32_t kind : {static_cast<uint32_t>(kSectionDictArena),
                        static_cast<uint32_t>(kSectionDictRecords),
                        static_cast<uint32_t>(kSectionDictHash)}) {
    const SectionInfo* s = info->header.FindSection(kind);
    ASSERT_NE(s, nullptr) << "fixture is not a v2 snapshot";
    ASSERT_GT(s->byte_length, 0u);
    for (uint64_t offset : {uint64_t{0}, s->byte_length / 2,
                            s->byte_length - 1}) {
      std::string corrupt = *image_;
      size_t pos = s->first_page * kPageSize + offset;
      corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x04);
      std::string what =
          "raw section " + std::to_string(kind) + " flip at " +
          std::to_string(offset);
      // Whole-file pass on: caught before any adoption.
      ExpectOpenFails(corrupt, what.c_str());
      // Whole-file pass off: the per-section CRC is the last line.
      ExpectOpenFails(corrupt, what.c_str(), /*verify_file_checksum=*/false);
    }
  }
}

TEST_F(StorageCorruptionTest, SectionCrcFieldFlipIsDetected) {
  // Damage the stored CRC itself (in the header's section table): the
  // header page CRC catches it with or without the whole-file pass.
  auto info = Snapshot::Inspect(*path_);
  ASSERT_TRUE(info.ok());
  std::string corrupt = *image_;
  // The header payload is position-dependent, so flip a byte in the middle
  // of the header page past the fixed prologue.
  size_t pos = kPageCrcBytes + 64;
  corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x80);
  ExpectOpenFails(corrupt, "header section-table flip");
  ExpectOpenFails(corrupt, "header section-table flip",
                  /*verify_file_checksum=*/false);
}

TEST_F(StorageCorruptionTest, TruncationIsDetectedThroughMmapToo) {
  const size_t pages = image_->size() / kPageSize;
  for (size_t keep : {pages / 2, pages - 1}) {
    ExpectOpenFails(image_->substr(0, keep * kPageSize),
                    ("truncation to " + std::to_string(keep)).c_str(),
                    /*verify_file_checksum=*/true);
    ExpectOpenFails(image_->substr(0, keep * kPageSize),
                    ("truncation to " + std::to_string(keep)).c_str(),
                    /*verify_file_checksum=*/false);
  }
}

TEST_F(StorageCorruptionTest, V1ImageCorruptionStillDetected) {
  // The legacy byte-stream dictionary keeps its per-page CRCs; a flip in
  // any v1 page must fail in both verification modes.
  util::Rng rng(7);
  rdf::Dictionary dict;
  std::vector<rdf::TermId> ids;
  for (size_t i = 0; i < 30; ++i) {
    ids.push_back(dict.InternIri("http://example.org/v1/e" +
                                 std::to_string(i)));
  }
  rdf::TripleStore store;
  for (size_t i = 0; i < 200; ++i) {
    store.Add(ids[rng.Uniform(ids.size())], ids[rng.Uniform(ids.size())],
              ids[rng.Uniform(ids.size())]);
  }
  store.Finalize();
  std::string path = WriteScratch("");
  SaveOptions options;
  options.page_size = kPageSize;
  options.format_version = 1;
  ASSERT_TRUE(Snapshot::Save(dict, store, "v1-meta", path, options).ok());
  auto bytes = util::ReadFileToString(path);
  ASSERT_TRUE(bytes.ok());
  std::remove(path.c_str());

  const size_t pages = bytes->size() / kPageSize;
  for (size_t page = 0; page < pages; ++page) {
    std::string corrupt = *bytes;
    size_t offset = page * kPageSize + kPageCrcBytes + 3;
    corrupt[offset] = static_cast<char>(corrupt[offset] ^ 0x20);
    ExpectOpenFails(corrupt, ("v1 flip page " + std::to_string(page)).c_str());
    ExpectOpenFails(corrupt, ("v1 flip page " + std::to_string(page)).c_str(),
                    /*verify_file_checksum=*/false);
  }
}

TEST_F(StorageCorruptionTest, InspectRejectsCorruptionToo) {
  std::string corrupt = *image_;
  size_t mid = corrupt.size() / 2;
  corrupt[mid] = static_cast<char>(corrupt[mid] ^ 0x40);
  std::string path = WriteScratch(corrupt);
  auto info = Snapshot::Inspect(path);
  EXPECT_FALSE(info.ok());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rdfparams::storage
