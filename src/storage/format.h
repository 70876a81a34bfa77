// On-disk snapshot format: a single file of fixed-size checksummed pages.
//
//   page 0            header: magic, version, page size, section table
//   pages 1..N-2      section payloads (dictionary, index runs, app meta)
//   page N-1          footer: magic, page count, whole-file CRC32
//
// Every page is `page_size` bytes: a u32 CRC32 of the payload (seeded with
// the page number, so a page copied to the wrong offset fails even when
// its bytes are internally intact) followed by `page_size - 4` payload
// bytes. The footer's file CRC covers every byte before the footer page —
// including the other pages' CRC fields and padding — so any single bit
// flip anywhere in the file is caught either by a page CRC or by the file
// CRC, and always as a clean Status, never as a wrong answer.
//
// Sections start on a fresh page. Three packing disciplines:
//   * byte-stream sections (v1 dictionary, app meta): payload areas of the
//     section's pages concatenate into one byte stream; records straddle
//     page boundaries freely.
//   * record sections (index runs): fixed 12-byte triples that never
//     straddle a page — floor(payload / 12) triples per page, the rest
//     zero padding — so triple i is addressable as (page, offset) without
//     reading its neighbours, and a run decodes as one memcpy per page.
//   * raw sections (v2 dictionary arena / records / hash): the payload
//     fills entire pages with NO per-page CRC field, so the section's
//     bytes are contiguous in the file and an mmap'd open can adopt them
//     verbatim (a per-page CRC hole would force a gather copy). Integrity
//     keeps two layers regardless: the section's own CRC32 (stored in its
//     table entry, seeded with the section kind, verified on every open)
//     plus the footer's whole-file CRC, which covers raw pages like any
//     other pre-footer byte.
//
// Format v2 (kFormatVersion): replaces the v1 byte-stream dictionary
// section with three raw sections — string arena, fixed-width term
// records, open-addressing term->id hash — serialized straight from
// rdf::Dictionary's wire representation, and widens each section-table
// entry with the raw-section CRC32 field. v1 files still open through the
// re-intern path; v1 never contains raw kinds, v2 never contains kind 1.
#ifndef RDFPARAMS_STORAGE_FORMAT_H_
#define RDFPARAMS_STORAGE_FORMAT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "rdf/triple_store.h"
#include "util/status.h"

namespace rdfparams::storage {

inline constexpr char kHeaderMagic[8] = {'R', 'D', 'F', 'P',
                                         'S', 'N', 'P', '1'};
inline constexpr char kFooterMagic[8] = {'R', 'D', 'F', 'P',
                                         'F', 'T', 'R', '1'};
inline constexpr uint32_t kFormatVersion = 2;
/// Oldest version this build still opens (v1 via the re-intern path).
inline constexpr uint32_t kMinFormatVersion = 1;

inline constexpr uint32_t kMinPageSize = 512;
inline constexpr uint32_t kMaxPageSize = 1u << 20;
inline constexpr uint32_t kDefaultPageSize = 4096;

/// CRC field at the front of every page.
inline constexpr size_t kPageCrcBytes = 4;

/// Serialized triple record width (3 x u32 little-endian).
inline constexpr size_t kTripleBytes = 12;

/// True iff `page_size` is a power of two within the supported range.
bool ValidPageSize(uint32_t page_size);

inline size_t PayloadSize(uint32_t page_size) {
  return page_size - kPageCrcBytes;
}

inline uint64_t TriplesPerPage(uint32_t page_size) {
  return PayloadSize(page_size) / kTripleBytes;
}

enum SectionKind : uint32_t {
  kSectionDictionary = 1,  ///< v1 only: byte-stream of (kind, lex, dt, lang)
  // Index runs: kSectionIndexBase + static_cast<uint32_t>(IndexOrder).
  kSectionIndexBase = 2,
  kSectionAppMeta = 8,
  // v2 raw dictionary sections (rdf::Dictionary wire representation).
  kSectionDictArena = 16,
  kSectionDictRecords = 17,
  kSectionDictHash = 18,
};

inline uint32_t SectionKindForIndex(rdf::IndexOrder order) {
  return kSectionIndexBase + static_cast<uint32_t>(order);
}

/// True for sections stored with the raw discipline (full pages, no page
/// CRC, contiguous bytes, per-section CRC in the table entry).
inline bool IsRawSectionKind(uint32_t kind) {
  return kind >= kSectionDictArena && kind <= kSectionDictHash;
}

/// Pages occupied by a raw section of `byte_length` bytes.
inline uint64_t RawSectionPages(uint64_t byte_length, uint32_t page_size) {
  return (byte_length + page_size - 1) / page_size;
}

/// Header flag bits.
inline constexpr uint32_t kFlagAllIndexes = 1u << 0;

/// One entry of the header's section table. v1 entries are 36 bytes; v2
/// entries append the 4-byte section CRC (meaningful for raw sections,
/// zero otherwise).
struct SectionInfo {
  uint32_t kind = 0;
  uint64_t first_page = 0;   ///< 0 for empty sections
  uint64_t page_count = 0;
  uint64_t byte_length = 0;  ///< meaningful payload bytes, excluding padding
  uint64_t item_count = 0;   ///< terms / triples; 0 for byte-only sections
  uint32_t crc32 = 0;        ///< raw sections: Crc32Seeded(kind, bytes)
};

/// Serialized section-table entry size for a given format version.
inline size_t SectionEntryBytes(uint32_t version) {
  return version >= 2 ? 40 : 36;
}

/// Decoded header page.
struct SnapshotHeader {
  uint32_t version = kFormatVersion;
  uint32_t page_size = kDefaultPageSize;
  uint64_t page_count = 0;  ///< total pages, including header and footer
  uint32_t flags = 0;
  std::vector<SectionInfo> sections;

  bool all_indexes() const { return (flags & kFlagAllIndexes) != 0; }
  const SectionInfo* FindSection(uint32_t kind) const;
};

/// Seals a page in place: computes the payload CRC (seeded with `page_id`)
/// and stores it in the page's first four bytes. `page` must be the full
/// page_size bytes.
void SealPage(uint64_t page_id, std::span<uint8_t> page);

/// Verifies a sealed page's CRC. DataLoss on mismatch.
[[nodiscard]] Status VerifyPage(uint64_t page_id, std::span<const uint8_t> page);

/// Encodes the header payload (magic .. section table). Fails if the
/// encoding does not fit one page payload.
[[nodiscard]] Result<std::string> EncodeHeaderPayload(const SnapshotHeader& header);

/// Decodes and validates a header payload: magic, version, page size,
/// section table sanity (pages in range, no overlap with header/footer).
/// `file_size` bounds the page table. ParseError on any format violation.
[[nodiscard]] Result<SnapshotHeader> DecodeHeaderPayload(std::span<const uint8_t> payload,
                                           uint64_t file_size);

/// Encodes the footer payload (magic, page count, whole-file CRC).
std::string EncodeFooterPayload(uint64_t page_count, uint32_t file_crc);

/// Decodes a footer payload; checks the magic and that `page_count`
/// matches the header's. Returns the stored whole-file CRC.
[[nodiscard]] Result<uint32_t> DecodeFooterPayload(std::span<const uint8_t> payload,
                                     uint64_t expected_page_count);

}  // namespace rdfparams::storage

#endif  // RDFPARAMS_STORAGE_FORMAT_H_
