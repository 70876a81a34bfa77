// SnapshotFile: one snapshot file held as a single in-memory image — a
// read-only mapping of the whole file, or an owned copy of it — with its
// structure validated.
//
// Open() loads the image and performs the cheap structural checks (size,
// magic, version, page size, header page CRC and decode, footer page CRC
// and decode, page-count agreement), so every consumer — the snapshot
// opener, the CLI inspector — starts from an image whose geometry is known
// good: every section's pages lie inside it. Section payloads are not
// checked here; VerifyFileChecksum() covers every byte before the footer
// in one pass, and the opener checks page and section CRCs itself when
// that pass is off.
#ifndef RDFPARAMS_STORAGE_SNAPSHOT_FILE_H_
#define RDFPARAMS_STORAGE_SNAPSHOT_FILE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>

#include "storage/format.h"
#include "util/mmap_file.h"
#include "util/status.h"

namespace rdfparams::storage {

/// How a snapshot's image is loaded. Both ways yield the same bytes; a
/// mapping additionally lets the dictionary borrow them instead of copying.
enum class MmapMode {
  kOff,   ///< read the whole file into memory
  kOn,    ///< map the file; fail if mapping is unsupported or fails
  kAuto,  ///< map when possible, else read the file into memory
};

class SnapshotFile {
 public:
  /// Loads `path` as one image per `mode` and validates its structure.
  /// Fails with a clean ParseError / DataLoss / IOError on anything
  /// malformed: zero-length or truncated files, wrong magic/version/page
  /// size, header or footer corruption. Under kOn, a file that cannot be
  /// mapped fails with the mapping's Unsupported / IOError.
  [[nodiscard]] static Result<SnapshotFile> Open(const std::string& path,
                                                 MmapMode mode);

  const SnapshotHeader& header() const { return header_; }
  uint32_t page_size() const { return header_.page_size; }
  uint64_t page_count() const { return header_.page_count; }
  const std::string& path() const { return path_; }

  /// The whole file, page_count() * page_size() bytes.
  std::span<const uint8_t> image() const {
    if (mapping_ != nullptr) return {mapping_->data(), mapping_->size()};
    return {reinterpret_cast<const uint8_t*>(copy_.data()), copy_.size()};
  }

  /// The mapping backing image(), or null when the image is a copy.
  const std::shared_ptr<const util::MmapFile>& mapping() const {
    return mapping_;
  }

  /// Compares the image against the footer's whole-file CRC, which covers
  /// every byte before the footer page: payloads, page CRC fields, padding
  /// and raw sections alike. DataLoss on mismatch.
  [[nodiscard]] Status VerifyFileChecksum() const;

 private:
  explicit SnapshotFile(std::string path) : path_(std::move(path)) {}

  [[nodiscard]] Status Validate();

  std::string path_;
  std::shared_ptr<const util::MmapFile> mapping_;
  std::string copy_;  ///< the image when it is not mapped
  SnapshotHeader header_;
  uint32_t footer_file_crc_ = 0;
};

}  // namespace rdfparams::storage

#endif  // RDFPARAMS_STORAGE_SNAPSHOT_FILE_H_
