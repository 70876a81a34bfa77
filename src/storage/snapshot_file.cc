#include "storage/snapshot_file.h"

#include <cstring>
#include <utility>

#include "util/coding.h"
#include "util/crc32.h"
#include "util/string_util.h"

namespace rdfparams::storage {

Result<SnapshotFile> SnapshotFile::Open(const std::string& path,
                                        MmapMode mode) {
  SnapshotFile file(path);
  if (mode != MmapMode::kOff) {
    // kAuto degrades to reading the file on any mapping failure (Map
    // reports Unsupported on platforms without mmap); kOn surfaces it.
    Result<std::shared_ptr<util::MmapFile>> mapped = util::MmapFile::Map(path);
    if (mapped.ok()) {
      file.mapping_ = *std::move(mapped);
    } else if (mode == MmapMode::kOn) {
      return mapped.status();
    }
  }
  if (file.mapping_ == nullptr) {
    RDFPARAMS_ASSIGN_OR_RETURN(file.copy_, util::ReadFileToString(path));
  }
  RDFPARAMS_RETURN_NOT_OK(file.Validate());
  return file;
}

Status SnapshotFile::Validate() {
  const std::span<const uint8_t> bytes = image();
  const uint64_t size = bytes.size();
  if (size == 0) {
    return Status::ParseError(path_ + ": empty file is not a snapshot");
  }
  if (size < kMinPageSize) {
    return Status::ParseError(path_ + ": file smaller than a snapshot page");
  }

  // Bootstrap: magic / version / page_size live at fixed offsets right
  // after the header page's CRC, so they can be read before the page size
  // (and hence the CRC span) is known.
  const uint8_t* prologue = bytes.data() + kPageCrcBytes;
  if (std::memcmp(prologue, kHeaderMagic, sizeof(kHeaderMagic)) != 0) {
    return Status::ParseError(path_ + ": not a rdfparams snapshot (bad magic)");
  }
  uint32_t version = util::LoadU32(prologue + sizeof(kHeaderMagic));
  if (version < kMinFormatVersion || version > kFormatVersion) {
    return Status::ParseError(path_ + ": unsupported snapshot version " +
                              std::to_string(version));
  }
  uint32_t page_size = util::LoadU32(prologue + sizeof(kHeaderMagic) + 4);
  if (!ValidPageSize(page_size)) {
    return Status::ParseError(path_ + ": invalid snapshot page size " +
                              std::to_string(page_size));
  }
  if (size % page_size != 0 || size / page_size < 2) {
    return Status::ParseError(path_ + ": truncated snapshot (size " +
                              std::to_string(size) + " is not a whole number "
                              "of pages with a header and a footer)");
  }

  // Full header page: CRC, then the complete decode.
  std::span<const uint8_t> page = bytes.first(page_size);
  RDFPARAMS_RETURN_NOT_OK(VerifyPage(0, page));
  RDFPARAMS_ASSIGN_OR_RETURN(
      header_, DecodeHeaderPayload(page.subspan(kPageCrcBytes), size));

  // Footer page: CRC, magic, page-count agreement; remember the file CRC.
  uint64_t footer_id = header_.page_count - 1;
  page = bytes.subspan(footer_id * page_size, page_size);
  RDFPARAMS_RETURN_NOT_OK(VerifyPage(footer_id, page));
  RDFPARAMS_ASSIGN_OR_RETURN(
      footer_file_crc_,
      DecodeFooterPayload(page.subspan(kPageCrcBytes), header_.page_count));
  return Status::OK();
}

Status SnapshotFile::VerifyFileChecksum() const {
  const uint64_t covered =
      (page_count() - 1) * static_cast<uint64_t>(page_size());
  if (util::Crc32(image().data(), covered) != footer_file_crc_) {
    return Status::DataLoss(path_ + ": whole-file checksum mismatch");
  }
  return Status::OK();
}

}  // namespace rdfparams::storage
