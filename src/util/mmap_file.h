// MmapFile: a read-only memory mapping of a whole file.
//
// The zero-copy substrate for snapshot opens: the storage layer decodes
// the whole snapshot image straight from the mapping, hands string_views
// into it to the dictionary, and keeps the mapping alive with a
// shared_ptr, so the views outlive any one opener scope. On platforms
// without mmap, Supported() is false and callers read the file into
// memory instead (util::ReadFileToString) — that path is always available
// and byte-identical in output.
#ifndef RDFPARAMS_UTIL_MMAP_FILE_H_
#define RDFPARAMS_UTIL_MMAP_FILE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rdfparams::util {

class MmapFile {
 public:
  /// True when this platform supports memory-mapped files.
  static bool Supported();

  /// Maps `path` read-only in its entirety. Fails with IOError when the
  /// file cannot be opened or mapped, and Unsupported when Supported()
  /// is false. A zero-length file maps to an empty view.
  [[nodiscard]] static Result<std::shared_ptr<MmapFile>> Map(
      const std::string& path);

  ~MmapFile();
  MmapFile(const MmapFile&) = delete;
  MmapFile& operator=(const MmapFile&) = delete;

  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data_), size_};
  }

 private:
  MmapFile(uint8_t* data, size_t size) : data_(data), size_(size) {}

  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace rdfparams::util

#endif  // RDFPARAMS_UTIL_MMAP_FILE_H_
