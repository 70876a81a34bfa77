// File output for the storage layer.
//
// SequentialFileWriter appends through a user-space buffer and supports an
// atomic finish: content is written to `path + ".tmp"` and renamed into
// place, so a crashed save never leaves a half-written snapshot under the
// final name. (Snapshots are read back whole: util::MmapFile or
// util::ReadFileToString.)
#ifndef RDFPARAMS_UTIL_FILE_IO_H_
#define RDFPARAMS_UTIL_FILE_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "util/status.h"

namespace rdfparams::util {

/// Buffered append-only writer with write-to-temp + rename-on-finish.
class SequentialFileWriter {
 public:
  /// Opens `path + ".tmp"` for writing (truncating any leftover).
  [[nodiscard]] static Result<std::unique_ptr<SequentialFileWriter>> Create(
      const std::string& path);
  ~SequentialFileWriter();
  SequentialFileWriter(const SequentialFileWriter&) = delete;
  SequentialFileWriter& operator=(const SequentialFileWriter&) = delete;

  [[nodiscard]] Status Append(const void* data, size_t n);
  uint64_t bytes_written() const { return bytes_written_; }

  /// Flushes, fsyncs, closes, and renames the temp file onto the final
  /// path. No further Append is allowed. Without Finish, the destructor
  /// discards the temp file.
  [[nodiscard]] Status Finish();

 private:
  SequentialFileWriter(int fd, std::string path, std::string tmp_path)
      : fd_(fd), path_(std::move(path)), tmp_path_(std::move(tmp_path)) {}

  [[nodiscard]] Status FlushBuffer();

  int fd_;
  std::string path_;
  std::string tmp_path_;
  std::string buffer_;
  uint64_t bytes_written_ = 0;
  bool finished_ = false;
};

}  // namespace rdfparams::util

#endif  // RDFPARAMS_UTIL_FILE_IO_H_
