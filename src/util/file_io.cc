#include "util/file_io.h"

#include <errno.h>
#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <cstring>

namespace rdfparams::util {

namespace {

Status Errno(const std::string& what, const std::string& path) {
  return Status::IOError(what + " " + path + ": " + std::strerror(errno));
}

constexpr size_t kWriteBufferBytes = 1 << 20;

}  // namespace

Result<std::unique_ptr<SequentialFileWriter>> SequentialFileWriter::Create(
    const std::string& path) {
  std::string tmp_path = path + ".tmp";
  int fd;
  do {
    fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                0644);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Errno("open", tmp_path);
  auto writer = std::unique_ptr<SequentialFileWriter>(
      new SequentialFileWriter(fd, path, std::move(tmp_path)));
  writer->buffer_.reserve(kWriteBufferBytes);
  return writer;
}

SequentialFileWriter::~SequentialFileWriter() {
  if (fd_ >= 0) ::close(fd_);
  if (!finished_) ::unlink(tmp_path_.c_str());
}

Status SequentialFileWriter::FlushBuffer() {
  size_t done = 0;
  while (done < buffer_.size()) {
    ssize_t n = ::write(fd_, buffer_.data() + done, buffer_.size() - done);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Errno("write", tmp_path_);
    }
    done += static_cast<size_t>(n);
  }
  buffer_.clear();
  return Status::OK();
}

Status SequentialFileWriter::Append(const void* data, size_t n) {
  RDFPARAMS_DCHECK(!finished_);
  buffer_.append(static_cast<const char*>(data), n);
  bytes_written_ += n;
  if (buffer_.size() >= kWriteBufferBytes) return FlushBuffer();
  return Status::OK();
}

Status SequentialFileWriter::Finish() {
  RDFPARAMS_DCHECK(!finished_);
  RDFPARAMS_RETURN_NOT_OK(FlushBuffer());
  if (::fsync(fd_) != 0) return Errno("fsync", tmp_path_);
  if (::close(fd_) != 0) {
    fd_ = -1;
    return Errno("close", tmp_path_);
  }
  fd_ = -1;
  if (::rename(tmp_path_.c_str(), path_.c_str()) != 0) {
    return Errno("rename", tmp_path_);
  }
  finished_ = true;
  return Status::OK();
}

}  // namespace rdfparams::util
