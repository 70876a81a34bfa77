// Thin POSIX TCP helpers for the workload server: an RAII fd owner plus
// loopback listen/connect and EINTR-safe full-buffer read/write loops.
//
// Everything here is transport only — framing and request semantics live
// in src/server/wire.h. Functions return Status/Result (the repo-wide
// error convention) instead of errno side channels.
#ifndef RDFPARAMS_UTIL_SOCKET_H_
#define RDFPARAMS_UTIL_SOCKET_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/status.h"

namespace rdfparams::util {

/// Move-only owner of a file descriptor; closes on destruction.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  ~UniqueFd() { reset(); }

  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) reset(other.release());
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }

  /// Relinquishes ownership without closing.
  int release() {
    int fd = fd_;
    fd_ = -1;
    return fd;
  }

  /// Closes the current fd (if any) and adopts `fd`.
  void reset(int fd = -1);

 private:
  int fd_ = -1;
};

/// Installs SIG_IGN for SIGPIPE, process-wide and idempotent. A server
/// writing a response to a client that already closed its socket must get
/// EPIPE from write() — the default SIGPIPE disposition would kill the
/// whole daemon instead. Called by server::Server::Start(); safe to call
/// from tests and clients too.
void IgnoreSigpipe();

/// Creates a listening TCP socket bound to `host`:`port` (IPv4 dotted
/// quad, e.g. "127.0.0.1"). `port` 0 asks the kernel for an ephemeral
/// port; the actually bound port is written to `*bound_port` either way.
[[nodiscard]] Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port);

/// Blocking connect to `host`:`port`. The socket has TCP_NODELAY set (see
/// SetNoDelay).
[[nodiscard]] Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port);

/// Sets TCP_NODELAY on a connected socket. The wire protocol writes each
/// frame with one write(); under Nagle's algorithm a small frame written
/// while the previous one is unacknowledged waits for the peer's delayed
/// ACK (~40 ms on Linux). Best effort: errors are ignored.
void SetNoDelay(int fd);

/// Reads up to `n` bytes, retrying on EINTR. Returns the byte count;
/// 0 means orderly EOF.
[[nodiscard]] Result<size_t> ReadSome(int fd, void* buf, size_t n);

/// Writes exactly `n` bytes, retrying on EINTR and short writes. With
/// SIGPIPE ignored, a vanished peer surfaces as an IOError (EPIPE /
/// ECONNRESET) instead of a signal.
[[nodiscard]] Status WriteFull(int fd, const void* data, size_t n);

/// Reads exactly `n` bytes; IOError on EOF before `n` bytes arrived.
[[nodiscard]] Status ReadFull(int fd, void* buf, size_t n);

/// Half-close helpers (shutdown(2)); used for graceful teardown and the
/// half-closed-socket tests. Ignore errors on already-dead sockets.
void ShutdownRead(int fd);
void ShutdownWrite(int fd);
void ShutdownBoth(int fd);

}  // namespace rdfparams::util

#endif  // RDFPARAMS_UTIL_SOCKET_H_
