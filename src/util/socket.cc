#include "util/socket.h"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <mutex>

namespace rdfparams::util {

namespace {

Status ErrnoStatus(const std::string& what, int err) {
  return Status::IOError(what + ": " + std::strerror(err));
}

}  // namespace

void UniqueFd::reset(int fd) {
  if (fd_ >= 0) ::close(fd_);
  fd_ = fd;
}

void IgnoreSigpipe() {
  static std::once_flag once;
  std::call_once(once, [] { std::signal(SIGPIPE, SIG_IGN); });
}

Result<UniqueFd> ListenTcp(const std::string& host, uint16_t port,
                           int backlog, uint16_t* bound_port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);

  // Restart-friendly: rebinding the port of a just-stopped server must not
  // fail on lingering TIME_WAIT sockets.
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    return ErrnoStatus("bind " + host + ":" + std::to_string(port), errno);
  }
  if (::listen(fd.get(), backlog) != 0) return ErrnoStatus("listen", errno);

  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) !=
        0) {
      return ErrnoStatus("getsockname", errno);
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

Result<UniqueFd> ConnectTcp(const std::string& host, uint16_t port) {
  UniqueFd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return ErrnoStatus("socket", errno);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("bad IPv4 address '" + host + "'");
  }
  int rc;
  do {
    rc = ::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    return ErrnoStatus("connect " + host + ":" + std::to_string(port), errno);
  }
  SetNoDelay(fd.get());
  return fd;
}

void SetNoDelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

Result<size_t> ReadSome(int fd, void* buf, size_t n) {
  for (;;) {
    ssize_t got = ::read(fd, buf, n);
    if (got >= 0) return static_cast<size_t>(got);
    if (errno != EINTR) return ErrnoStatus("read", errno);
  }
}

Status WriteFull(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  size_t left = n;
  while (left > 0) {
    ssize_t wrote = ::write(fd, p, left);
    if (wrote < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write", errno);
    }
    p += wrote;
    left -= static_cast<size_t>(wrote);
  }
  return Status::OK();
}

Status ReadFull(int fd, void* buf, size_t n) {
  char* p = static_cast<char*>(buf);
  size_t left = n;
  while (left > 0) {
    RDFPARAMS_ASSIGN_OR_RETURN(size_t got, ReadSome(fd, p, left));
    if (got == 0) {
      return Status::IOError("connection closed mid-read (" +
                             std::to_string(n - left) + "/" +
                             std::to_string(n) + " bytes)");
    }
    p += got;
    left -= got;
  }
  return Status::OK();
}

void ShutdownRead(int fd) { ::shutdown(fd, SHUT_RD); }
void ShutdownWrite(int fd) { ::shutdown(fd, SHUT_WR); }
void ShutdownBoth(int fd) { ::shutdown(fd, SHUT_RDWR); }

}  // namespace rdfparams::util
