#include "server/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>

namespace rdfparams::server {

namespace {

// Deterministic rejection messages: the stress test asserts these bytes.
std::string MaxConnsMessage(int max_conns) {
  return "server at capacity: max connections (" + std::to_string(max_conns) +
         ") reached";
}
std::string QueueDepthMessage(int queue_depth) {
  return "server at capacity: pending queue full (depth " +
         std::to_string(queue_depth) + ")";
}

}  // namespace

Server::Server(Service* service, ServerConfig config)
    : service_(service), config_(std::move(config)) {}

Server::~Server() { Stop(); }

Status Server::Start() {
  // A dropped client must surface as EPIPE on its own session, never as a
  // process-killing signal (satellite-tested in server_stress_test).
  util::IgnoreSigpipe();

  RDFPARAMS_ASSIGN_OR_RETURN(
      listen_fd_,
      util::ListenTcp(config_.host, config_.port, config_.backlog, &port_));

  size_t threads = util::ThreadPool::ResolveThreads(config_.threads);
  // Handlers run entirely on pool workers (never inline on the accept
  // thread), so the accept loop stays responsive for admission control
  // even when every worker is busy.
  pool_ = std::make_unique<util::ThreadPool>(threads);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (stopping_.load(std::memory_order_acquire)) {
      if (fd >= 0) ::close(fd);
      break;
    }
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // The listener is broken beyond repair (EMFILE storms included);
      // surface it as a shutdown instead of spinning.
      RequestStop();
      break;
    }

    // Replies are small frames; without this, one written while the
    // previous is unacknowledged waits for the client's delayed ACK.
    util::SetNoDelay(fd);

    // Admission control. admitted_ only grows here, so the cap is strict.
    if (admitted_.load(std::memory_order_acquire) >= config_.max_conns) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      WriteFrame(fd, Opcode::kError,
                 EncodeErrorPayload(
                     Status::Unavailable(MaxConnsMessage(config_.max_conns))));
      ::close(fd);
      continue;
    }
    if (queued_.load(std::memory_order_acquire) >= config_.queue_depth) {
      rejected_.fetch_add(1, std::memory_order_relaxed);
      WriteFrame(fd, Opcode::kError,
                 EncodeErrorPayload(Status::Unavailable(
                     QueueDepthMessage(config_.queue_depth))));
      ::close(fd);
      continue;
    }

    accepted_.fetch_add(1, std::memory_order_relaxed);
    admitted_.fetch_add(1, std::memory_order_acq_rel);
    queued_.fetch_add(1, std::memory_order_acq_rel);

    uint64_t id;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      id = next_conn_id_++;
      conns_[id] = fd;
    }
    pool_->Submit([this, fd, id] { HandleConnection(fd, id); });
  }
}

void Server::HandleConnection(int fd, uint64_t id) {
  queued_.fetch_sub(1, std::memory_order_acq_rel);

  Service::Session session(service_->base_dict());
  FrameDecoder decoder;
  char buf[64 * 1024];
  bool shutdown_requested = false;

  for (;;) {
    auto got = util::ReadSome(fd, buf, sizeof(buf));
    if (!got.ok() || *got == 0) break;  // peer closed or socket torn down
    Status fed = decoder.Feed(std::string_view(buf, *got));
    if (!fed.ok()) {
      // Malformed framing: answer once, then the connection is beyond
      // salvage (we can no longer find frame boundaries).
      WriteFrame(fd, Opcode::kError, EncodeErrorPayload(fed));
      break;
    }
    bool client_gone = false;
    while (auto frame = decoder.Next()) {
      served_requests_.fetch_add(1, std::memory_order_relaxed);
      if (frame->opcode == static_cast<uint8_t>(Opcode::kShutdown)) {
        // Acknowledge before initiating teardown, so the requesting
        // client always gets its response.
        WriteFrame(fd, Opcode::kOk, "shutting down");
        shutdown_requested = true;
        break;
      }
      auto response = service_->Handle(frame->opcode, frame->payload,
                                       &session);
      bool wrote =
          response.ok()
              ? WriteFrame(fd, Opcode::kOk, *response)
              : WriteFrame(fd, Opcode::kError,
                           EncodeErrorPayload(response.status()));
      if (!wrote) {  // client vanished (EPIPE under SIG_IGN); drop session
        client_gone = true;
        break;
      }
    }
    if (shutdown_requested || client_gone) break;
  }

  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns_.erase(id);
  }
  ::close(fd);
  admitted_.fetch_sub(1, std::memory_order_acq_rel);
  if (shutdown_requested) RequestStop();
}

bool Server::WriteFrame(int fd, Opcode opcode, std::string_view payload) {
  std::string frame = EncodeFrame(opcode, payload);
  return util::WriteFull(fd, frame.data(), frame.size()).ok();
}

void Server::AwaitShutdown() {
  std::unique_lock<std::mutex> lock(stop_mu_);
  stop_cv_.wait(lock, [this] {
    return stopping_.load(std::memory_order_acquire);
  });
}

void Server::RequestStop() {
  bool was_stopping = stopping_.exchange(true, std::memory_order_acq_rel);
  if (!was_stopping) {
    // Wakes the accept thread out of accept(2); the fd itself stays open
    // until Stop() joins the thread (closing a blocked-on fd is UB-ish).
    // listen_mu_ orders this against Stop()'s reset — a handler-initiated
    // RequestStop (kShutdown frame) can run concurrently with Stop().
    std::lock_guard<std::mutex> lock(listen_mu_);
    if (listen_fd_.valid()) util::ShutdownBoth(listen_fd_.get());
  }
  stop_cv_.notify_all();
}

void Server::Stop() {
  {
    std::lock_guard<std::mutex> lock(stop_mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  RequestStop();
  if (accept_thread_.joinable()) accept_thread_.join();
  {
    std::lock_guard<std::mutex> lock(listen_mu_);
    listen_fd_.reset();
  }

  // Unblock handlers parked in read() by half-closing the *read* side of
  // every live session. A dispatch already in flight still owns a working
  // write side, so its response reaches the client before the handler
  // sees EOF on its next read — accepted requests are served, not lost.
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    for (const auto& [id, fd] : conns_) util::ShutdownRead(fd);
  }
  if (pool_ != nullptr) {
    pool_->Wait();
    pool_.reset();  // joins workers
  }
}

}  // namespace rdfparams::server
