#include "service/wire.hpp"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "obs/obs.hpp"
#include "service/protocol.hpp"

namespace ad::service {

namespace {

Status ioError(const char* what) {
  return Status(ErrorCode::kInternal, std::string(what) + ": " + std::strerror(errno));
}

bool isTimeout(int err) { return err == EAGAIN || err == EWOULDBLOCK; }

/// Reads exactly `n` bytes. `sawAny` reports whether any byte arrived before
/// a failure, distinguishing a clean EOF from a truncated frame.
Status readExact(int fd, void* buffer, std::size_t n, bool& sawAny) {
  auto* p = static_cast<unsigned char*>(buffer);
  std::size_t got = 0;
  while (got < n) {
    const ssize_t r = ::read(fd, p + got, n - got);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      sawAny = true;
      continue;
    }
    if (r == 0) {
      return sawAny ? Status(ErrorCode::kInvalidArgument, "protocol: truncated frame")
                    : Status(ErrorCode::kCancelled, "peer closed the connection");
    }
    if (errno == EINTR) continue;
    if (isTimeout(errno)) return Status(ErrorCode::kDeadline, "socket read timed out");
    return ioError("read");
  }
  return Status::ok();
}

Status writeAll(int fd, const void* buffer, std::size_t n) {
  const auto* p = static_cast<const unsigned char*>(buffer);
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, p + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && isTimeout(errno)) {
      return Status(ErrorCode::kDeadline, "socket write timed out");
    }
    return ioError("send");
  }
  return Status::ok();
}

void setTimeouts(int fd, std::int64_t recvMs, std::int64_t sendMs) {
  const auto toTimeval = [](std::int64_t ms) {
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(ms / 1000);
    tv.tv_usec = static_cast<suseconds_t>((ms % 1000) * 1000);
    return tv;
  };
  if (recvMs > 0) {
    const timeval tv = toTimeval(recvMs);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  }
  if (sendMs > 0) {
    const timeval tv = toTimeval(sendMs);
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  }
}

}  // namespace

Expected<std::string> readFrame(int fd) {
  unsigned char header[4];
  bool sawAny = false;
  if (Status s = readExact(fd, header, sizeof header, sawAny); !s.isOk()) return s;
  Expected<std::uint32_t> length = decodeFrameLength(header);
  if (!length.ok()) return length.status();
  std::string payload;
  payload.resize(*length);  // bounded: decodeFrameLength capped it
  if (Status s = readExact(fd, payload.data(), payload.size(), sawAny); !s.isOk()) return s;
  return payload;
}

Status writeFrame(int fd, std::string_view payload) {
  const std::string frame = encodeFrame(payload);
  return writeAll(fd, frame.data(), frame.size());
}

SocketServer::SocketServer(Server& core, SocketOptions options)
    : core_(core), options_(std::move(options)) {}

SocketServer::~SocketServer() { stop(); }

Status SocketServer::start() {
  sockaddr_un addr{};
  if (options_.path.empty() || options_.path.size() >= sizeof addr.sun_path) {
    return Status(ErrorCode::kInvalidArgument,
                  "socket path must be 1.." + std::to_string(sizeof addr.sun_path - 1) +
                      " bytes");
  }
  listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listenFd_ < 0) return ioError("socket");
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, options_.path.c_str(), options_.path.size() + 1);
  ::unlink(options_.path.c_str());  // stale socket from a previous run
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const Status s = ioError("bind");
    ::close(listenFd_);
    listenFd_ = -1;
    return s;
  }
  if (::listen(listenFd_, options_.backlog) != 0) {
    const Status s = ioError("listen");
    ::close(listenFd_);
    listenFd_ = -1;
    return s;
  }
  acceptThread_ = std::thread([this] { acceptLoop(); });
  return Status::ok();
}

void SocketServer::acceptLoop() {
  while (!stopping_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener closed by stop(), or fatal
    }
    setTimeouts(fd, options_.recvTimeoutMs, options_.sendTimeoutMs);
    if (active_.load(std::memory_order_relaxed) >=
        static_cast<std::int64_t>(options_.maxConnections)) {
      // Connection-level shedding: one frame telling the client to back off,
      // then close. No thread is spawned for it.
      obs::metrics().counter("ad.service.shed_overload").add(1);
      Response shed;
      shed.kind = ResponseKind::kShed;
      shed.retryAfterMs = core_.options().retryAfterMs;
      (void)writeFrame(fd, serializeResponse(shed));
      ::close(fd);
      continue;
    }
    active_.fetch_add(1, std::memory_order_relaxed);
    {
      std::lock_guard<std::mutex> lock(mu_);
      connections_.push_back(fd);
    }
    // Detached with an active_ count rather than joinable: thousands of
    // short-lived connections must not accumulate un-joined thread objects
    // (and their stacks) until stop(). stop() waits for active_ to reach 0.
    std::thread([this, fd] { serveConnection(fd); }).detach();
  }
}

void SocketServer::serveConnection(int fd) {
  while (!stopping_.load(std::memory_order_acquire)) {
    Expected<std::string> payload = readFrame(fd);
    if (!payload.ok()) {
      // Clean EOF (kCancelled) ends the session silently; anything else gets
      // a best-effort error frame so a buggy-but-listening client learns why.
      if (payload.status().code() != ErrorCode::kCancelled) {
        Response err;
        err.kind = ResponseKind::kError;
        err.errorCode = errorCodeName(payload.status().code());
        err.error = payload.status().str();
        (void)writeFrame(fd, serializeResponse(err));
      }
      break;
    }
    Expected<Request> request = parseRequest(*payload);
    if (!request.ok()) {
      Response err;
      err.kind = ResponseKind::kError;
      err.errorCode = errorCodeName(request.status().code());
      err.error = request.status().str();
      (void)writeFrame(fd, serializeResponse(err));
      break;  // protocol violation: drop the connection, not just the frame
    }
    const bool isShutdown = request->op == Op::kShutdown;
    const Response response = core_.call(std::move(*request));
    if (!writeFrame(fd, serializeResponse(response)).isOk()) break;
    if (isShutdown) {
      {
        std::lock_guard<std::mutex> lock(mu_);
        shutdownRequested_.store(true, std::memory_order_release);
      }
      shutdownCv_.notify_all();
      break;
    }
  }
  // Deregister before closing: closeAllConnections() only touches fds still
  // in the registry, so it can never poke a number the kernel has reused.
  {
    std::lock_guard<std::mutex> lock(mu_);
    connections_.erase(std::remove(connections_.begin(), connections_.end(), fd),
                       connections_.end());
  }
  ::close(fd);
  {
    // Last member access of this detached thread: decrement and notify under
    // the lock, so stop()'s active_ == 0 wait cannot wake (and destroy the
    // object) while this thread still touches it.
    std::lock_guard<std::mutex> lock(mu_);
    active_.fetch_sub(1, std::memory_order_relaxed);
    shutdownCv_.notify_all();
  }
}

void SocketServer::closeAllConnections() {
  std::lock_guard<std::mutex> lock(mu_);
  // SHUT_RDWR unblocks any thread parked in read(); the serving thread then
  // fails its read, deregisters, and closes the fd itself.
  for (int fd : connections_) ::shutdown(fd, SHUT_RDWR);
}

void SocketServer::stop() {
  if (stopping_.exchange(true, std::memory_order_acq_rel)) return;
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);  // unblock accept()
  if (acceptThread_.joinable()) acceptThread_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);  // only once the accept loop no longer reads it
    listenFd_ = -1;
  }
  closeAllConnections();
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdownCv_.wait(lock, [this] { return active_.load(std::memory_order_relaxed) == 0; });
  }
  ::unlink(options_.path.c_str());
  shutdownCv_.notify_all();  // release waitForShutdownRequest() blockers
}

void SocketServer::waitForShutdownRequest() {
  std::unique_lock<std::mutex> lock(mu_);
  shutdownCv_.wait(lock, [this] {
    return shutdownRequested_.load(std::memory_order_acquire) ||
           stopping_.load(std::memory_order_acquire);
  });
}

}  // namespace ad::service
