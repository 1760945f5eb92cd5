#include "net/socket.h"

#include "net/fault_injection.h"

#include <arpa/inet.h>
#include <errno.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <thread>

namespace wireframe {
namespace net {

namespace {

/// Wait granularity: every blocking poll wakes at least this often to
/// check the abort flag, so a flipped flag unsticks an I/O wait within
/// ~10 ms regardless of the caller's total timeout.
constexpr int kPollSliceMs = 10;

int64_t NowMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Classifies errno into the typed transport statuses retry policy
/// keys on: refused connects and reset/broken-pipe streams get their
/// own codes; everything else stays a generic kIOError.
Status ErrnoStatus(const char* what, int err) {
  const std::string msg = std::string(what) + ": " + std::strerror(err);
  if (err == ECONNREFUSED) return Status::ConnectionRefused(msg);
  if (err == ECONNRESET || err == EPIPE) {
    return Status::ConnectionReset(msg);
  }
  return Status::IOError(msg);
}

Status Errno(const char* what) { return ErrnoStatus(what, errno); }

Status SetNonBlocking(int fd) {
  const int flags = fcntl(fd, F_GETFL, 0);
  if (flags < 0 || fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return Errno("fcntl(O_NONBLOCK)");
  }
  return Status::OK();
}

/// Polls `fd` for `events` in abort-aware slices. Returns OK when ready,
/// kTimedOut / kCancelled / kIOError otherwise. `deadline_ms` < 0 waits
/// forever (still slicing for abort).
Status PollFor(int fd, short events, int64_t deadline_ms,
               const std::atomic<bool>* abort, const char* what) {
  for (;;) {
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
      return Status::Cancelled(std::string(what) + " aborted");
    }
    int wait = kPollSliceMs;
    bool last = false;  // past the deadline: one non-blocking look
    if (deadline_ms >= 0) {
      const int64_t left = deadline_ms - NowMs();
      last = left <= 0;
      if (left < wait) wait = last ? 0 : static_cast<int>(left);
    }
    struct pollfd pfd = {fd, events, 0};
    const int rc = poll(&pfd, 1, wait);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Errno(what);
    }
    if (rc > 0 && (pfd.revents & (events | POLLHUP | POLLERR)) != 0) {
      return Status::OK();  // readable/writable — or hung up, which the
                            // following read/write reports precisely
    }
    if (last) return Status::TimedOut(std::string(what) + " timed out");
    // Otherwise the slice expired: re-check abort/deadline.
  }
}

Result<SocketAddress> ParseTcp(const std::string& text) {
  const size_t colon = text.rfind(':');
  if (colon == std::string::npos || colon == 0 ||
      colon + 1 == text.size()) {
    return Status::InvalidArgument(
        "expected HOST:PORT or unix:PATH, got '" + text + "'");
  }
  SocketAddress address;
  address.host_or_path = text.substr(0, colon);
  char* end = nullptr;
  const unsigned long port = std::strtoul(text.c_str() + colon + 1, &end,
                                          10);
  if (*end != '\0' || port > 65535) {
    return Status::InvalidArgument("bad port in '" + text + "'");
  }
  address.port = static_cast<uint16_t>(port);
  return address;
}

Result<struct sockaddr_in> TcpSockaddr(const SocketAddress& address) {
  struct sockaddr_in sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sin_family = AF_INET;
  sa.sin_port = htons(address.port);
  std::string host = address.host_or_path;
  if (host == "localhost" || host.empty()) host = "127.0.0.1";
  if (inet_pton(AF_INET, host.c_str(), &sa.sin_addr) != 1) {
    return Status::InvalidArgument("cannot resolve host '" + host +
                                   "' (dotted quad or localhost only)");
  }
  return sa;
}

Result<struct sockaddr_un> UnixSockaddr(const SocketAddress& address) {
  struct sockaddr_un sa;
  std::memset(&sa, 0, sizeof sa);
  sa.sun_family = AF_UNIX;
  if (address.host_or_path.size() >= sizeof sa.sun_path) {
    return Status::InvalidArgument("unix socket path too long: " +
                                   address.host_or_path);
  }
  std::memcpy(sa.sun_path, address.host_or_path.c_str(),
              address.host_or_path.size() + 1);
  return sa;
}

}  // namespace

Result<SocketAddress> SocketAddress::Parse(const std::string& text) {
  if (text.rfind("unix:", 0) == 0) {
    SocketAddress address;
    address.is_unix = true;
    address.host_or_path = text.substr(5);
    if (address.host_or_path.empty()) {
      return Status::InvalidArgument("empty unix socket path");
    }
    return address;
  }
  return ParseTcp(text);
}

std::string SocketAddress::ToString() const {
  if (is_unix) return "unix:" + host_or_path;
  return host_or_path + ":" + std::to_string(port);
}

Result<Socket> Socket::Listen(const SocketAddress& address, int backlog) {
  const int domain = address.is_unix ? AF_UNIX : AF_INET;
  Socket sock(::socket(domain, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket");
  WF_RETURN_NOT_OK(SetNonBlocking(sock.fd()));
  if (address.is_unix) {
    ::unlink(address.host_or_path.c_str());
    WF_ASSIGN_OR_RETURN(auto sa, UnixSockaddr(address));
    if (::bind(sock.fd(), reinterpret_cast<struct sockaddr*>(&sa),
               sizeof sa) < 0) {
      return Errno("bind");
    }
  } else {
    const int one = 1;
    setsockopt(sock.fd(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    WF_ASSIGN_OR_RETURN(auto sa, TcpSockaddr(address));
    if (::bind(sock.fd(), reinterpret_cast<struct sockaddr*>(&sa),
               sizeof sa) < 0) {
      return Errno("bind");
    }
  }
  if (::listen(sock.fd(), backlog) < 0) return Errno("listen");
  return sock;
}

Result<Socket> Socket::Connect(const SocketAddress& address,
                               int timeout_ms, int recv_buffer_bytes) {
  const int domain = address.is_unix ? AF_UNIX : AF_INET;
  Socket sock(::socket(domain, SOCK_STREAM, 0));
  if (!sock.valid()) return Errno("socket");
  WF_RETURN_NOT_OK(SetNonBlocking(sock.fd()));
  if (recv_buffer_bytes > 0) {
    // Before connect(2): the receive window is negotiated during the
    // handshake and never shrinks afterwards.
    WF_RETURN_NOT_OK(sock.SetReceiveBufferBytes(recv_buffer_bytes));
  }
  int rc;
  if (address.is_unix) {
    WF_ASSIGN_OR_RETURN(auto sa, UnixSockaddr(address));
    rc = ::connect(sock.fd(), reinterpret_cast<struct sockaddr*>(&sa),
                   sizeof sa);
  } else {
    WF_ASSIGN_OR_RETURN(auto sa, TcpSockaddr(address));
    rc = ::connect(sock.fd(), reinterpret_cast<struct sockaddr*>(&sa),
                   sizeof sa);
  }
  if (rc < 0 && errno != EINPROGRESS) return Errno("connect");
  if (rc < 0) {
    const int64_t deadline =
        timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
    WF_RETURN_NOT_OK(
        PollFor(sock.fd(), POLLOUT, deadline, nullptr, "connect"));
    int err = 0;
    socklen_t len = sizeof err;
    if (getsockopt(sock.fd(), SOL_SOCKET, SO_ERROR, &err, &len) < 0 ||
        err != 0) {
      const std::string what = "connect to " + address.ToString();
      return ErrnoStatus(what.c_str(), err != 0 ? err : errno);
    }
  }
  if (!address.is_unix) {
    const int one = 1;
    setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  }
  return sock;
}

Result<Socket> Socket::Accept(int timeout_ms,
                              const std::atomic<bool>* abort) {
  const int64_t deadline = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  for (;;) {
    WF_RETURN_NOT_OK(PollFor(fd_, POLLIN, deadline, abort, "accept"));
    const int client = ::accept(fd_, nullptr, nullptr);
    if (client >= 0) {
      Socket sock(client);
      WF_RETURN_NOT_OK(SetNonBlocking(sock.fd()));
      const int one = 1;
      setsockopt(sock.fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      return sock;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR ||
        errno == ECONNABORTED) {
      continue;  // raced another accept or the client gave up; re-poll
    }
    return Errno("accept");
  }
}

Result<uint16_t> Socket::BoundPort() const {
  struct sockaddr_in sa;
  socklen_t len = sizeof sa;
  if (getsockname(fd_, reinterpret_cast<struct sockaddr*>(&sa), &len) <
          0 ||
      sa.sin_family != AF_INET) {
    return Errno("getsockname");
  }
  return ntohs(sa.sin_port);
}

Status Socket::WaitReadable(int timeout_ms,
                            const std::atomic<bool>* abort) {
  const int64_t deadline = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  return PollFor(fd_, POLLIN, deadline, abort, "read");
}

Status Socket::ReadExact(void* buffer, size_t n, int timeout_ms,
                         const std::atomic<bool>* abort) {
  char* out = static_cast<char*>(buffer);
  size_t got = 0;
  const int64_t deadline = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  while (got < n) {
    size_t want = n - got;
    if (fault_ != nullptr) {
      FaultIoPlan plan;
      Status injected =
          fault_->BeforeIo(FaultDirection::kRead, want, &plan);
      if (!injected.ok()) {
        if (plan.terminate == FaultTermination::kReset) {
          Reset();
        } else {
          Close();
        }
        return injected;
      }
      if (plan.max_bytes == 0) {
        // Blackholed: deliver nothing this round, but keep honoring
        // the caller's deadline and abort flag — a fault must never
        // turn a bounded wait into a hang.
        if (abort != nullptr && abort->load(std::memory_order_relaxed)) {
          return Status::Cancelled("read aborted");
        }
        if (deadline >= 0 && NowMs() >= deadline) {
          return Status::TimedOut("read timed out");
        }
        std::this_thread::sleep_for(
            std::chrono::milliseconds(kPollSliceMs));
        continue;
      }
      want = plan.max_bytes;
    }
    const ssize_t rc = ::read(fd_, out + got, want);
    if (rc > 0) {
      if (fault_ != nullptr) {
        fault_->AfterIo(FaultDirection::kRead, out + got,
                        static_cast<size_t>(rc));
      }
      got += static_cast<size_t>(rc);
      continue;
    }
    if (rc == 0) {
      // Typed: an EOF here is the peer tearing the stream down, which
      // retry policy must be able to tell apart from local I/O trouble.
      return Status::ConnectionReset(got == 0
                                         ? "connection closed by peer"
                                         : "connection closed mid-frame");
    }
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) return Errno("read");
    WF_RETURN_NOT_OK(PollFor(fd_, POLLIN, deadline, abort, "read"));
  }
  return Status::OK();
}

Status Socket::WriteAll(const void* buffer, size_t n, int timeout_ms,
                        const std::atomic<bool>* abort) {
  const char* in = static_cast<const char*>(buffer);
  size_t sent = 0;
  const int64_t deadline = timeout_ms < 0 ? -1 : NowMs() + timeout_ms;
  std::string scratch;
  while (sent < n) {
    size_t chunk = n - sent;
    const char* src = in + sent;
    if (fault_ != nullptr) {
      FaultIoPlan plan;
      Status injected =
          fault_->BeforeIo(FaultDirection::kWrite, chunk, &plan);
      if (!injected.ok()) {
        if (plan.terminate == FaultTermination::kReset) {
          Reset();
        } else {
          Close();
        }
        return injected;
      }
      chunk = plan.max_bytes;
      if (plan.swallow) {
        // Blackholed: the bytes vanish from the wire but the caller
        // sees success — the peer is now mid-frame forever, which is
        // what liveness timeouts are for.
        fault_->AfterIo(FaultDirection::kWrite, const_cast<char*>(src),
                        chunk);
        sent += chunk;
        continue;
      }
      if (fault_->StageWrite(src, chunk, &scratch)) src = scratch.data();
    }
    const ssize_t rc = ::send(fd_, src, chunk, MSG_NOSIGNAL);
    if (rc > 0) {
      if (fault_ != nullptr) {
        fault_->AfterIo(FaultDirection::kWrite, const_cast<char*>(src),
                        static_cast<size_t>(rc));
      }
      sent += static_cast<size_t>(rc);
      continue;
    }
    if (rc < 0 && errno == EINTR) continue;
    if (rc < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      return Errno("write");
    }
    WF_RETURN_NOT_OK(PollFor(fd_, POLLOUT, deadline, abort, "write"));
  }
  return Status::OK();
}

void Socket::ShutdownWrite() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void Socket::Reset() {
  if (fd_ < 0) return;
  struct linger lg = {1, 0};
  setsockopt(fd_, SOL_SOCKET, SO_LINGER, &lg, sizeof lg);
  Close();
}

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status Socket::SetReceiveBufferBytes(int bytes) {
  if (setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, sizeof bytes) < 0) {
    return Errno("setsockopt(SO_RCVBUF)");
  }
  return Status::OK();
}

Status Socket::SetSendBufferBytes(int bytes) {
  if (setsockopt(fd_, SOL_SOCKET, SO_SNDBUF, &bytes, sizeof bytes) < 0) {
    return Errno("setsockopt(SO_SNDBUF)");
  }
  return Status::OK();
}

std::string PeerName(int fd) {
  struct sockaddr_storage ss;
  socklen_t len = sizeof ss;
  if (fd < 0 ||
      getpeername(fd, reinterpret_cast<struct sockaddr*>(&ss), &len) < 0) {
    return "?";
  }
  if (ss.ss_family == AF_UNIX) return "unix";
  if (ss.ss_family == AF_INET) {
    const auto* sa = reinterpret_cast<struct sockaddr_in*>(&ss);
    char host[INET_ADDRSTRLEN] = {0};
    inet_ntop(AF_INET, &sa->sin_addr, host, sizeof host);
    return std::string(host) + ":" + std::to_string(ntohs(sa->sin_port));
  }
  return "?";
}

}  // namespace net
}  // namespace wireframe
