#ifndef WIREFRAME_NET_SOCKET_H_
#define WIREFRAME_NET_SOCKET_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>

#include "util/result.h"
#include "util/status.h"

namespace wireframe {
namespace net {

class FaultInjector;

/// A listen/connect address. Two spellings:
///   "HOST:PORT"   TCP (HOST may be a dotted quad or "localhost"; PORT 0
///                 asks the kernel for a free port — read it back with
///                 Socket::BoundPort)
///   "unix:PATH"   Unix-domain stream socket at PATH
struct SocketAddress {
  bool is_unix = false;
  std::string host_or_path;
  uint16_t port = 0;

  static Result<SocketAddress> Parse(const std::string& text);
  std::string ToString() const;
};

/// Move-only RAII wrapper over one stream socket fd. All blocking waits
/// go through poll() with a millisecond timeout so callers can bound
/// every I/O step; the optional `abort` flag turns a wait into an
/// immediate kCancelled, which is how the server detaches reader and
/// writer threads from a dying connection.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(Socket&& other) noexcept : fd_(other.fd_), fault_(other.fault_) {
    other.fd_ = -1;
    other.fault_ = nullptr;
  }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      fault_ = other.fault_;
      other.fd_ = -1;
      other.fault_ = nullptr;
    }
    return *this;
  }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }

  /// Binds + listens. Unix paths are unlinked first so a stale socket
  /// file from a crashed server does not block restart.
  static Result<Socket> Listen(const SocketAddress& address, int backlog);

  /// Connects with a bounded wait (non-blocking connect + poll).
  /// `recv_buffer_bytes` > 0 shrinks SO_RCVBUF BEFORE connect(2) — the
  /// TCP window is negotiated at connect time, so setting it later
  /// leaves the peer free to blast past the nominal buffer.
  static Result<Socket> Connect(const SocketAddress& address,
                                int timeout_ms,
                                int recv_buffer_bytes = 0);

  /// Waits up to `timeout_ms` for one pending connection. kTimedOut when
  /// none arrived, kCancelled when `abort` flipped, kIOError on a dead
  /// listener.
  Result<Socket> Accept(int timeout_ms,
                        const std::atomic<bool>* abort = nullptr);

  /// The port a TCP listener actually bound (use after Listen on port 0).
  Result<uint16_t> BoundPort() const;

  /// Waits until the socket has readable data (or the peer hung up —
  /// the following read then reports it precisely). kTimedOut after
  /// `timeout_ms` (0 looks once without blocking), kCancelled when
  /// `abort` flipped. The server's reader threads idle here in short
  /// slices, and look here between query-completion waits, so cancel
  /// frames, disconnects, and shutdown drains are all noticed promptly.
  Status WaitReadable(int timeout_ms,
                      const std::atomic<bool>* abort = nullptr);

  /// Reads exactly `n` bytes. `timeout_ms` bounds the TOTAL wait for the
  /// n bytes; kTimedOut on expiry (partial data discarded), kIOError on
  /// peer close or socket error (the message says which), kCancelled on
  /// abort.
  Status ReadExact(void* buffer, size_t n, int timeout_ms,
                   const std::atomic<bool>* abort = nullptr);

  /// Writes all `n` bytes, same timeout/abort contract as ReadExact.
  Status WriteAll(const void* buffer, size_t n, int timeout_ms,
                  const std::atomic<bool>* abort = nullptr);

  /// Half-closes the write side (peer sees EOF after draining).
  void ShutdownWrite();
  /// Hard-resets the connection: SO_LINGER 0 + close sends RST instead
  /// of FIN, which is how tests simulate a killed client.
  void Reset();
  void Close();

  /// Arms a deterministic fault plane (net/fault_injection.h) on this
  /// socket's read/write path; null disarms. The injector is borrowed
  /// and must outlive the socket's I/O. An unarmed socket pays exactly
  /// one pointer null check per I/O attempt — the fault plane is
  /// compiled in always so tests and production run the same code.
  void ArmFaults(FaultInjector* injector) { fault_ = injector; }
  FaultInjector* armed_faults() const { return fault_; }

  /// Shrinks the kernel receive buffer (SO_RCVBUF). Only fully
  /// effective before the connection is established — prefer the
  /// Connect parameter for client sockets.
  Status SetReceiveBufferBytes(int bytes);
  /// Shrinks the kernel send buffer (SO_SNDBUF). The server applies
  /// this to accepted sockets so loopback cannot absorb an entire
  /// result stream into kernel memory and defeat the app-level
  /// back-pressure bound.
  Status SetSendBufferBytes(int bytes);

 private:
  int fd_ = -1;
  FaultInjector* fault_ = nullptr;
};

/// Human-readable peer name of a connected socket ("1.2.3.4:5678" for
/// TCP, "unix" for unix-domain peers, "?" when the fd is dead).
std::string PeerName(int fd);

}  // namespace net
}  // namespace wireframe

#endif  // WIREFRAME_NET_SOCKET_H_
