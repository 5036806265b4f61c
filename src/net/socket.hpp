#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>

/// Thin, RAII-owning wrappers over the POSIX socket and epoll calls the
/// serving front-end uses. Every raw `socket(2)` / `epoll_*(2)` call in the
/// repository lives in this module (plus the implementation files of
/// `src/net/`); `tools/lint.sh` bans them everywhere else so the front-end
/// stays the single place that owns fd lifecycle, non-blocking setup, and
/// error mapping.
namespace fifer::net {

/// Owning file descriptor. -1 means "none".
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }

  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;
  Fd(Fd&& o) noexcept : fd_(o.release()) {}
  Fd& operator=(Fd&& o) noexcept {
    if (this != &o) {
      reset();
      fd_ = o.release();
    }
    return *this;
  }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  explicit operator bool() const { return valid(); }

  int release() { return std::exchange(fd_, -1); }
  void reset();  ///< close(2) if owning; safe to call repeatedly.

 private:
  int fd_ = -1;
};

/// Accepting half of the server: socket + bind + listen on a TCP port.
/// Port 0 asks the kernel for a free port; `port()` reports the bound one
/// (getsockname), which is what the loopback tests and the CI smoke use.
class Listener {
 public:
  Listener() = default;

  /// Binds and listens. Returns false (errno preserved in `error()`) on
  /// failure — EADDRINUSE in particular, so callers can retry another port.
  bool listen(const std::string& bind_address, std::uint16_t port, int backlog);

  bool listening() const { return fd_.valid(); }
  int fd() const { return fd_.get(); }
  std::uint16_t port() const { return port_; }
  int error() const { return errno_; }

  /// Non-blocking accept4(SOCK_NONBLOCK). Returns an invalid Fd when no
  /// connection is pending (EAGAIN) or on error.
  Fd accept();

  void close() { fd_.reset(); }

 private:
  Fd fd_;
  std::uint16_t port_ = 0;
  int errno_ = 0;
};

/// Blocking TCP connect to host:port (numeric IPv4 dotted quad or
/// "localhost"); the returned fd is switched to non-blocking. Invalid Fd on
/// failure.
Fd connect_to(const std::string& host, std::uint16_t port);

/// Marks `fd` non-blocking; false on fcntl failure.
bool set_nonblocking(int fd);

/// Disables Nagle (TCP_NODELAY) — the protocol's frames are tiny and
/// latency-measured, so coalescing delay is pure noise.
void set_nodelay(int fd);

/// Readiness multiplexer over epoll, the shape both the server loop and the
/// load generator share.
class Poller {
 public:
  using WallTime = std::chrono::steady_clock::time_point;

  Poller();
  ~Poller() = default;

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  bool valid() const { return epoll_.valid(); }

  /// Registers `fd` with edge-kind flags. `want_write` arms EPOLLOUT in
  /// addition to EPOLLIN. `data` is returned verbatim in ready().
  bool add(int fd, std::uint64_t data, bool want_write = false);
  bool modify(int fd, std::uint64_t data, bool want_write);
  void remove(int fd);

  struct Event {
    std::uint64_t data = 0;
    bool readable = false;
    bool writable = false;
    bool error = false;  ///< EPOLLERR / EPOLLHUP / EPOLLRDHUP.
  };

  /// Waits for readiness until the wall instant `until` — at once when it
  /// has passed — and fills `events` (capacity `cap`, at most 64); returns
  /// the count, 0 on a timeout or a signal, -1 on error. The timeout has
  /// nanosecond resolution (epoll_pwait2), so a wait ends as late as the
  /// calling thread's timer slack allows, not a millisecond late.
  int wait(Event* events, int cap, WallTime until);

 private:
  Fd epoll_;
};

}  // namespace fifer::net
