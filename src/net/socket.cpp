#include "net/socket.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <ctime>

namespace fifer::net {

void Fd::reset() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) return false;
  return ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void set_nodelay(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

namespace {

/// Resolves a numeric dotted-quad or "localhost" without touching the
/// resolver (getaddrinfo allocates and can block; the serving harness only
/// ever targets loopback or explicit addresses).
bool parse_ipv4(const std::string& host, in_addr* out) {
  if (host.empty() || host == "localhost") {
    out->s_addr = htonl(INADDR_LOOPBACK);
    return true;
  }
  return ::inet_pton(AF_INET, host.c_str(), out) == 1;
}

}  // namespace

bool Listener::listen(const std::string& bind_address, std::uint16_t port,
                      int backlog) {
  close();
  errno_ = 0;
  port_ = 0;

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (bind_address.empty()) {
    addr.sin_addr.s_addr = htonl(INADDR_ANY);
  } else if (!parse_ipv4(bind_address, &addr.sin_addr)) {
    errno_ = EINVAL;
    return false;
  }

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0));
  if (!fd) {
    errno_ = errno;
    return false;
  }
  int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    errno_ = errno;
    return false;
  }
  if (::listen(fd.get(), backlog) != 0) {
    errno_ = errno;
    return false;
  }

  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd.get(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    errno_ = errno;
    return false;
  }
  port_ = ntohs(bound.sin_port);
  fd_ = std::move(fd);
  return true;
}

Fd Listener::accept() {
  if (!fd_.valid()) return Fd{};
  const int client = ::accept4(fd_.get(), nullptr, nullptr,
                               SOCK_NONBLOCK | SOCK_CLOEXEC);
  if (client < 0) return Fd{};
  set_nodelay(client);
  return Fd(client);
}

Fd connect_to(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (!parse_ipv4(host, &addr.sin_addr)) return Fd{};

  Fd fd(::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0));
  if (!fd) return Fd{};
  if (::connect(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    return Fd{};
  }
  if (!set_nonblocking(fd.get())) return Fd{};
  set_nodelay(fd.get());
  return fd;
}

Poller::Poller() { epoll_ = Fd(::epoll_create1(EPOLL_CLOEXEC)); }

bool Poller::add(int fd, std::uint64_t data, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = data;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_ADD, fd, &ev) == 0;
}

bool Poller::modify(int fd, std::uint64_t data, bool want_write) {
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLRDHUP | (want_write ? EPOLLOUT : 0u);
  ev.data.u64 = data;
  return ::epoll_ctl(epoll_.get(), EPOLL_CTL_MOD, fd, &ev) == 0;
}

void Poller::remove(int fd) {
  ::epoll_ctl(epoll_.get(), EPOLL_CTL_DEL, fd, nullptr);
}

int Poller::wait(Event* events, int cap, WallTime until) {
  epoll_event raw[64];
  if (cap > 64) cap = 64;
  const std::int64_t left_ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          until - std::chrono::steady_clock::now())
          .count();
  timespec timeout{};
  if (left_ns > 0) {
    timeout.tv_sec = static_cast<time_t>(left_ns / 1'000'000'000);
    timeout.tv_nsec = static_cast<long>(left_ns % 1'000'000'000);
  }
  const int n = ::epoll_pwait2(epoll_.get(), raw, cap, &timeout, nullptr);
  if (n < 0) return errno == EINTR ? 0 : -1;
  for (int i = 0; i < n; ++i) {
    Event& e = events[i];
    e.data = raw[i].data.u64;
    e.readable = (raw[i].events & EPOLLIN) != 0;
    e.writable = (raw[i].events & EPOLLOUT) != 0;
    e.error = (raw[i].events & (EPOLLERR | EPOLLHUP | EPOLLRDHUP)) != 0;
  }
  return n;
}

}  // namespace fifer::net
