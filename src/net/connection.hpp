#pragma once

#include <cstddef>
#include <cstdint>

#include "net/socket.hpp"
#include "net/wire.hpp"

namespace fifer::net {

/// Per-frame callback interface. An interface (not std::function) so frame
/// dispatch stays allocation-free; implementations live as long as the
/// server that calls them.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  virtual void on_request(std::uint64_t conn_id, const wire::Request& req) = 0;
  virtual void on_fin(std::uint64_t conn_id) = 0;
};

/// One accepted TCP connection: the socket plus fixed inline read/write
/// buffers, so recycling a Slab slot never touches the allocator.
///
/// Buffers are bounded by design (DESIGN.md §5h): the read side holds at
/// most one burst of tiny frames (4 KiB), and the write side ~1.4k encoded
/// responses (64 KiB). A client that stops reading long enough to overflow
/// the write buffer is a slow consumer and is dropped rather than buffered
/// unboundedly.
class Connection {
 public:
  enum class IoResult {
    kOk,          ///< Progress made (or EAGAIN); keep the connection.
    kPeerClosed,  ///< Orderly EOF from the peer.
    kError,       ///< Socket error or protocol violation; drop.
  };

  void open(Fd fd, std::uint64_t id) {
    fd_ = std::move(fd);
    id_ = id;
    rlen_ = 0;
    wpos_ = 0;
    wlen_ = 0;
    bytes_in_ = 0;
    bytes_out_ = 0;
    protocol_error_ = false;
    fin_seen_ = false;
    epollout_armed_ = false;
    dirty_ = false;
    overflowed_ = false;
  }

  std::uint64_t id() const { return id_; }
  int fd() const { return fd_.get(); }
  std::uint64_t bytes_in() const { return bytes_in_; }
  std::uint64_t bytes_out() const { return bytes_out_; }
  bool protocol_error() const { return protocol_error_; }
  bool fin_seen() const { return fin_seen_; }

  /// Drains the socket into the read buffer and dispatches every complete
  /// frame to `handler`. kError covers both socket errors and protocol
  /// violations (oversized / unknown / malformed frames).
  IoResult on_readable(FrameHandler& handler);

  /// Appends `n` encoded bytes to the write buffer, compacting first if
  /// needed. False = overflow: the peer is a slow consumer, and from then
  /// on overflowed() holds and the server drops the connection at its next
  /// flush, never while a read of it is dispatching frames.
  bool queue_write(const std::uint8_t* data, std::size_t n);
  bool overflowed() const { return overflowed_; }

  bool has_pending_write() const { return wpos_ < wlen_; }

  /// Writes as much buffered output as the socket accepts. kOk with
  /// has_pending_write() still true means EAGAIN — caller arms EPOLLOUT.
  IoResult flush();

  void close() { fd_.reset(); }

  /// Whether the owning poller currently has EPOLLOUT armed for this fd —
  /// bookkeeping the epoll loop keeps here so re-arming is edge-free.
  bool epollout_armed() const { return epollout_armed_; }
  void set_epollout_armed(bool armed) { epollout_armed_ = armed; }

  /// Whether the connection sits in the server's list of connections to
  /// flush, so it is listed at most once.
  bool dirty() const { return dirty_; }
  void set_dirty(bool dirty) { dirty_ = dirty; }

  static constexpr std::size_t kReadBuf = 4096;
  static constexpr std::size_t kWriteBuf = 64 * 1024;

 private:
  Fd fd_;
  std::uint64_t id_ = 0;
  std::size_t rlen_ = 0;
  std::size_t wpos_ = 0;  ///< First unwritten byte in wbuf_.
  std::size_t wlen_ = 0;  ///< One past the last queued byte in wbuf_.
  std::uint64_t bytes_in_ = 0;
  std::uint64_t bytes_out_ = 0;
  bool protocol_error_ = false;
  bool fin_seen_ = false;
  bool epollout_armed_ = false;
  bool dirty_ = false;
  bool overflowed_ = false;
  std::uint8_t rbuf_[kReadBuf];
  std::uint8_t wbuf_[kWriteBuf];
};

}  // namespace fifer::net
