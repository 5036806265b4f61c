#include "net/connection.hpp"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace fifer::net {

Connection::IoResult Connection::on_readable(FrameHandler& handler) {
  for (;;) {
    const std::size_t avail = kReadBuf - rlen_;
    const ssize_t n = ::read(fd_.get(), rbuf_ + rlen_, avail);
    if (n == 0) return IoResult::kPeerClosed;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    rlen_ += static_cast<std::size_t>(n);
    bytes_in_ += static_cast<std::uint64_t>(n);

    // Parse every complete frame in the buffer.
    std::size_t off = 0;
    while (rlen_ - off >= wire::kHeaderBytes) {
      const std::uint32_t payload = wire::get_u32(rbuf_ + off);
      if (payload == 0 || payload > wire::kMaxPayload) {
        protocol_error_ = true;
        return IoResult::kError;
      }
      if (rlen_ - off < wire::kHeaderBytes + payload) break;
      const std::uint8_t* p = rbuf_ + off + wire::kHeaderBytes;
      switch (static_cast<wire::FrameType>(p[0])) {
        case wire::FrameType::kRequest: {
          wire::Request req;
          if (!wire::decode_request(p, payload, &req)) {
            protocol_error_ = true;
            return IoResult::kError;
          }
          handler.on_request(id_, req);
          break;
        }
        case wire::FrameType::kFin:
          if (payload != wire::kFinPayload) {
            protocol_error_ = true;
            return IoResult::kError;
          }
          fin_seen_ = true;
          handler.on_fin(id_);
          break;
        case wire::FrameType::kResponse:  // Server never receives responses.
        default:
          protocol_error_ = true;
          return IoResult::kError;
      }
      off += wire::kHeaderBytes + payload;
    }
    if (off > 0) {
      std::memmove(rbuf_, rbuf_ + off, rlen_ - off);
      rlen_ -= off;
    }
    // Short read means the socket is drained; a full read may have more
    // bytes queued, so loop (frames are <= kMaxFrame, parsing above always
    // frees buffer space, so this cannot livelock on a well-formed peer).
    if (static_cast<std::size_t>(n) < avail) return IoResult::kOk;
  }
}

bool Connection::queue_write(const std::uint8_t* data, std::size_t n) {
  if (wlen_ + n > kWriteBuf) {
    if (wpos_ > 0) {
      std::memmove(wbuf_, wbuf_ + wpos_, wlen_ - wpos_);
      wlen_ -= wpos_;
      wpos_ = 0;
    }
    if (wlen_ + n > kWriteBuf) {
      overflowed_ = true;
      return false;
    }
  }
  std::memcpy(wbuf_ + wlen_, data, n);
  wlen_ += n;
  return true;
}

Connection::IoResult Connection::flush() {
  while (wpos_ < wlen_) {
    // MSG_NOSIGNAL: a peer that reset the connection fails the write with
    // EPIPE instead of killing the process with SIGPIPE.
    const ssize_t n =
        ::send(fd_.get(), wbuf_ + wpos_, wlen_ - wpos_, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return IoResult::kOk;
      if (errno == EINTR) continue;
      return IoResult::kError;
    }
    wpos_ += static_cast<std::size_t>(n);
    bytes_out_ += static_cast<std::uint64_t>(n);
  }
  wpos_ = 0;
  wlen_ = 0;
  return IoResult::kOk;
}

}  // namespace fifer::net
