#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/slab.hpp"
#include "net/connection.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

namespace fifer::net {

/// Application-side callbacks of the server, invoked from poll() on the
/// caller's thread.
class ServerHandler : public FrameHandler {
 public:
  /// The connection closed while being served: peer close, socket error,
  /// protocol violation or slow-consumer drop. `fin_seen` tells whether its
  /// FIN frame came first. Any conn_id kept by the application is now dead;
  /// `respond` to it becomes a counted no-op. The closes of shutdown() are
  /// not reported.
  virtual void on_disconnect(std::uint64_t /*conn_id*/, bool /*fin_seen*/) {}
};

struct ServerOptions {
  std::string bind_address = "127.0.0.1";
  /// 0 = kernel-assigned; read the bound port back via `port()`.
  std::uint16_t port = 0;
  int backlog = 128;
  std::size_t max_connections = 256;
  /// Wall budget for flushing buffered responses during shutdown().
  int drain_timeout_ms = 2000;
};

/// Monotonic counters of one server.
struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t rejected_connections = 0;  ///< Over max_connections.
  std::uint64_t requests = 0;
  std::uint64_t fins = 0;
  std::uint64_t responses = 0;
  std::uint64_t dropped_responses = 0;  ///< respond() to a dead connection.
  std::uint64_t slow_consumer_drops = 0;
  std::uint64_t protocol_errors = 0;
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
};

/// Epoll-based non-blocking TCP server for the wire protocol (DESIGN.md
/// §5h). It owns the listener and every `Connection` (Slab-recycled slots —
/// steady-state accept/read/dispatch touches no allocator) and has no thread
/// of its own: whoever drives it calls poll(), and the handler and
/// respond() run on that thread.
///
/// Responses are written in batches. respond() queues the encoded frame on
/// its connection and lists the connection; the next poll() flushes every
/// listed connection once, before it waits. So a response produced while
/// its own connection is being read is never written mid-read, and a slow
/// consumer's overflow drops the connection at that flush.
///
/// Lifecycle: `listen()` binds synchronously (so the caller learns the port
/// — and EADDRINUSE — before serving; early connections queue in the SYN
/// backlog until the first poll()), poll() serves, and `shutdown()` stops
/// accepting, flushes buffered responses within `drain_timeout_ms`, and
/// closes every connection.
class Server {
 public:
  Server(ServerOptions opts, ServerHandler* handler);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen. False on failure (errno in `listen_errno()`,
  /// EADDRINUSE being the retryable case).
  bool listen();
  std::uint16_t port() const { return listener_.port(); }
  int listen_errno() const { return listener_.error(); }

  /// One pass of the serving loop: flushes every connection with queued
  /// responses, waits for socket readiness until the wall instant `until`
  /// (not at all when it has passed), then accepts, reads, and dispatches
  /// every complete frame to the handler.
  void poll(Poller::WallTime until);

  /// Queues `resp` for `conn_id`; the next poll() writes it. False when the
  /// connection is gone (counted as a dropped response) or its write buffer
  /// overflowed (a slow consumer, dropped at the next poll()).
  bool respond(std::uint64_t conn_id, const wire::Response& resp);

  /// Graceful drain: stop accepting, flush every buffered response
  /// (bounded by drain_timeout_ms), close all connections. Idempotent.
  void shutdown();

  ServerStats stats() const { return stats_; }

 private:
  void handle_accept();
  void handle_conn_event(std::uint64_t conn_id, bool readable, bool writable,
                         bool error);
  /// Writes every listed connection's queued responses; drops the ones that
  /// overflowed or failed.
  void flush_dirty();
  void drop_connection(SlabHandle<Connection> h, bool notify);
  bool any_pending_write() const;

  static SlabHandle<Connection> handle_of(std::uint64_t conn_id) {
    return SlabHandle<Connection>{static_cast<std::uint32_t>(conn_id >> 32),
                                  static_cast<std::uint32_t>(conn_id)};
  }
  static std::uint64_t id_of(SlabHandle<Connection> h) {
    return (static_cast<std::uint64_t>(h.index) << 32) | h.gen;
  }

  ServerOptions opts_;
  ServerHandler* handler_;
  Listener listener_;
  Poller poller_;
  Slab<Connection> conns_;
  /// Connections with queued responses since the last flush, each listed
  /// once (Connection::dirty()).
  std::vector<std::uint64_t> dirty_;
  ServerStats stats_;
};

}  // namespace fifer::net
