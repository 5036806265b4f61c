#include "net/server.hpp"

#include <algorithm>
#include <chrono>
#include <utility>

namespace fifer::net {

namespace {

/// epoll user-data tag for the listening socket (distinct from every live
/// connection id, whose index half is < kNil).
constexpr std::uint64_t kListenData = ~std::uint64_t{0} - 1;

constexpr int kMaxEvents = 64;

/// Forwards frames to the application handler while bumping the server's
/// counters; lives on the polling thread's stack, so no allocation.
class CountingHandler final : public FrameHandler {
 public:
  CountingHandler(ServerHandler* app, ServerStats* stats)
      : app_(app), stats_(stats) {}

  void on_request(std::uint64_t conn_id, const wire::Request& req) override {
    ++stats_->requests;
    app_->on_request(conn_id, req);
  }
  void on_fin(std::uint64_t conn_id) override {
    ++stats_->fins;
    app_->on_fin(conn_id);
  }

 private:
  ServerHandler* app_;
  ServerStats* stats_;
};

}  // namespace

Server::Server(ServerOptions opts, ServerHandler* handler)
    : opts_(std::move(opts)), handler_(handler) {
  // Pre-size the flush list so the steady-state respond() -> flush cycle
  // never grows it (the zero-allocation probe in bench_serve pins this).
  dirty_.reserve(opts_.max_connections);
}

Server::~Server() { shutdown(); }

bool Server::listen() {
  if (!listener_.listen(opts_.bind_address, opts_.port, opts_.backlog)) {
    return false;
  }
  if (!poller_.valid() || !poller_.add(listener_.fd(), kListenData)) {
    listener_.close();
    return false;
  }
  return true;
}

void Server::poll(Poller::WallTime until) {
  flush_dirty();
  Poller::Event events[kMaxEvents];
  const int n = poller_.wait(events, kMaxEvents, until);
  for (int i = 0; i < n; ++i) {
    const Poller::Event& ev = events[i];
    if (ev.data == kListenData) {
      handle_accept();
      continue;
    }
    handle_conn_event(ev.data, ev.readable, ev.writable, ev.error);
  }
}

bool Server::respond(std::uint64_t conn_id, const wire::Response& resp) {
  Connection* conn = conns_.get(handle_of(conn_id));
  if (conn == nullptr || conn->overflowed()) {
    ++stats_.dropped_responses;
    return false;
  }
  if (!conn->dirty()) {
    conn->set_dirty(true);
    dirty_.push_back(conn_id);
  }
  std::uint8_t frame[wire::kMaxFrame];
  const std::size_t len = wire::encode_response(resp, frame);
  if (!conn->queue_write(frame, len)) {
    ++stats_.slow_consumer_drops;
    return false;
  }
  ++stats_.responses;
  return true;
}

void Server::shutdown() {
  if (listener_.listening()) {
    poller_.remove(listener_.fd());
    listener_.close();
  }
  // Deliver everything already queued, give sockets a bounded window to
  // take it, then close.
  flush_dirty();
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(opts_.drain_timeout_ms);
  while (any_pending_write() && std::chrono::steady_clock::now() < deadline) {
    const auto tick =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(10);
    Poller::Event events[kMaxEvents];
    const int n = poller_.wait(events, kMaxEvents, std::min(deadline, tick));
    for (int i = 0; i < n; ++i) {
      const Poller::Event& ev = events[i];
      handle_conn_event(ev.data, /*readable=*/false, ev.writable, ev.error);
    }
  }

  std::vector<SlabHandle<Connection>> open;
  open.reserve(conns_.size());
  for (auto it = conns_.begin(); it != conns_.end(); ++it) {
    open.push_back(it.handle());
  }
  for (const auto h : open) drop_connection(h, /*notify=*/false);
}

void Server::handle_accept() {
  for (;;) {
    Fd fd = listener_.accept();
    if (!fd) return;
    if (conns_.size() >= opts_.max_connections) {
      ++stats_.rejected_connections;
      continue;  // fd closes on scope exit.
    }
    const auto h = conns_.emplace();
    Connection& conn = conns_[h];
    conn.open(std::move(fd), id_of(h));
    if (!poller_.add(conn.fd(), conn.id())) {
      conn.close();
      conns_.erase(h);
      continue;
    }
    ++stats_.accepted;
  }
}

void Server::handle_conn_event(std::uint64_t conn_id, bool readable,
                               bool writable, bool error) {
  const auto h = handle_of(conn_id);
  Connection* conn = conns_.get(h);
  if (conn == nullptr) return;

  if (readable) {
    // The handler's responses only queue (respond() never drops), so the
    // connection outlives the dispatch.
    CountingHandler counting(handler_, &stats_);
    const auto r = conn->on_readable(counting);
    if (r != Connection::IoResult::kOk) {
      if (conn->protocol_error()) ++stats_.protocol_errors;
      drop_connection(h, /*notify=*/true);
      return;
    }
  }

  if (writable && conn->has_pending_write()) {
    if (conn->flush() == Connection::IoResult::kError) {
      drop_connection(h, /*notify=*/true);
      return;
    }
  }
  if (conn->epollout_armed() && !conn->has_pending_write()) {
    poller_.modify(conn->fd(), conn_id, /*want_write=*/false);
    conn->set_epollout_armed(false);
  }

  if (error && !readable) {
    // Pure error/hangup with nothing to read: drop now. (When readable was
    // set, on_readable above already saw the EOF.)
    drop_connection(h, /*notify=*/true);
  }
}

void Server::flush_dirty() {
  // By index: a drop notifies the handler, which may respond and list more.
  for (std::size_t i = 0; i < dirty_.size(); ++i) {
    const std::uint64_t conn_id = dirty_[i];
    const auto h = handle_of(conn_id);
    Connection* conn = conns_.get(h);
    if (conn == nullptr) continue;
    conn->set_dirty(false);
    if (conn->overflowed() ||
        conn->flush() == Connection::IoResult::kError) {
      drop_connection(h, /*notify=*/true);
      continue;
    }
    if (conn->has_pending_write() && !conn->epollout_armed()) {
      poller_.modify(conn->fd(), conn_id, /*want_write=*/true);
      conn->set_epollout_armed(true);
    }
  }
  dirty_.clear();
}

void Server::drop_connection(SlabHandle<Connection> h, bool notify) {
  Connection* conn = conns_.get(h);
  if (conn == nullptr) return;
  const std::uint64_t id = conn->id();
  const bool fin_seen = conn->fin_seen();
  stats_.bytes_in += conn->bytes_in();
  stats_.bytes_out += conn->bytes_out();
  poller_.remove(conn->fd());
  conn->close();
  conns_.erase(h);
  ++stats_.closed;
  if (notify && handler_ != nullptr) handler_->on_disconnect(id, fin_seen);
}

bool Server::any_pending_write() const {
  for (const Connection& c : conns_) {
    if (c.has_pending_write()) return true;
  }
  return false;
}

}  // namespace fifer::net
