#include "net/loadgen.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/stats.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/gateway.hpp"

namespace fifer::net {

namespace {

using Clock = std::chrono::steady_clock;

std::uint64_t to_ns(Clock::time_point t) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(t.time_since_epoch())
          .count());
}

std::uint64_t monotonic_ns() { return to_ns(Clock::now()); }

/// Client side of one connection: like the server's Connection but parsing
/// responses, and sized for the request stream (fixed inline buffers — the
/// sending loop is allocation-free once connected).
struct ClientConn {
  static constexpr std::size_t kReadBuf = 4096;
  static constexpr std::size_t kWriteBuf = 16 * 1024;

  Fd fd;
  std::size_t rlen = 0;
  std::size_t wpos = 0;
  std::size_t wlen = 0;
  std::uint64_t outstanding = 0;  ///< Requests sent minus responses seen.
  bool fin_sent = false;
  bool epollout_armed = false;
  bool dead = false;
  std::uint8_t rbuf[kReadBuf];
  std::uint8_t wbuf[kWriteBuf];

  bool queue(const std::uint8_t* data, std::size_t n) {
    if (wlen + n > kWriteBuf) {
      if (wpos > 0) {
        std::memmove(wbuf, wbuf + wpos, wlen - wpos);
        wlen -= wpos;
        wpos = 0;
      }
      if (wlen + n > kWriteBuf) return false;
    }
    std::memcpy(wbuf + wlen, data, n);
    wlen += n;
    return true;
  }

  /// Returns false on a socket error.
  bool flush() {
    while (wpos < wlen) {
      const ssize_t n = ::write(fd.get(), wbuf + wpos, wlen - wpos);
      if (n < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
        if (errno == EINTR) continue;
        return false;
      }
      wpos += static_cast<std::size_t>(n);
    }
    wpos = 0;
    wlen = 0;
    return true;
  }

  bool has_pending_write() const { return wpos < wlen; }
};

struct Tally {
  LoadGenReport report;
  std::vector<double> rtt_ms;
  /// Open loop: how late each request left after its planned send instant.
  P2Quantile lateness_p99{0.99};
  double lateness_max_ms = 0.0;
};

/// Drains the socket and parses response frames. Returns false when the
/// connection is dead (EOF, socket error, malformed frame).
bool read_responses(ClientConn& conn, Tally& tally) {
  for (;;) {
    const std::size_t avail = ClientConn::kReadBuf - conn.rlen;
    const ssize_t n = ::read(conn.fd.get(), conn.rbuf + conn.rlen, avail);
    if (n == 0) return false;
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;
    }
    conn.rlen += static_cast<std::size_t>(n);

    std::size_t off = 0;
    while (conn.rlen - off >= wire::kHeaderBytes) {
      const std::uint32_t payload = wire::get_u32(conn.rbuf + off);
      if (payload == 0 || payload > wire::kMaxPayload) return false;
      if (conn.rlen - off < wire::kHeaderBytes + payload) break;
      const std::uint8_t* p = conn.rbuf + off + wire::kHeaderBytes;
      wire::Response resp;
      if (static_cast<wire::FrameType>(p[0]) != wire::FrameType::kResponse ||
          !wire::decode_response(p, payload, &resp)) {
        return false;
      }
      ++tally.report.received;
      if (conn.outstanding > 0) --conn.outstanding;
      if (resp.status == wire::Status::kOk) {
        ++tally.report.ok;
        if (resp.violated_slo != 0) ++tally.report.server_slo_violations;
      } else {
        ++tally.report.rejected;
      }
      if (resp.client_send_ns != 0) {
        const std::uint64_t now = monotonic_ns();
        if (now > resp.client_send_ns) {
          tally.rtt_ms.push_back(
              static_cast<double>(now - resp.client_send_ns) / 1e6);
        }
      }
      off += wire::kHeaderBytes + payload;
    }
    if (off > 0) {
      std::memmove(conn.rbuf, conn.rbuf + off, conn.rlen - off);
      conn.rlen -= off;
    }
    if (static_cast<std::size_t>(n) < avail) return true;
  }
}

}  // namespace

LoadGenReport run_loadgen(const std::vector<Arrival>& plan,
                          const ApplicationRegistry& apps,
                          const LoadGenOptions& opts) {
  Tally tally;
  LoadGenReport& report = tally.report;
  const auto start_wall = Clock::now();
  const auto finish = [&]() {
    report.wall_seconds =
        std::chrono::duration<double>(Clock::now() - start_wall).count();
    if (report.wall_seconds > 0.0) {
      report.achieved_rps =
          static_cast<double>(report.received) / report.wall_seconds;
    }
    // RTT samples sit in response-arrival order, so the warmup prefix is
    // simply the first N entries; drop it before computing the tail.
    const std::size_t skip = std::min<std::size_t>(
        static_cast<std::size_t>(opts.warmup_requests), tally.rtt_ms.size());
    Percentiles rtt;
    for (std::size_t i = skip; i < tally.rtt_ms.size(); ++i) {
      rtt.add(tally.rtt_ms[i]);
    }
    report.rtt_samples = rtt.count();
    report.rtt_p50_ms = rtt.median();
    report.rtt_p95_ms = rtt.p95();
    report.rtt_p99_ms = rtt.p99();
    report.rtt_p999_ms = rtt.p999();
    report.rtt_max_ms = rtt.max();
    report.send_lateness_p99_ms = tally.lateness_p99.value();
    report.send_lateness_max_ms = tally.lateness_max_ms;
    return report;
  };

  // App name -> wire index, in registry order (the protocol's numbering).
  std::unordered_map<std::string, std::uint32_t> app_index;
  {
    std::uint32_t i = 0;
    for (const ApplicationChain& chain : apps.all()) {
      app_index.emplace(chain.name, i++);
    }
  }

  Poller poller;
  if (!poller.valid()) {
    ++report.errors;
    return finish();
  }

  const std::size_t n_conns = opts.connections > 0 ? opts.connections : 1;
  std::vector<std::unique_ptr<ClientConn>> conns;
  conns.reserve(n_conns);
  for (std::size_t i = 0; i < n_conns; ++i) {
    auto conn = std::make_unique<ClientConn>();
    conn->fd = connect_to(opts.host, opts.port);
    if (!conn->fd || !poller.add(conn->fd.get(), i)) {
      ++report.errors;
      return finish();
    }
    conns.push_back(std::move(conn));
  }

  const std::uint64_t total =
      opts.closed_loop
          ? (plan.empty() ? 0 : opts.closed_requests)
          : static_cast<std::uint64_t>(plan.size());
  const auto deadline =
      start_wall + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opts.timeout_seconds));
  // Open-loop pacing anchor: plan[i].time simulated ms -> wall offset.
  const double ns_per_sim_ms =
      1e6 / (opts.time_scale > 0.0 ? opts.time_scale : 1.0);
  const auto send_time = [&](std::uint64_t i) {
    return start_wall + std::chrono::nanoseconds(static_cast<std::int64_t>(
                            plan[i].time * ns_per_sim_ms));
  };

  const auto send_request = [&](std::size_t ci, std::uint64_t tag) -> bool {
    ClientConn& conn = *conns[ci];
    const Arrival& a = plan[tag % plan.size()];
    wire::Request req;
    const auto it = app_index.find(a.app);
    req.app_index = it != app_index.end() ? it->second : 0xffffffffu;
    req.input_scale = a.input_scale;
    req.tag = tag;
    req.client_send_ns = monotonic_ns();
    if (!opts.closed_loop) {
      // Open loop: time the request from its planned send instant, so a
      // generator that falls behind shows its lag in the RTT instead of
      // hiding it (coordinated omission).
      const std::uint64_t planned = to_ns(send_time(tag));
      const double late_ms =
          req.client_send_ns > planned
              ? static_cast<double>(req.client_send_ns - planned) / 1e6
              : 0.0;
      tally.lateness_p99.add(late_ms);
      tally.lateness_max_ms = std::max(tally.lateness_max_ms, late_ms);
      req.client_send_ns = planned;
    }
    std::uint8_t frame[wire::kMaxFrame];
    const std::size_t len = wire::encode_request(req, frame);
    if (!conn.queue(frame, len) || !conn.flush()) return false;
    ++report.sent;
    ++conn.outstanding;
    if (conn.has_pending_write() && !conn.epollout_armed) {
      poller.modify(conn.fd.get(), ci, /*want_write=*/true);
      conn.epollout_armed = true;
    }
    return true;
  };

  std::uint64_t next = 0;        // Next plan index to send (open loop) /
                                 // next tag (closed loop).
  bool fins_queued = false;
  Poller::Event events[64];

  // Closed loop: prime each connection's window.
  if (opts.closed_loop) {
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      for (std::size_t w = 0; w < opts.closed_window && next < total; ++w) {
        if (!send_request(ci, next)) {
          conns[ci]->dead = true;
          ++report.errors;
          break;
        }
        ++next;
      }
    }
  }

  while (Clock::now() < deadline) {
    // Send FINs exactly once: all requests answered.
    if (!fins_queued && next >= total && report.received >= report.sent) {
      bool all_flushed = true;
      for (auto& conn : conns) {
        if (conn->dead) continue;
        std::uint8_t frame[wire::kMaxFrame];
        const std::size_t len = wire::encode_fin(frame);
        if (!conn->queue(frame, len) || !conn->flush()) {
          conn->dead = true;
          ++report.errors;
          continue;
        }
        conn->fin_sent = true;
        if (conn->has_pending_write()) all_flushed = false;
      }
      fins_queued = true;
      if (all_flushed) {
        report.completed = report.sent == total && report.errors == 0;
        break;
      }
    }
    if (fins_queued) {
      bool all_flushed = true;
      for (auto& conn : conns) {
        if (!conn->dead && conn->has_pending_write()) all_flushed = false;
      }
      if (all_flushed) {
        report.completed = report.sent == total && report.errors == 0;
        break;
      }
    }

    // Poll window: until the next open-loop send instant (or a coarse tick).
    Clock::time_point until = Clock::now() + std::chrono::milliseconds(50);
    if (!opts.closed_loop && next < total) {
      until = std::min(until, send_time(next));
    }

    const int n = poller.wait(events, 64, until);
    for (int i = 0; i < n; ++i) {
      const Poller::Event& ev = events[i];
      ClientConn& conn = *conns[static_cast<std::size_t>(ev.data)];
      if (conn.dead) continue;
      if (ev.readable) {
        if (!read_responses(conn, tally)) {
          if (!conn.fin_sent) ++report.errors;
          poller.remove(conn.fd.get());
          conn.fd.reset();
          conn.dead = true;
          continue;
        }
        // Closed loop: keep the window full.
        if (opts.closed_loop) {
          while (next < total && conn.outstanding < opts.closed_window) {
            if (!send_request(static_cast<std::size_t>(ev.data), next)) {
              conn.dead = true;
              ++report.errors;
              break;
            }
            ++next;
          }
        }
      }
      if (conn.dead) continue;
      if (ev.writable) {
        if (!conn.flush()) {
          ++report.errors;
          poller.remove(conn.fd.get());
          conn.fd.reset();
          conn.dead = true;
          continue;
        }
        if (conn.epollout_armed && !conn.has_pending_write()) {
          poller.modify(conn.fd.get(), ev.data, /*want_write=*/false);
          conn.epollout_armed = false;
        }
      }
      if (ev.error && !ev.readable) {
        if (!conn.fin_sent) ++report.errors;
        poller.remove(conn.fd.get());
        conn.fd.reset();
        conn.dead = true;
      }
    }

    // Open loop: fire every plan entry whose instant has passed. Falling
    // behind sends immediately (same catch-up rule as the server's pump).
    if (!opts.closed_loop) {
      const auto now = Clock::now();
      while (next < total && send_time(next) <= now) {
        const std::size_t ci = static_cast<std::size_t>(next) % conns.size();
        if (conns[ci]->dead) {
          ++report.errors;
          ++next;
          continue;
        }
        if (!send_request(ci, next)) {
          conns[ci]->dead = true;
          ++report.errors;
        }
        ++next;
      }
    }

    // Every connection died: nothing further can arrive.
    bool any_alive = false;
    for (auto& conn : conns) {
      if (!conn->dead) any_alive = true;
    }
    if (!any_alive) break;
  }

  return finish();
}

LoadGenReport run_loadgen(const ExperimentParams& params,
                          const LoadGenOptions& opts) {
  return run_loadgen(materialize_arrival_plan(params), params.applications,
                     opts);
}

}  // namespace fifer::net
