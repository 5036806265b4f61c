// Serving front-end performance gate and capacity probe (DESIGN.md §5h):
//
//  - a steady-state probe drives the accept→read→dispatch→respond→flush
//    cycle of the epoll server over loopback with an echo handler, client
//    and server on this one thread, and FAILS THE BENCH (non-zero exit) if
//    the warmed-up cycle performs any heap allocation anywhere in the
//    process (counting allocator below) — the Slab-recycled connection
//    slots, inline frame buffers, and pre-reserved flush list exist exactly
//    for this;
//  - a capacity probe serves closed-loop load over loopback (serve_live +
//    the built-in load generator) at 10^4x compression, where the server,
//    not simulated service time, bounds the round trip. It reports the
//    achieved requests/s and the client RTT p50/p99/p99.9, and fails the
//    bench when the run did not drain or answered no request at all;
//  - `json_out=<path>` emits the numbers machine-readably (BENCH_serve.json
//    in the CI perf-smoke leg).

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/config.hpp"
#include "net/loadgen.hpp"
#include "net/serve_session.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "workload/generators.hpp"

// ------------------------------------------------------ counting allocator
//
// Global operator new/delete overrides for this binary: every heap
// allocation bumps one relaxed atomic (same pattern as bench_scale). The
// probe below runs on this one thread, so a zero delta proves the serving
// hot path allocation-free.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

using namespace fifer;
using namespace fifer::net;

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// -------------------------------------------------- zero-alloc probe

/// Echoes every request as it is read: the minimal dispatch target, so the
/// probe measures the server machinery and nothing else.
class EchoHandler : public ServerHandler {
 public:
  void attach(Server* s) { server_ = s; }
  void on_request(std::uint64_t conn_id, const wire::Request& req) override {
    wire::Response resp;
    resp.tag = req.tag;
    resp.client_send_ns = req.client_send_ns;
    server_->respond(conn_id, resp);
  }
  void on_fin(std::uint64_t) override {}

 private:
  Server* server_ = nullptr;
};

/// Busy-writes the whole frame to the (non-blocking) socket. The probe
/// client keeps exactly one request in flight, so EAGAIN is transient.
bool write_all(int fd, const std::uint8_t* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      return false;
    }
    off += static_cast<std::size_t>(w);
  }
  return true;
}

struct ProbeResult {
  std::uint64_t requests = 0;
  std::uint64_t allocations = 0;
  double wall_s = 0.0;
  bool ok = false;
};

/// One warmed-up request/response ping-pong cycle over loopback, allocation
/// counted across the whole process. Warmup settles the connection slot,
/// epoll registration, and flush-list capacity; after it, `iters` cycles of
/// read→parse→dispatch→respond→flush must allocate nothing. The client
/// polls the server until its response arrives: one poll() reads the
/// request and queues the response, the next one writes it.
ProbeResult steady_state_probe(std::uint64_t iters) {
  ProbeResult out;
  EchoHandler handler;
  ServerOptions so;
  Server server(so, &handler);
  handler.attach(&server);
  if (!server.listen()) {
    std::cerr << "bench_serve: probe listen failed: "
              << std::strerror(server.listen_errno()) << "\n";
    return out;
  }

  Fd client = connect_to("127.0.0.1", server.port());
  if (!client) {
    std::cerr << "bench_serve: probe connect failed\n";
    server.shutdown();
    return out;
  }

  std::uint8_t frame[wire::kMaxFrame];
  std::uint8_t resp[wire::kHeaderBytes + wire::kResponsePayload];
  const auto ping = [&](std::uint64_t tag) {
    wire::Request req;
    req.tag = tag;
    const std::size_t len = wire::encode_request(req, frame);
    if (!write_all(client.get(), frame, len)) return false;
    std::size_t got = 0;
    while (got < sizeof(resp)) {
      server.poll(std::chrono::steady_clock::time_point{});
      const ssize_t r = ::read(client.get(), resp + got, sizeof(resp) - got);
      if (r == 0) return false;
      if (r < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
        return false;
      }
      got += static_cast<std::size_t>(r);
    }
    return true;
  };

  bool ok = true;
  for (std::uint64_t i = 0; ok && i < 1024; ++i) ok = ping(i);  // warmup

  const std::uint64_t before = allocs();
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; ok && i < iters; ++i) ok = ping(i);
  out.wall_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  out.allocations = allocs() - before;
  out.requests = iters;
  out.ok = ok;

  client.reset();
  server.shutdown();
  if (!ok) std::cerr << "bench_serve: probe socket error mid-run\n";
  return out;
}

// ------------------------------------------------------- capacity probe

struct E2eResult {
  std::uint64_t requests = 0;
  double wall_s = 0.0;
  double achieved_rps = 0.0;
  double rtt_p50_ms = 0.0;
  double rtt_p95_ms = 0.0;
  double rtt_p99_ms = 0.0;
  double rtt_p999_ms = 0.0;
  std::uint64_t rtt_samples = 0;
  std::uint64_t responded = 0;  ///< kOk responses the server wrote back.
  double slo_attainment_pct = 0.0;  ///< NaN when nothing was responded to.
  bool drained = false;
  bool completed = false;
};

E2eResult loopback_e2e(std::uint64_t requests, std::size_t connections,
                       std::size_t window, double time_scale,
                       std::uint64_t warmup) {
  ExperimentParams p;
  p.rm = RmConfig::fifer();
  p.mix = WorkloadMix::heavy();
  p.trace = poisson_trace(30.0, 10.0);
  p.trace_name = "poisson";
  p.seed = 1;
  p.train.epochs = 2;

  LiveOptions lo;
  lo.time_scale = time_scale;
  lo.max_wall_seconds = 120.0;

  ServeOptions so;
  so.expected_clients = connections;

  std::atomic<std::uint16_t> port{0};
  so.on_listening = [&](std::uint16_t bound) {
    port.store(bound, std::memory_order_release);
  };

  ServeRunReport serve;
  std::thread serving([&] { serve = serve_live(p, lo, so); });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  LoadGenOptions lg;
  lg.port = port.load(std::memory_order_acquire);
  lg.connections = connections;
  lg.closed_loop = true;
  lg.closed_requests = requests;
  lg.closed_window = window;
  lg.time_scale = time_scale;
  lg.timeout_seconds = 120.0;
  lg.warmup_requests = warmup;
  const LoadGenReport client = run_loadgen(p, lg);
  serving.join();

  E2eResult out;
  out.requests = client.received;
  out.wall_s = client.wall_seconds;
  out.achieved_rps = client.achieved_rps;
  out.rtt_p50_ms = client.rtt_p50_ms;
  out.rtt_p95_ms = client.rtt_p95_ms;
  out.rtt_p99_ms = client.rtt_p99_ms;
  out.rtt_p999_ms = client.rtt_p999_ms;
  out.rtt_samples = client.rtt_samples;
  out.responded = serve.responded;
  out.slo_attainment_pct = serve.slo_attainment_pct;
  out.drained = serve.live.drained;
  out.completed = client.completed;
  return out;
}

void write_json(const std::string& path, const ProbeResult& probe,
                const E2eResult& e2e) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_serve: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"bench\": \"bench_serve\",\n"
      << "  \"steady_state_probe\": {\n"
      << "    \"requests\": " << probe.requests << ",\n"
      << "    \"allocations\": " << probe.allocations << ",\n"
      << "    \"wall_s\": " << probe.wall_s << ",\n"
      << "    \"requests_per_sec\": "
      << (probe.wall_s > 0.0
              ? static_cast<double>(probe.requests) / probe.wall_s
              : 0.0)
      << "\n  },\n"
      << "  \"loopback_e2e\": {\n"
      << "    \"requests\": " << e2e.requests << ",\n"
      << "    \"wall_s\": " << e2e.wall_s << ",\n"
      << "    \"achieved_rps\": " << e2e.achieved_rps << ",\n"
      << "    \"rtt_p50_ms\": " << e2e.rtt_p50_ms << ",\n"
      << "    \"rtt_p95_ms\": " << e2e.rtt_p95_ms << ",\n"
      << "    \"rtt_p99_ms\": " << e2e.rtt_p99_ms << ",\n"
      << "    \"rtt_p999_ms\": " << e2e.rtt_p999_ms << ",\n"
      << "    \"rtt_samples\": " << e2e.rtt_samples << ",\n"
      << "    \"responded\": " << e2e.responded << ",\n"
      << "    \"slo_attainment_pct\": "
      << (std::isnan(e2e.slo_attainment_pct) ? "null"
                                             : std::to_string(e2e.slo_attainment_pct))
      << ",\n"
      << "    \"drained\": " << (e2e.drained ? "true" : "false") << ",\n"
      << "    \"completed\": " << (e2e.completed ? "true" : "false")
      << "\n  }\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const Config cfg = Config::from_args(argc, argv);
  const auto probe_requests =
      static_cast<std::uint64_t>(cfg.get_int("probe_requests", 10000));
  const auto e2e_requests =
      static_cast<std::uint64_t>(cfg.get_int("e2e_requests", 100000));
  const auto connections =
      static_cast<std::size_t>(cfg.get_int("conns", 4));
  const auto window = static_cast<std::size_t>(cfg.get_int("window", 8));
  // At 10^4x a 1000 ms SLO is 0.1 wall ms: simulated service time no longer
  // bounds the round trip, the server does.
  const double time_scale = cfg.get_double("time_scale", 10000.0);
  // RTT samples from the first `warmup` responses are discarded so cold
  // connections / first-touch page-ins do not pollute the reported tail.
  const auto warmup = static_cast<std::uint64_t>(cfg.get_int("warmup", 2000));
  const std::string json_out = cfg.get_string("json_out", "");

  std::cout << "bench_serve: steady-state probe (" << probe_requests
            << " requests over loopback)...\n";
  const ProbeResult probe = steady_state_probe(probe_requests);
  std::cout << "  requests:    " << probe.requests << "\n"
            << "  wall s:      " << probe.wall_s << "\n"
            << "  allocations: " << probe.allocations << "\n";

  std::cout << "bench_serve: capacity probe (" << e2e_requests
            << " closed-loop requests, " << connections << " conns, window "
            << window << ", " << time_scale << "x)...\n";
  const E2eResult e2e =
      loopback_e2e(e2e_requests, connections, window, time_scale, warmup);
  std::cout << "  achieved req/s:           " << e2e.achieved_rps << "\n"
            << "  RTT p50/p95/p99/p99.9 ms: " << e2e.rtt_p50_ms << " / "
            << e2e.rtt_p95_ms << " / " << e2e.rtt_p99_ms << " / "
            << e2e.rtt_p999_ms << " (over " << e2e.rtt_samples
            << " post-warmup samples)\n"
            << "  SLO attainment %:   " << e2e.slo_attainment_pct << "\n"
            << "  drained/completed:  " << e2e.drained << "/" << e2e.completed
            << "\n";

  if (!json_out.empty()) write_json(json_out, probe, e2e);

  // The §5h gate: a warmed-up serving cycle must not allocate, and the e2e
  // loop must complete its drain handshake.
  if (!probe.ok || probe.allocations != 0) {
    std::cerr << "bench_serve: FAIL — steady-state serving cycle allocated "
              << probe.allocations << " time(s)\n";
    return 1;
  }
  if (!e2e.drained || !e2e.completed) {
    std::cerr << "bench_serve: FAIL — capacity probe did not drain cleanly\n";
    return 1;
  }
  if (e2e.responded == 0) {
    std::cerr << "bench_serve: FAIL — capacity probe answered no requests\n";
    return 1;
  }
  std::cout << "bench_serve: PASS — zero steady-state allocations\n";
  return 0;
}
