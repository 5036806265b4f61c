// Network front-end tests: wire-protocol round trips, listener/poller
// basics, the epoll server against the built-in load generator, and — the
// headline contract — the served loopback run matching its sim twin's
// arrival plan request-by-request (DESIGN.md §5h).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "core/framework.hpp"
#include "net/loadgen.hpp"
#include "net/serve_session.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "runtime/gateway.hpp"
#include "workload/generators.hpp"

// Timing-sensitive assertions are meaningless under sanitizer slowdown;
// those tests skip themselves and CI runs them in the release leg instead.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
#define FIFER_SANITIZED 1
#endif
#if !defined(FIFER_SANITIZED) && defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
#define FIFER_SANITIZED 1
#endif
#endif

namespace fifer::net {
namespace {

// ------------------------------------------------------------------- wire

TEST(Wire, RequestRoundTrip) {
  wire::Request in;
  in.app_index = 3;
  in.input_scale = 1.75;
  in.tag = 0xDEADBEEFCAFEull;
  in.client_send_ns = 0x0123456789ABCDEFull;

  std::uint8_t frame[wire::kMaxFrame];
  const std::size_t len = wire::encode_request(in, frame);
  EXPECT_EQ(len, wire::kHeaderBytes + wire::kRequestPayload);
  EXPECT_EQ(wire::get_u32(frame), wire::kRequestPayload);
  EXPECT_EQ(frame[wire::kHeaderBytes],
            static_cast<std::uint8_t>(wire::FrameType::kRequest));

  wire::Request out;
  ASSERT_TRUE(wire::decode_request(frame + wire::kHeaderBytes,
                                   wire::kRequestPayload, &out));
  EXPECT_EQ(out.version, wire::kVersion);
  EXPECT_EQ(out.app_index, in.app_index);
  EXPECT_DOUBLE_EQ(out.input_scale, in.input_scale);
  EXPECT_EQ(out.tag, in.tag);
  EXPECT_EQ(out.client_send_ns, in.client_send_ns);
}

TEST(Wire, ResponseRoundTrip) {
  wire::Response in;
  in.tag = 42;
  in.status = wire::Status::kDraining;
  in.violated_slo = 1;
  in.arrival_ms = 123.5;
  in.completion_ms = 456.25;
  in.client_send_ns = 999;

  std::uint8_t frame[wire::kMaxFrame];
  const std::size_t len = wire::encode_response(in, frame);
  EXPECT_EQ(len, wire::kHeaderBytes + wire::kResponsePayload);

  wire::Response out;
  ASSERT_TRUE(wire::decode_response(frame + wire::kHeaderBytes,
                                    wire::kResponsePayload, &out));
  EXPECT_EQ(out.tag, in.tag);
  EXPECT_EQ(out.status, wire::Status::kDraining);
  EXPECT_EQ(out.violated_slo, 1);
  EXPECT_DOUBLE_EQ(out.arrival_ms, in.arrival_ms);
  EXPECT_DOUBLE_EQ(out.completion_ms, in.completion_ms);
  EXPECT_EQ(out.client_send_ns, in.client_send_ns);
}

TEST(Wire, FinFrameAndMalformedSizesRejected) {
  std::uint8_t frame[wire::kMaxFrame];
  EXPECT_EQ(wire::encode_fin(frame), wire::kHeaderBytes + wire::kFinPayload);
  EXPECT_EQ(frame[wire::kHeaderBytes],
            static_cast<std::uint8_t>(wire::FrameType::kFin));

  wire::Request req;
  wire::Response resp;
  // Truncated and oversized payloads must be rejected, not misparsed.
  EXPECT_FALSE(wire::decode_request(frame, wire::kRequestPayload - 1, &req));
  EXPECT_FALSE(wire::decode_request(frame, wire::kRequestPayload + 1, &req));
  EXPECT_FALSE(wire::decode_response(frame, wire::kResponsePayload - 1, &resp));
  EXPECT_FALSE(wire::decode_response(frame, wire::kFinPayload, &resp));
}

// ----------------------------------------------------------------- socket

TEST(Listener, BindsEphemeralPortAndReportsAddrInUse) {
  Listener first;
  ASSERT_TRUE(first.listen("127.0.0.1", 0, 8));
  EXPECT_GT(first.port(), 0);

  // Binding the same port again must fail cleanly with EADDRINUSE — the
  // errno serving wrappers key their port-retry loop on.
  Listener second;
  EXPECT_FALSE(second.listen("127.0.0.1", first.port(), 8));
  EXPECT_EQ(second.error(), EADDRINUSE);
}

TEST(Poller, WakeIsVisibleFromAnotherThread) {
  Poller poller;
  ASSERT_TRUE(poller.valid());
  std::thread waker([&] { poller.wake(); });
  Poller::Event events[4];
  const int n = poller.wait(events, 4, /*timeout_ms=*/2000);
  waker.join();
  ASSERT_EQ(n, 1);
  EXPECT_EQ(events[0].data, Poller::kWakeData);
}

// ----------------------------------------------------------------- server

/// Responds to every request immediately from the epoll thread; the
/// smallest possible application of the Server API.
class EchoHandler : public ServerHandler {
 public:
  void attach(Server* s) { server_ = s; }
  void on_request(std::uint64_t conn_id, const wire::Request& req) override {
    wire::Response resp;
    resp.tag = req.tag;
    resp.status = wire::Status::kOk;
    resp.client_send_ns = req.client_send_ns;
    server_->respond(conn_id, resp);
  }
  void on_fin(std::uint64_t) override {
    fins_.fetch_add(1, std::memory_order_relaxed);
  }
  std::uint64_t fins() const { return fins_.load(std::memory_order_relaxed); }

 private:
  Server* server_ = nullptr;
  std::atomic<std::uint64_t> fins_{0};
};

std::vector<Arrival> tiny_plan(std::size_t n, const std::string& app) {
  std::vector<Arrival> plan;
  for (std::size_t i = 0; i < n; ++i) {
    Arrival a;
    a.time = static_cast<double>(i);  // 1 simulated ms apart
    a.app = app;
    a.input_scale = 1.0 + 0.01 * static_cast<double>(i);
    plan.push_back(a);
  }
  return plan;
}

TEST(Server, EchoesRequestsFromLoadGenerator) {
  EchoHandler handler;
  ServerOptions so;
  Server server(so, &handler);
  handler.attach(&server);
  ASSERT_TRUE(server.listen());
  server.start();

  const ApplicationRegistry apps = ApplicationRegistry::paper_chains();
  const std::vector<Arrival> plan = tiny_plan(50, apps.all().front().name);
  LoadGenOptions lg;
  lg.port = server.port();
  lg.connections = 3;
  lg.time_scale = 1000.0;
  lg.timeout_seconds = 30.0;
  lg.warmup_requests = 10;  // first 10 RTTs excluded from the percentiles
  const LoadGenReport r = run_loadgen(plan, apps, lg);

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.sent, 50u);
  EXPECT_EQ(r.received, 50u);
  EXPECT_EQ(r.ok, 50u);
  EXPECT_EQ(r.errors, 0u);
  EXPECT_EQ(r.rtt_samples, 40u);  // 50 responses minus the warmup prefix
  EXPECT_GT(r.rtt_p50_ms, 0.0);
  EXPECT_GE(r.rtt_p999_ms, r.rtt_p99_ms);
  EXPECT_GE(r.rtt_max_ms, r.rtt_p999_ms);

  // The client returns as soon as its FINs hit the kernel; give the epoll
  // thread a moment to parse them (serving mode waits on this count as its
  // drain predicate, so there the race cannot happen).
  for (int i = 0; i < 500 && handler.fins() < 3u; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server.shutdown();
  const ServerStats stats = server.stats();
  EXPECT_EQ(stats.requests, 50u);
  EXPECT_EQ(stats.responses, 50u);
  EXPECT_EQ(stats.fins, 3u);  // one FIN per connection
  EXPECT_EQ(handler.fins(), 3u);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.protocol_errors, 0u);
}

// Open loop times a request from its planned send instant, not from when it
// actually left: a generator that starts behind its plan shows the lag in
// the RTT (no coordinated omission) and reports it as send lateness.
TEST(LoadGen, OpenLoopRttCountsFromThePlannedSendTime) {
  EchoHandler handler;
  ServerOptions so;
  Server server(so, &handler);
  handler.attach(&server);
  ASSERT_TRUE(server.listen());
  server.start();

  const ApplicationRegistry apps = ApplicationRegistry::paper_chains();
  // Real time, and every send instant lies 2 s before the generator starts:
  // each request is already 2 s late when it leaves.
  std::vector<Arrival> plan = tiny_plan(8, apps.all().front().name);
  for (Arrival& a : plan) a.time -= 2000.0;
  LoadGenOptions lg;
  lg.port = server.port();
  lg.connections = 2;
  lg.time_scale = 1.0;
  lg.timeout_seconds = 30.0;
  const LoadGenReport r = run_loadgen(plan, apps, lg);
  server.shutdown();

  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.ok, 8u);
  EXPECT_GE(r.rtt_p50_ms, 1990.0);
  EXPECT_GE(r.send_lateness_max_ms, 1990.0);
  EXPECT_GE(r.send_lateness_p99_ms, 1990.0);
  EXPECT_LE(r.send_lateness_max_ms, r.rtt_max_ms);
}

TEST(Server, RespondAfterShutdownIsRefused) {
  EchoHandler handler;
  Server server(ServerOptions{}, &handler);
  handler.attach(&server);
  ASSERT_TRUE(server.listen());
  server.start();
  server.shutdown();
  wire::Response resp;
  EXPECT_FALSE(server.respond(/*conn_id=*/0, resp));
}

// ---------------------------------------------------------- serve session

ExperimentParams serve_params(double duration_s, double lambda,
                              std::uint64_t seed) {
  ExperimentParams p;
  p.rm = RmConfig::rscale();
  p.rm.idle_timeout_ms = minutes(1.0);
  p.mix = WorkloadMix::heavy();
  p.trace = poisson_trace(duration_s, lambda);
  p.trace_name = "poisson";
  p.seed = seed;
  p.train.epochs = 2;
  return p;
}

/// One loopback serving run: serve_live on a background thread, the load
/// generator replaying the same seed's plan on this one.
struct LoopbackRun {
  ServeRunReport serve;
  LoadGenReport client;
  std::size_t plan_size = 0;
};

LoopbackRun run_loopback(const ExperimentParams& params, double time_scale,
                         std::size_t connections, bool closed_loop = false,
                         std::uint64_t closed_requests = 0) {
  LoopbackRun out;
  out.plan_size = materialize_arrival_plan(params).size();

  LiveOptions lo;
  lo.time_scale = time_scale;
  lo.max_wall_seconds = 120.0;

  ServeOptions so;
  so.expected_clients = connections;
  so.reference_plan = materialize_arrival_plan(params);

  std::atomic<std::uint16_t> port{0};
  so.on_listening = [&](std::uint16_t p) {
    port.store(p, std::memory_order_release);
  };

  std::thread serving([&] { out.serve = serve_live(params, lo, so); });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  LoadGenOptions lg;
  lg.port = port.load(std::memory_order_acquire);
  lg.connections = connections;
  lg.time_scale = time_scale;
  lg.closed_loop = closed_loop;
  lg.closed_requests = closed_requests;
  lg.closed_window = 4;
  lg.timeout_seconds = 120.0;
  out.client = run_loadgen(params, lg);
  serving.join();
  return out;
}

// The tentpole end-to-end contract: loadgen -> TCP -> live runtime ->
// responses, with the served request sequence matching the sim twin's
// arrival plan tag-by-tag and the drain handshake completing cleanly.
TEST(ServeSession, LoopbackEndToEndMatchesThePlanAndDrains) {
  const ExperimentParams params = serve_params(10.0, 5.0, /*seed=*/3);
  const LoopbackRun run = run_loopback(params, /*time_scale=*/400.0,
                                       /*connections=*/2);

  ASSERT_FALSE(run.serve.listen_failed);
  EXPECT_TRUE(run.client.completed);
  EXPECT_TRUE(run.serve.live.drained);
  EXPECT_GT(run.plan_size, 10u);

  // Every plan entry was sent, admitted, completed, and answered — and
  // agreed with the reference plan (same seed, same RNG split).
  EXPECT_EQ(run.client.sent, run.plan_size);
  EXPECT_EQ(run.client.ok, run.plan_size);
  EXPECT_EQ(run.serve.admitted, run.plan_size);
  EXPECT_EQ(run.serve.responded, run.plan_size);
  EXPECT_EQ(run.serve.plan_mismatches, 0u);
  EXPECT_EQ(run.serve.rejected_draining, 0u);
  EXPECT_EQ(run.serve.rejected_unknown_app, 0u);
  EXPECT_EQ(run.serve.live.result.jobs_submitted, run.plan_size);
  EXPECT_EQ(run.serve.live.result.jobs_completed, run.plan_size);
  EXPECT_EQ(run.serve.net.protocol_errors, 0u);
  EXPECT_EQ(run.serve.net.slow_consumer_drops, 0u);

  // Client- and server-side verdict streams agree.
  EXPECT_EQ(run.client.server_slo_violations, run.serve.slo_violations);
}

/// Threads of this process, or 0 where /proc is unavailable.
std::size_t process_threads() {
  std::error_code ec;
  std::filesystem::directory_iterator it("/proc/self/task", ec);
  if (ec) return 0;
  return static_cast<std::size_t>(
      std::distance(it, std::filesystem::directory_iterator()));
}

// Containers are events on the runtime's loop, not threads: a served Bline
// session that spawns over a hundred containers runs on a fixed set of threads
// (this one as the client, the serving thread as the event loop, the epoll
// thread, the sampler), however many containers it spawns.
TEST(ServeSession, ThreadCountDoesNotGrowWithSpawns) {
  if (process_threads() == 0) GTEST_SKIP() << "/proc/self/task is unavailable";
  ExperimentParams params = serve_params(10.0, 40.0, /*seed=*/3);
  params.rm = RmConfig::bline();
  params.rm.idle_timeout_ms = minutes(1.0);

  std::atomic<bool> sampling{true};
  std::atomic<std::size_t> peak{0};
  std::thread sampler([&] {
    while (sampling.load(std::memory_order_acquire)) {
      peak.store(std::max(peak.load(), process_threads()));
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });
  const LoopbackRun run = run_loopback(params, /*time_scale=*/100.0,
                                       /*connections=*/2);
  sampling.store(false, std::memory_order_release);
  sampler.join();

  ASSERT_FALSE(run.serve.listen_failed);
  ASSERT_TRUE(run.serve.live.drained);
  EXPECT_GE(run.serve.live.result.containers_spawned, 100u);
  EXPECT_EQ(run.serve.live.peak_worker_threads, 0u);
  EXPECT_LE(peak.load(), 8u);
}

TEST(ServeSession, ClosedLoopServesTheRequestedCount) {
  const ExperimentParams params = serve_params(5.0, 4.0, /*seed=*/5);
  const LoopbackRun run =
      run_loopback(params, /*time_scale=*/400.0, /*connections=*/2,
                   /*closed_loop=*/true, /*closed_requests=*/64);

  ASSERT_FALSE(run.serve.listen_failed);
  EXPECT_TRUE(run.client.completed);
  EXPECT_TRUE(run.serve.live.drained);
  EXPECT_EQ(run.client.sent, 64u);
  EXPECT_EQ(run.client.received, 64u);
  EXPECT_EQ(run.serve.admitted, 64u);
  EXPECT_EQ(run.serve.responded, 64u);
}

TEST(ServeSession, ZeroRequestDrainHandshake) {
  // A client that sends only FINs: the server must drain with zero jobs.
  ExperimentParams params = serve_params(5.0, 4.0, /*seed=*/9);

  LiveOptions lo;
  lo.time_scale = 400.0;
  lo.max_wall_seconds = 60.0;

  ServeOptions so;
  so.expected_clients = 1;
  std::atomic<std::uint16_t> port{0};
  so.on_listening = [&](std::uint16_t p) {
    port.store(p, std::memory_order_release);
  };

  ServeRunReport report;
  std::thread serving([&] { report = serve_live(params, lo, so); });
  while (port.load(std::memory_order_acquire) == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  LoadGenOptions lg;
  lg.port = port.load(std::memory_order_acquire);
  lg.connections = 1;
  lg.timeout_seconds = 30.0;
  const LoadGenReport client =
      run_loadgen({}, params.applications, lg);  // empty plan: FIN only
  serving.join();

  EXPECT_TRUE(client.completed);
  EXPECT_EQ(client.sent, 0u);
  ASSERT_FALSE(report.listen_failed);
  EXPECT_TRUE(report.live.drained);
  EXPECT_EQ(report.admitted, 0u);
  EXPECT_EQ(report.live.result.jobs_submitted, 0u);
  EXPECT_EQ(report.net.fins, 1u);
  // Nothing was answered, so there is no SLO attainment to report.
  EXPECT_EQ(report.responded, 0u);
  EXPECT_TRUE(std::isnan(report.slo_attainment_pct));
}

TEST(ServeSession, ListenFailureIsReportedNotFatal) {
  // Occupy a port, then ask serve_live for the same one: it must come back
  // with listen_failed + EADDRINUSE without running anything.
  Listener squatter;
  ASSERT_TRUE(squatter.listen("127.0.0.1", 0, 8));

  const ExperimentParams params = serve_params(5.0, 4.0, /*seed=*/1);
  LiveOptions lo;
  lo.time_scale = 400.0;
  ServeOptions so;
  so.server.port = squatter.port();
  const ServeRunReport report = serve_live(params, lo, so);

  EXPECT_TRUE(report.listen_failed);
  EXPECT_EQ(report.listen_errno, EADDRINUSE);
  EXPECT_EQ(report.admitted, 0u);
}

// The served twin of the fidelity contract: a network-fed run and the
// in-process live replay of the same seed must agree on SLO attainment
// within 5 percentage points (they process the identical request sequence;
// only the front door differs).
TEST(ServeSession, SloAttainmentMatchesLiveReplayTwin) {
#ifdef FIFER_SANITIZED
  GTEST_SKIP() << "timing fidelity is meaningless under sanitizer slowdown";
#endif
  ExperimentParams params = serve_params(60.0, 8.0, /*seed=*/11);
  params.warmup_ms = 0.0;  // compare verdicts over the full request set

  // Both sides are wall-clock paced, so transient host load (a concurrent
  // build, a noisy CI neighbour) can push either run's tail past the bar on
  // its own — that measures the machine, not the front door.  A genuine
  // serving-path fidelity bug is deterministic, so retry a couple of times
  // and only fail if every attempt disagrees.
  double served_violation_pct = 0.0;
  double replay_violation_pct = 0.0;
  double delta_pp = 100.0;
  for (int attempt = 0; attempt < 3 && delta_pp > 5.0; ++attempt) {
    ExperimentParams replay_params = params;
    LiveOptions lo;
    lo.time_scale = 100.0;
    const LiveRunReport replay = run_live(std::move(replay_params), lo);
    ASSERT_TRUE(replay.drained);

    const LoopbackRun run = run_loopback(params, /*time_scale=*/100.0,
                                         /*connections=*/4);
    ASSERT_FALSE(run.serve.listen_failed);
    ASSERT_TRUE(run.serve.live.drained);
    ASSERT_TRUE(run.client.completed);

    // Identical plans: both runs submitted the same jobs.
    EXPECT_EQ(run.serve.live.result.jobs_submitted,
              replay.result.jobs_submitted);

    served_violation_pct = 100.0 - run.serve.slo_attainment_pct;
    replay_violation_pct = replay.result.slo_violation_pct();
    delta_pp = std::abs(served_violation_pct - replay_violation_pct);
  }
  EXPECT_LE(delta_pp, 5.0)
      << "SLO violations: replay " << replay_violation_pct << "% vs served "
      << served_violation_pct << "%";
}

}  // namespace
}  // namespace fifer::net
