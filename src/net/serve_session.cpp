#include "net/serve_session.hpp"

#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/stats.hpp"

namespace fifer::net {

namespace {

std::uint64_t monotonic_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          LiveClock::WallClock::now().time_since_epoch())
          .count());
}

/// The glue between the epoll front-end and the runtime's external gate:
/// `ServerHandler` on the ingress side (epoll thread — parses frames,
/// submits through the gate, answers rejections immediately) and
/// `ExternalArrivalSource` on the runtime side (completions come back under
/// the runtime state lock and are queued to the originating connection).
///
/// Threading: the epoll thread touches the relaxed counters and calls
/// `gate->submit` (which takes the runtime state lock — the epoll thread
/// holds no lock then, per the §5f order). `on_completion` runs under the
/// state lock and only calls `Server::respond` (the `net.server.pending`
/// leaf lock) — a 10 -> 20 acquisition, the sanctioned direction. The
/// completion-side tallies (RTT samples, SLO counts) are written only under
/// the state lock and read only after the run joined, so they need no lock
/// of their own.
class LiveServeSource final : public ServerHandler, public ExternalArrivalSource {
 public:
  /// Expected (app_index, input_scale) per tag, from the reference plan.
  struct PlanEntry {
    std::uint32_t app_index = 0;
    double input_scale = 1.0;
  };

  LiveServeSource(std::size_t expected_clients, std::vector<PlanEntry> plan)
      : expected_clients_(expected_clients), plan_(std::move(plan)) {}

  void attach(Server& server) { server_ = &server; }

  // --- ServerHandler (epoll thread) ---

  void on_request(std::uint64_t conn_id, const wire::Request& req) override {
    if (req.version != wire::kVersion) {
      rejected_bad_version_.fetch_add(1, std::memory_order_relaxed);
      reject(conn_id, req, wire::Status::kBadVersion);
      return;
    }
    ExternalRequest er;
    er.app_index = req.app_index;
    er.input_scale = req.input_scale;
    er.tag = req.tag;
    er.client_send_ns = req.client_send_ns;
    er.received_ms = clock_ != nullptr ? clock_->now_ms() : 0.0;
    er.conn_id = conn_id;

    ExternalGate* gate = gate_.load(std::memory_order_acquire);
    const auto admit =
        gate != nullptr ? gate->submit(er) : ExternalGate::Admit::kDraining;
    switch (admit) {
      case ExternalGate::Admit::kAccepted:
        admitted_.fetch_add(1, std::memory_order_relaxed);
        if (!plan_.empty()) check_against_plan(req);
        break;
      case ExternalGate::Admit::kDraining:
        rejected_draining_.fetch_add(1, std::memory_order_relaxed);
        reject(conn_id, req, wire::Status::kDraining);
        break;
      case ExternalGate::Admit::kUnknownApp:
        rejected_unknown_app_.fetch_add(1, std::memory_order_relaxed);
        reject(conn_id, req, wire::Status::kUnknownApp);
        break;
    }
  }

  void on_fin(std::uint64_t) override {
    const std::uint64_t fins = fins_.fetch_add(1, std::memory_order_acq_rel) + 1;
    if (fins >= expected_clients_) {
      if (ExternalGate* gate = gate_.load(std::memory_order_acquire)) {
        gate->wake();
      }
    }
  }

  // --- ExternalArrivalSource (run loop / runtime-lock side) ---

  void start(ExternalGate& gate, const LiveClock& clock) override {
    clock_ = &clock;
    gate_.store(&gate, std::memory_order_release);
    // Only now does the epoll loop spin up: no frame can reach on_request
    // before the runtime accepts, so early connections wait in the kernel
    // instead of being rejected.
    server_->start();
  }

  void on_completion(const ExternalCompletion& done) override {
    wire::Response resp;
    resp.tag = done.req.tag;
    resp.status = wire::Status::kOk;
    resp.violated_slo = done.violated_slo ? 1 : 0;
    resp.arrival_ms = done.arrival_ms;
    resp.completion_ms = done.completion_ms;
    resp.client_send_ns = done.req.client_send_ns;
    server_->respond(done.req.conn_id, resp);

    ++responded_;
    if (done.violated_slo) ++slo_violations_;
    if (done.req.client_send_ns != 0) {
      const std::uint64_t now = monotonic_ns();
      if (now > done.req.client_send_ns) {
        rtt_ms_.push_back(
            static_cast<double>(now - done.req.client_send_ns) / 1e6);
      }
    }
  }

  bool finished() override {
    return fins_.load(std::memory_order_acquire) >= expected_clients_;
  }

  void stop() override { server_->stop_accepting(); }

  // --- post-run tallies (single-threaded once the run returned) ---

  void fill(ServeRunReport* report) const {
    report->admitted = admitted_.load(std::memory_order_relaxed);
    report->rejected_draining =
        rejected_draining_.load(std::memory_order_relaxed);
    report->rejected_unknown_app =
        rejected_unknown_app_.load(std::memory_order_relaxed);
    report->rejected_bad_version =
        rejected_bad_version_.load(std::memory_order_relaxed);
    report->plan_mismatches = plan_mismatches_.load(std::memory_order_relaxed);
    report->responded = responded_;
    report->slo_violations = slo_violations_;
    if (responded_ > 0) {
      report->slo_attainment_pct =
          100.0 * (1.0 - static_cast<double>(slo_violations_) /
                             static_cast<double>(responded_));
    }
    Percentiles rtt;
    rtt.add_all(rtt_ms_);
    report->rtt_p50_ms = rtt.median();
    report->rtt_p95_ms = rtt.p95();
    report->rtt_p99_ms = rtt.p99();
    report->rtt_max_ms = rtt.max();
  }

 private:
  void reject(std::uint64_t conn_id, const wire::Request& req,
              wire::Status status) {
    wire::Response resp;
    resp.tag = req.tag;
    resp.status = status;
    resp.client_send_ns = req.client_send_ns;
    server_->respond(conn_id, resp);
  }

  void check_against_plan(const wire::Request& req) {
    const bool ok = req.tag < plan_.size() &&
                    plan_[req.tag].app_index == req.app_index &&
                    std::abs(plan_[req.tag].input_scale - req.input_scale) <
                        1e-12;
    if (!ok) plan_mismatches_.fetch_add(1, std::memory_order_relaxed);
  }

  Server* server_ = nullptr;
  const LiveClock* clock_ = nullptr;
  const std::size_t expected_clients_;
  const std::vector<PlanEntry> plan_;

  std::atomic<ExternalGate*> gate_{nullptr};
  std::atomic<std::uint64_t> fins_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_draining_{0};
  std::atomic<std::uint64_t> rejected_unknown_app_{0};
  std::atomic<std::uint64_t> rejected_bad_version_{0};
  std::atomic<std::uint64_t> plan_mismatches_{0};

  // Written only under the runtime state lock (on_completion), read after
  // the run joined.
  std::uint64_t responded_ = 0;
  std::uint64_t slo_violations_ = 0;
  std::vector<double> rtt_ms_;
};

std::vector<LiveServeSource::PlanEntry> index_plan(
    const ExperimentParams& params, const std::vector<Arrival>& plan) {
  std::vector<LiveServeSource::PlanEntry> out;
  if (plan.empty()) return out;
  std::unordered_map<std::string, std::uint32_t> index;
  std::uint32_t i = 0;
  for (const ApplicationChain& chain : params.applications.all()) {
    index.emplace(chain.name, i++);
  }
  out.reserve(plan.size());
  for (const Arrival& a : plan) {
    LiveServeSource::PlanEntry e;
    const auto it = index.find(a.app);
    e.app_index = it != index.end() ? it->second : 0xffffffffu;
    e.input_scale = a.input_scale;
    out.push_back(e);
  }
  return out;
}

}  // namespace

ServeRunReport serve_live(const ExperimentParams& params, LiveOptions live_opts,
                          ServeOptions serve_opts) {
  ServeRunReport report;

  LiveServeSource source(serve_opts.expected_clients,
                         index_plan(params, serve_opts.reference_plan));
  Server server(serve_opts.server, &source);
  source.attach(server);

  if (!server.listen()) {
    report.listen_failed = true;
    report.listen_errno = server.listen_errno();
    return report;
  }
  report.port = server.port();
  if (serve_opts.on_listening) serve_opts.on_listening(server.port());

  live_opts.external_source = &source;
  {
    Driver<ScaledWallClock> rt(params, live_opts);
    report.live = rt.run();
    // Flush + close every connection while the runtime (and its gate) are
    // still alive: a straggler frame racing shutdown hits a draining gate,
    // not a dangling one.
    server.shutdown();
  }

  report.net = server.stats();
  source.fill(&report);
  return report;
}

}  // namespace fifer::net
