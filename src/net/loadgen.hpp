#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/experiment_params.hpp"
#include "workload/arrival.hpp"

namespace fifer::net {

/// Built-in load-generator client (the paper's request firehose, §5): a
/// single-threaded epoll loop multiplexing N concurrent connections to one
/// server, in either of two shapes:
///
///  - **open loop** (default): replays an arrival *plan* — request i is sent
///    at plan[i].time on the scaled clock (the same compression the server
///    runs at), on connection i % N, tagged with its plan index. With the
///    plan from `materialize_arrival_plan()` this is the served twin of a
///    replay run: same seed, same request sequence, byte for byte.
///  - **closed loop**: each connection keeps `closed_window` requests
///    outstanding (send-on-response), cycling through the plan entries for
///    app/input-size choices and ignoring their times; classic
///    concurrency-limited throughput probing.
///
/// Every request receives exactly one response (rejections included), so the
/// client knows when it is done: responses received == requests sent. It
/// then sends one FIN frame per connection — the server's drain signal —
/// and disconnects.
struct LoadGenOptions {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::size_t connections = 4;
  bool closed_loop = false;
  /// Open loop: simulated ms per wall ms; must match the server's
  /// LiveOptions::time_scale for the replay to be time-faithful.
  double time_scale = 100.0;
  /// Closed loop: total requests to issue and per-connection window.
  std::uint64_t closed_requests = 1000;
  std::size_t closed_window = 1;
  /// Wall budget; the run aborts (completed = false) when it expires.
  double timeout_seconds = 60.0;
  /// RTT samples from the first `warmup_requests` responses (in arrival
  /// order) are discarded before the percentiles are computed, so cold
  /// connections, cold containers, and page-in noise do not pollute the
  /// tail. Counters (sent/received/ok/...) still cover the whole run.
  std::uint64_t warmup_requests = 0;
};

struct LoadGenReport {
  std::uint64_t sent = 0;
  std::uint64_t received = 0;       ///< Responses of any status.
  std::uint64_t ok = 0;             ///< Status::kOk responses.
  std::uint64_t rejected = 0;       ///< Draining / unknown-app / bad-version.
  std::uint64_t server_slo_violations = 0;  ///< Server-side verdicts echoed back.
  std::uint64_t errors = 0;         ///< Connect/socket/protocol failures.
  bool completed = false;  ///< Every request answered, FINs sent, clean close.

  double wall_seconds = 0.0;
  double achieved_rps = 0.0;  ///< received / wall_seconds.

  /// Client-observed round trip (send -> response parsed), wall ms, over
  /// the post-warmup samples (see LoadGenOptions::warmup_requests). In open
  /// loop a request's round trip starts at its planned send instant, so
  /// the generator's own lateness counts against it.
  double rtt_p50_ms = 0.0;
  double rtt_p95_ms = 0.0;
  double rtt_p99_ms = 0.0;
  double rtt_p999_ms = 0.0;
  double rtt_max_ms = 0.0;
  /// Post-warmup sample count the percentiles above are computed from.
  std::uint64_t rtt_samples = 0;

  /// Open loop: how late requests left after their planned send instants,
  /// wall ms, over every request sent. 0 in closed loop.
  double send_lateness_p99_ms = 0.0;
  double send_lateness_max_ms = 0.0;
};

/// Fires `plan` at host:port per `opts` and blocks until done (all
/// responses in, FINs sent) or the timeout. An empty plan completes
/// immediately after sending the FINs — the zero-request drain handshake.
LoadGenReport run_loadgen(const std::vector<Arrival>& plan,
                          const ApplicationRegistry& apps,
                          const LoadGenOptions& opts);

/// Convenience: materializes the params' arrival plan (same RNG split as
/// the sim/live twin) and runs it.
LoadGenReport run_loadgen(const ExperimentParams& params,
                          const LoadGenOptions& opts);

}  // namespace fifer::net
