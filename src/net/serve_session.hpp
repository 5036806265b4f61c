#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "core/experiment_params.hpp"
#include "net/server.hpp"
#include "core/framework.hpp"
#include "workload/arrival.hpp"

namespace fifer::net {

/// Knobs of one serving run (everything about the experiment still comes
/// from ExperimentParams / LiveOptions, so a served run and its replay twin
/// differ only in the front door).
struct ServeOptions {
  ServerOptions server;
  /// Drain predicate: the run ends once this many connections have sent
  /// their FIN frame or were lost (and every admitted request completed).
  std::size_t expected_clients = 1;
  /// When non-empty, every admitted request's (tag -> app_index,
  /// input_scale) is checked against this plan — the sim twin's arrival
  /// plan from materialize_arrival_plan() — and mismatches are counted.
  std::vector<Arrival> reference_plan;
  /// Invoked with the bound port after a successful listen(), before the
  /// runtime starts (the CLI prints it; in-process tests connect to it).
  std::function<void(std::uint16_t)> on_listening;
};

/// What a serving run produced: the live report plus the network view.
struct ServeRunReport {
  LiveRunReport live;
  ServerStats net;
  std::uint16_t port = 0;
  bool listen_failed = false;
  int listen_errno = 0;

  std::uint64_t admitted = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_unknown_app = 0;
  std::uint64_t rejected_bad_version = 0;
  std::uint64_t responded = 0;  ///< kOk responses written back.
  /// Connections that closed before sending their FIN (peer gone, error,
  /// protocol violation or slow-consumer drop). Each counts toward
  /// expected_clients, so the drain ends on it instead of running out the
  /// wall budget.
  std::uint64_t lost_connections = 0;
  /// Admitted requests whose (app_index, input_scale) disagreed with
  /// reference_plan[tag]; 0 on a faithful replay.
  std::uint64_t plan_mismatches = 0;

  /// Server-side SLO verdicts over admitted-and-completed requests
  /// (simulated time, same definition as the sim twin's violation count).
  /// Attainment is undefined (NaN) when nothing was responded to.
  std::uint64_t slo_violations = 0;
  double slo_attainment_pct = std::numeric_limits<double>::quiet_NaN();

  /// Wall-clock round trip observed at the server: client send stamp ->
  /// response queued (CLOCK_MONOTONIC, valid on one host — the loopback
  /// harness). Milliseconds.
  double rtt_p50_ms = 0.0;
  double rtt_p95_ms = 0.0;
  double rtt_p99_ms = 0.0;
  double rtt_max_ms = 0.0;
};

/// Runs one serving session: binds the TCP front-end, drives the live
/// runtime in external-arrival mode on the calling thread — the loop serves
/// the sockets while it waits for its next event — until `expected_clients`
/// connections sent their FIN or were lost (or the wall budget runs out),
/// then drains and reports. Blocking; returns when the run is over. On a
/// bind failure (`listen_failed`, EADDRINUSE in `listen_errno`) nothing
/// ran — retry with another port.
ServeRunReport serve_live(const ExperimentParams& params, LiveOptions live_opts,
                          ServeOptions serve_opts);

}  // namespace fifer::net
