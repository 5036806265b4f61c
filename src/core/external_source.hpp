#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "sim/clock.hpp"

/// The external-ingestion seam of a wall-clock run (DESIGN.md §5h): arrivals
/// may come from outside the process — the socket layer in `src/net/` —
/// instead of (not in place of; trace replay stays byte-identical) the
/// driver's pre-planned pump. The core layer defines only these interfaces;
/// it never includes net headers, so sim-only builds and tests keep their
/// dependency surface.
namespace fifer {

/// One externally submitted request, as the runtime sees it.
struct ExternalRequest {
  /// Index into ApplicationRegistry::all() — the registry's deterministic
  /// insertion order is the wire protocol's app numbering.
  std::uint32_t app_index = 0;
  double input_scale = 1.0;
  /// Caller-chosen request id, echoed through completion (the load
  /// generator uses the arrival-plan index, which is what lets a served run
  /// be checked request-by-request against its sim twin).
  std::uint64_t tag = 0;
  /// Client CLOCK_MONOTONIC send stamp (nanoseconds), carried opaquely.
  std::uint64_t client_send_ns = 0;
  /// Simulated-ms instant the front-end received the request (pre-admission
  /// network/parse time shows up as received_ms -> arrival_ms in the span).
  SimTime received_ms = 0.0;
  /// Originating-connection cookie, carried opaquely back in the
  /// completion so the source can route the response.
  std::uint64_t conn_id = 0;
};

/// The admission interface the driver exposes to an external source.
/// Implemented by the driver (core/framework.hpp), open only under the
/// scaled wall clock, and called from the source's poll().
class ExternalGate {
 public:
  enum class Admit {
    kAccepted,
    kDraining,     ///< Not accepting (pre-start or draining); not admitted.
    kUnknownApp,   ///< app_index out of registry range; not admitted.
  };

  virtual ~ExternalGate() = default;

  virtual Admit submit(const ExternalRequest& req) = 0;
};

/// A completed external request: the original submission plus the runtime's
/// verdict, everything a front-end needs to write the response.
struct ExternalCompletion {
  ExternalRequest req;
  SimTime arrival_ms = 0.0;     ///< Admission stamp (SLO counts from here).
  SimTime completion_ms = 0.0;
  bool violated_slo = false;
};

/// What a wall-clock run serves when `LiveOptions::external_source` is set.
/// One source instance serves one run. Every call comes from the run's loop
/// thread.
class ExternalArrivalSource {
 public:
  virtual ~ExternalArrivalSource() = default;

  /// The run is accepting: the clock is anchored and the gate is open.
  /// Called once, before the loop starts. The gate and clock outlive the
  /// run.
  virtual void start(ExternalGate& gate, const LiveClock& clock) = 0;

  /// Serves I/O until the wall instant `until`, submitting what arrives
  /// through the gate. It may return earlier, once it served something, so
  /// the loop fires what that scheduled without delay. The loop calls it
  /// wherever it would otherwise sleep until its next event, and, while
  /// events are overdue, with an `until` in the past, so the source never
  /// blocks then.
  virtual void poll(LiveClock::WallTime until) = 0;

  /// An admitted request completed. Must not call back into the gate.
  virtual void on_completion(const ExternalCompletion& done) = 0;

  /// Drain predicate: true once the source expects no further submissions
  /// (e.g. every client sent its FIN or was lost). Read by the loop before
  /// every wait and at every 10-simulated-s drain check.
  virtual bool finished() = 0;

  /// The run is over (drain or hard deadline): stop serving. Called once
  /// after the gate closed and before teardown; a submission from here on
  /// gets Admit::kDraining.
  virtual void stop() = 0;
};

}  // namespace fifer
