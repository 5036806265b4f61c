#pragma once

#include <cstdint>

#include "common/types.hpp"
#include "runtime/clock.hpp"

/// The live runtime's external-ingestion seam (DESIGN.md §5h): arrivals may
/// come from outside the process — the socket layer in `src/net/` — instead
/// of (not in place of; trace replay stays byte-identical) the runtime's
/// pre-planned pump. The runtime layer defines only these interfaces; it
/// never includes net headers, so sim-only builds and tests keep their
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

/// The admission interface the runtime exposes to an external source.
/// Implemented by LiveRuntime; thread-safe (takes the runtime state lock),
/// so the source's I/O thread calls it directly — holding no source-side
/// lock, per the §5f rank hierarchy (runtime state is rank kRuntimeState,
/// below every net-layer leaf lock).
class ExternalGate {
 public:
  enum class Admit {
    kAccepted,
    kDraining,     ///< Not accepting (pre-start or draining); not admitted.
    kUnknownApp,   ///< app_index out of registry range; not admitted.
  };

  virtual ~ExternalGate() = default;

  virtual Admit submit(const ExternalRequest& req) = 0;

  /// Nudges the runtime's drain loop to re-evaluate its done predicate —
  /// call after externally visible progress (e.g. the last client finished).
  virtual void wake() = 0;
};

/// A completed external request: the original submission plus the runtime's
/// verdict, everything a front-end needs to write the response.
struct ExternalCompletion {
  ExternalRequest req;
  SimTime arrival_ms = 0.0;     ///< Admission stamp (SLO counts from here).
  SimTime completion_ms = 0.0;
  bool violated_slo = false;
};

/// What the live runtime drives when `LiveOptions::external_source` is set. One
/// source instance serves one run.
class ExternalArrivalSource {
 public:
  virtual ~ExternalArrivalSource() = default;

  /// The runtime is accepting: workers are released, the clock is anchored.
  /// Called once, on the run's thread, before the drain loop starts. The
  /// gate and clock outlive the run.
  virtual void start(ExternalGate& gate, const LiveClock& clock) = 0;

  /// An admitted request completed. Called with the runtime state lock
  /// held — implementations may take leaf locks (rank > kRuntimeState) but
  /// must not call back into the gate.
  virtual void on_completion(const ExternalCompletion& done) = 0;

  /// Drain predicate: true once the source expects no further submissions
  /// (e.g. every client sent its FIN). Polled off-lock by the run loop; pair
  /// state changes with `ExternalGate::wake()`.
  virtual bool finished() = 0;

  /// The run is over (drain or hard deadline): stop submitting. Called once
  /// on the run's thread before worker teardown; submissions racing this
  /// call get Admit::kDraining.
  virtual void stop() = 0;
};

}  // namespace fifer
