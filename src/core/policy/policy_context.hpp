#pragma once

#include <functional>
#include <map>
#include <string>

#include "common/types.hpp"
#include "core/stage.hpp"

namespace fifer {

namespace obs {
class TraceSink;
}

struct ExperimentParams;
class ProfileBook;
class MicroserviceRegistry;
class ApplicationRegistry;
class WindowSampler;
class Container;

/// The framework-side view a policy strategy operates through. It exposes
/// exactly the substrate a resource-management decision needs — simulated
/// time, per-stage state, container spawn/terminate, the arrival-rate
/// sampler — and nothing of the event plumbing, so a new policy is a small
/// strategy object rather than another branch in the framework.
///
/// Hook order per event (see DESIGN.md §5c): `on_arrival` fires after the
/// task entered the stage queue and before dispatch; `on_tick` fires at the
/// cadence the scaler registered in `install()`; `on_starved` fires from
/// housekeeping after the idle reaper ran.
///
/// Hot-path contract (DESIGN.md §5g): everything reachable from here during
/// steady state is non-allocating — `StageState::live()` is a filtered view
/// over slab storage (no vector is materialized), the fleet counters and
/// `select_container()` are O(1) reads of the stage's fleet index, and
/// spawn/terminate recycle slab slots. A policy that stays on these
/// accessors adds no per-decision heap traffic to the event loop; one that
/// iterates `live()` pays O(fleet) per call.
class PolicyContext {
 public:
  virtual ~PolicyContext() = default;

  virtual SimTime now() const = 0;
  virtual const ExperimentParams& params() const = 0;
  virtual std::map<std::string, StageState>& stages() = 0;
  virtual const ProfileBook& profiles() const = 0;
  virtual const MicroserviceRegistry& services() const = 0;
  virtual const ApplicationRegistry& apps() const = 0;
  virtual const WindowSampler& sampler() const = 0;

  /// Spawns one container for `st` (allocating node resources, sampling a
  /// cold start, reclaiming idle capacity under pressure). Returns nullptr
  /// when the cluster is full; scalers treat that as "stop spawning".
  virtual Container* spawn_container(StageState& st) = 0;

  /// Releases `c`'s node resources and terminates it (scale-down). The
  /// caller still runs `st.erase_terminated()` when its pass is done.
  virtual void terminate_container(StageState& st, Container& c) = 0;

  /// Registers a periodic policy tick on the simulation clock; only valid
  /// during `Scaler::install`. Registration order is part of the
  /// determinism contract: same-time events fire in registration order.
  virtual void every(SimDuration period_ms, std::function<void(SimTime)> cb) = 0;

  /// The run's decision/span sink, or nullptr when tracing is off. Policy
  /// strategies log their decisions (with the Algorithm-1 inputs they were
  /// computed from) through this hook:
  ///
  ///   if (auto* t = ctx.trace()) t->on_decision({...});
  ///
  /// The null check is the entire disabled-tracing cost, which is what
  /// keeps the hot path inside `bench_overheads`' ≤2% envelope.
  virtual obs::TraceSink* trace() const { return nullptr; }
};

/// Fraction of arriving jobs whose chain includes `stage` under the run's
/// workload mix — the per-stage share of any cluster-wide rate estimate
/// (used by both the static and proactive provisioners).
double stage_arrival_fraction(const PolicyContext& ctx, const std::string& stage);

}  // namespace fifer
