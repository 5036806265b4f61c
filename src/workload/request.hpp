#pragma once

#include <algorithm>
#include <vector>

#include "common/slab.hpp"
#include "common/types.hpp"
#include "workload/application.hpp"

namespace fifer {

class Container;

/// Timestamped record of one stage (task) of a job as it moves through the
/// system. All times are simulated-ms; negative means "not yet happened".
struct StageRecord {
  SimTime enqueued = -1.0;     ///< Entered the stage's global queue.
  SimTime dispatched = -1.0;   ///< Assigned to a container's local queue.
  SimTime exec_start = -1.0;   ///< Began executing in the container.
  SimTime exec_end = -1.0;     ///< Finished executing.
  SimDuration exec_ms = 0.0;   ///< Sampled service time (excl. overheads).
  /// Portion of the pre-execution wait attributable to the assigned
  /// container still cold-starting (vs. ordinary queuing behind others).
  SimDuration cold_start_wait_ms = 0.0;
  ContainerId container{0};
  /// Slab handle of the executing container (generation-checked; stale once
  /// the container is reaped). `container` remains the stable exported id.
  SlabHandle<Container> container_handle;
  /// Tracing-only fields, captured at dispatch when a TraceSink is active
  /// (defaults otherwise): remaining slack (LSF's ordering quantity,
  /// §4.3) and the batch slot occupied in the container (0 = container was
  /// empty, B_size − 1 = the batch was filled).
  SimDuration slack_at_dispatch_ms = 0.0;
  int batch_slot = -1;

  /// Total wait between entering the stage queue and starting to execute.
  SimDuration wait_ms() const {
    return (exec_start >= 0.0 && enqueued >= 0.0) ? exec_start - enqueued : 0.0;
  }
  /// Wait not explained by cold starts: genuine queuing delay.
  SimDuration queue_wait_ms() const {
    return std::max(0.0, wait_ms() - cold_start_wait_ms);
  }
};

/// One request (the paper's "job"): a single invocation of an application
/// chain. Owned by the experiment driver; referenced by stage queues.
struct Job {
  JobId id{0};
  const ApplicationChain* app = nullptr;  ///< Non-owning; outlives the job.
  /// Admission time: the request entered the system. SLO deadlines and
  /// response times count from here.
  SimTime arrival = 0.0;
  /// Planned arrival time: the instant the arrival plan (or, for a served
  /// request, its admission) put it at. Equal to `arrival` in the simulator;
  /// a live replay admits it `arrival - planned` late. Warm-up membership
  /// counts from here, so every engine measures the same request set.
  SimTime planned = 0.0;
  SimTime completion = -1.0;  ///< Negative until the last stage finishes.
  double input_scale = 1.0;   ///< Input-size multiplier for exec times.
  std::vector<StageRecord> records;  ///< One per stage, in chain order.
  /// Which stages this request actually executes; empty means all of them.
  /// Populated per request for dynamic chains (data-dependent branches).
  std::vector<bool> stage_active;

  bool stage_runs(std::size_t i) const {
    return stage_active.empty() || (i < stage_active.size() && stage_active[i]);
  }

  bool done() const { return completion >= 0.0; }

  /// Absolute deadline implied by the application SLO.
  SimTime deadline() const { return arrival + app->slo_ms; }

  /// End-to-end response latency; only meaningful once done().
  SimDuration response_ms() const { return done() ? completion - arrival : 0.0; }

  bool violated_slo() const { return done() && response_ms() > app->slo_ms; }

  /// Remaining slack at time `now` given `remaining_busy_ms` of work still
  /// ahead (exec + overhead of stages not yet finished). This is the value
  /// the Least-Slack-First scheduler orders by; it shrinks as a job waits,
  /// which is what prevents starvation (paper §4.3).
  SimDuration remaining_slack_ms(SimTime now, SimDuration remaining_busy_ms) const {
    return deadline() - now - remaining_busy_ms;
  }

  SimDuration total_exec_ms() const {
    SimDuration total = 0.0;
    for (const auto& r : records) total += r.exec_ms;
    return total;
  }
  SimDuration total_queue_wait_ms() const {
    SimDuration total = 0.0;
    for (const auto& r : records) total += r.queue_wait_ms();
    return total;
  }
  SimDuration total_cold_start_wait_ms() const {
    SimDuration total = 0.0;
    for (const auto& r : records) total += r.cold_start_wait_ms;
    return total;
  }
};

/// Reference to one stage of one job: what actually sits in stage queues.
struct TaskRef {
  Job* job = nullptr;
  std::size_t stage_index = 0;

  const std::string& stage_name() const { return job->app->stages[stage_index]; }
  StageRecord& record() const { return job->records[stage_index]; }
};

}  // namespace fifer
