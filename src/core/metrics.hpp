#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "common/types.hpp"
#include "workload/request.hpp"

namespace fifer {

/// Per-stage (per-microservice) counters accumulated during a run.
struct StageMetrics {
  std::string stage;
  std::uint64_t containers_spawned = 0;
  std::uint64_t cold_starts = 0;
  /// Distinct containers that executed at least one task. Can be smaller
  /// than `containers_spawned`: proactively pre-warmed containers that the
  /// reaper collects before any work reaches them are spawned but never
  /// executed on.
  std::uint64_t containers_executed = 0;
  std::uint64_t tasks_executed = 0;
  std::uint64_t spawn_failures = 0;  ///< Cluster-full allocation rejections.
  RunningStats queue_wait_ms;
  RunningStats exec_ms;

  /// The paper's container-utilization metric: requests executed per
  /// container (RPC / "jobs per container", Figure 12a). Figure 12a counts
  /// jobs *executed* per container, so the denominator is the containers
  /// that ever ran a task — dividing by every spawn would deflate RPC for
  /// policies that pre-warm speculatively (BPred/Fifer) and overstate their
  /// underutilization relative to the paper.
  double requests_per_container() const {
    return containers_executed > 0
               ? static_cast<double>(tasks_executed) /
                     static_cast<double>(containers_executed)
               : 0.0;
  }
};

/// One sample of the cluster state, recorded every sampling interval —
/// the series behind Figure 12b (containers over time).
struct TimelineSample {
  SimTime time = 0.0;
  std::uint32_t active_containers = 0;
  std::uint32_t provisioning_containers = 0;
  std::uint64_t queued_tasks = 0;
  std::uint32_t powered_on_nodes = 0;
  double power_watts = 0.0;
};

/// Everything a single experiment run produces. All latency populations are
/// retained so benches can report medians, tails, CDFs, and histograms.
struct ExperimentResult {
  std::string policy;
  std::string mix;
  std::string trace;

  std::uint64_t jobs_submitted = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t slo_violations = 0;

  Percentiles response_ms;     ///< End-to-end response latency.
  Percentiles queuing_ms;      ///< Per-job total queuing wait.
  Percentiles exec_only_ms;    ///< Per-job total execution time.
  Percentiles cold_wait_ms;    ///< Per-job cold-start-attributed wait.

  std::uint64_t containers_spawned = 0;  ///< Total spawns (== cold starts).
  std::uint64_t bus_transitions = 0;     ///< Function-transition messages.
  double bus_peak_congestion = 1.0;      ///< Max event-bus slowdown factor.
  std::uint64_t predictor_retrains = 0;  ///< Online retraining rounds run.
  double avg_active_containers = 0.0;    ///< Time-averaged live containers.
  std::uint32_t peak_active_containers = 0;
  double energy_joules = 0.0;
  SimDuration duration_ms = 0.0;
  /// Simulator events executed during the run (0 in live mode). Not part of
  /// the canonical report — it measures the engine, not the policies — but
  /// byte-identical runs execute identical event counts, which is what lets
  /// bench_scale turn wall time into an events/sec throughput figure.
  std::uint64_t sim_events = 0;

  std::map<std::string, StageMetrics> stages;
  std::vector<TimelineSample> timeline;

  /// Undefined (NaN) when no job completed past the warm-up: a run that
  /// measured nothing has no violation rate, not a perfect one.
  double slo_violation_pct() const {
    return jobs_completed > 0 ? 100.0 * static_cast<double>(slo_violations) /
                                    static_cast<double>(jobs_completed)
                              : std::numeric_limits<double>::quiet_NaN();
  }

  /// Mean requests-per-container across stages (unweighted, as in Fig 12a).
  double mean_rpc() const;

  /// Average cluster power over the run (W).
  double avg_power_watts() const {
    return duration_ms > 0.0 ? energy_joules / to_seconds(duration_ms) : 0.0;
  }
};

/// Collects per-job and per-stage metrics during a run. The framework calls
/// the hooks; benches read the final ExperimentResult.
class MetricsCollector {
 public:
  explicit MetricsCollector(SimTime warmup_ms = 0.0) : warmup_ms_(warmup_ms) {}

  /// Counts a job whose planned arrival lies past the warm-up (Job::planned;
  /// jobs planned inside the warm-up are left out of every aggregate).
  void on_job_submitted(const Job& job);
  /// Folds a finished job into the aggregates (latency breakdown, SLO).
  void on_job_completed(const Job& job);

  /// The counters of stage `name`, created on first call. The reference
  /// stays valid until finish(), so a caller resolves it once per stage.
  /// finish() leaves out a stage that saw no spawn, spawn failure or task.
  StageMetrics& stage(const std::string& name);
  /// Counts a finished task; `first_on_container` marks the first task its
  /// container finished (container ids are never reused, so these count
  /// the distinct containers that executed).
  void on_task_executed(StageMetrics& sm, const StageRecord& rec,
                        bool first_on_container);
  void on_container_spawned(StageMetrics& sm);
  void on_spawn_failure(StageMetrics& sm);
  void record_timeline(TimelineSample sample);

  /// Finalizes time-averaged series and moves the result out.
  ExperimentResult finish(SimDuration duration_ms, double energy_joules);

 private:
  SimTime warmup_ms_;
  ExperimentResult result_;
};

}  // namespace fifer
