#pragma once

#include <functional>
#include <memory>
#include <string>

#include "cluster/cluster.hpp"
#include "cluster/coldstart.hpp"
#include "cluster/event_bus.hpp"
#include "common/types.hpp"
#include "core/policy/policy_engine.hpp"
#include "core/rm_config.hpp"
#include "predict/predictor.hpp"
#include "workload/application.hpp"
#include "workload/microservice.hpp"
#include "workload/mix.hpp"
#include "workload/trace.hpp"

namespace fifer {

namespace obs {
class TraceSink;
}

/// Parameters of one simulated experiment run.
struct ExperimentParams {
  RmConfig rm = RmConfig::fifer();
  WorkloadMix mix = WorkloadMix::heavy();
  /// Service profiles and application chains; default to the paper's
  /// Table 3 / Table 4. Replace (or extend) both to run custom apps.
  MicroserviceRegistry services = MicroserviceRegistry::djinn_tonic();
  ApplicationRegistry applications = ApplicationRegistry::paper_chains();
  RateTrace trace;                  ///< Arrival-rate trace driving the run.
  std::string trace_name = "trace";
  ClusterSpec cluster;              ///< Defaults to the 80-core prototype.
  ColdStartModel cold_start;
  EventBusModel bus;                ///< Function-transition fabric.
  TrainConfig train;                ///< For ML predictors (Fifer's LSTM).
  /// Fraction of the trace used to pre-train ML predictors (paper: 60%).
  double train_fraction = 0.6;
  std::uint64_t seed = 1;
  /// Jobs planned to arrive before this time are excluded from metrics.
  SimDuration warmup_ms = 0.0;
  /// Std-dev of per-request input-size scaling (0 = fixed-size inputs).
  /// Execution times scale linearly with input size (paper §2.2.2), so this
  /// is what makes batch occupancy overrun slack occasionally — the source
  /// of the marginal SLO violations batching RMs exhibit.
  double input_scale_jitter = 0.0;
  /// Timeline / reaper / power sweep cadence.
  SimDuration housekeeping_interval_ms = seconds(10.0);
  /// When non-empty, a JSONL lifecycle trace is written here: one line per
  /// completed job (with per-stage timings) and per container spawn.
  std::string trace_log_path;
  /// When non-empty, full request-level tracing is on: per-stage spans,
  /// every policy decision, and hot-path profiling are recorded and
  /// exported as `<prefix>.trace.json` (Chrome trace_event, loads in
  /// chrome://tracing / Perfetto), `<prefix>.spans.csv`,
  /// `<prefix>.decisions.csv`, and `<prefix>.profile.csv` (wall-clock, the
  /// only non-deterministic file). Sweeps append a per-run label so
  /// parallel grids stay per-job-sink deterministic (DESIGN.md §5d).
  std::string trace_prefix;
  /// Custom sink injection (tests, live dashboards): when set, spans and
  /// decisions stream into this sink instead of an internally owned
  /// recording sink. The sink must not be shared across concurrent runs.
  std::shared_ptr<obs::TraceSink> trace_sink;
  /// Escape hatch for drop-in policies: when set, the framework builds its
  /// strategy bundle from this instead of `rm` (which then only names the
  /// run). See tests/test_policy_engine.cpp for a ~50-line custom scaler.
  std::function<PolicyEngine(ExperimentParams&)> policy_factory;
};

}  // namespace fifer
