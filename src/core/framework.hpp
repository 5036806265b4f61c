#pragma once

#include <functional>
#include <utility>

#include "core/experiment_params.hpp"
#include "core/metrics.hpp"
#include "core/request_path.hpp"
#include "sim/simulation.hpp"

namespace fifer {

/// The Fifer runtime in simulated time: an event-driven replica of the
/// paper's Brigade-on-Kubernetes prototype (Figure 5). The request path
/// (RequestPath: stages, cluster, metrics, and the PolicyEngine strategies
/// behind the PolicyContext view) runs on a discrete-event Simulation, which
/// the framework paces as the path's Pacer: every step of the path — an
/// arrival, a bus delivery, a container's ready or finish event, a policy
/// tick — is one event.
///
/// One instance runs one experiment:
///
///   ExperimentParams p;
///   p.trace = poisson_trace(300, 50);
///   ExperimentResult r = FiferFramework(p).run();
class FiferFramework : private Pacer, public RequestPath {
 public:
  explicit FiferFramework(ExperimentParams params);

  /// Runs the experiment to completion and returns the collected metrics.
  ExperimentResult run();

  // The simulation clock, for the Pacer and the PolicyContext alike: each
  // of these two overrides both bases' declaration.
  SimTime now() const override { return sim_.now(); }
  void every(SimDuration period_ms, std::function<void(SimTime)> cb) override {
    sim_.every(period_ms, std::move(cb));
  }

 private:
  // --- Pacer ---
  void after(SimDuration delay, Callback cb) override {
    sim_.after(delay, std::move(cb));
  }
  void on_job_completed(const Job&) override {}

  Simulation sim_;
};

/// Convenience wrapper: builds the framework and runs it.
ExperimentResult run_experiment(ExperimentParams params);

}  // namespace fifer
