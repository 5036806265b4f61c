#pragma once

#include <string>
#include <vector>

#include "common/types.hpp"
#include "workload/microservice.hpp"

namespace fifer {

/// One application: a linear chain of microservice stages plus its SLO.
///
/// Mirrors the paper's Table 4. The end-to-end response budget of a chain is
///
///     SLO = sum(stage exec) + sum(stage transition overhead) + slack
///
/// where the transition overhead models the serverless step-function
/// machinery between stages (event-bus hop + ephemeral-store access) that
/// the paper's cluster measurements include. We calibrate the per-stage
/// overhead per application so that the computed slack reproduces Table 4
/// exactly given Table 3's execution times.
struct ApplicationChain {
  std::string name;
  std::vector<std::string> stages;  ///< Microservice names, in chain order.
  SimDuration slo_ms = 1000.0;      ///< End-to-end response latency target.
  /// Per-stage transition overhead (event bus + data store), applied once
  /// per stage at dispatch.
  SimDuration stage_overhead_ms = 0.0;
  /// Optional per-stage execution probabilities for *dynamic* chains
  /// (the paper's §8 future work: chains with data-dependent branches).
  /// Empty means every stage always runs; otherwise stage i executes with
  /// probability stage_probability[i], decided per request. Slack and
  /// batch sizing use the resulting *expected* execution times.
  std::vector<double> stage_probability;

  /// Probability that stage i executes (1.0 for static chains).
  double stage_prob(std::size_t i) const {
    return i < stage_probability.size() ? stage_probability[i] : 1.0;
  }
  bool is_dynamic() const { return !stage_probability.empty(); }

  /// Sum of *expected* mean execution times across stages.
  SimDuration total_exec_ms(const MicroserviceRegistry& reg) const;

  /// Sum of expected exec + transition overheads: the expected no-queuing,
  /// no-cold-start end-to-end latency.
  SimDuration total_busy_ms(const MicroserviceRegistry& reg) const;

  /// Total slack = SLO - total_busy (clamped at 0): the budget available
  /// for batching/queuing (paper §2.2.2 "Why does slack arise?").
  SimDuration total_slack_ms(const MicroserviceRegistry& reg) const;
};

/// Registry of application chains; seeded with the paper's Table 4.
class ApplicationRegistry {
 public:
  /// The four chains of Table 4 with overheads calibrated so their slack
  /// matches the published values at SLO = 1000 ms:
  ///   Face Security (788 ms), IMG (700 ms), IPA (697 ms),
  ///   Detect-Fatigue (572 ms).
  static ApplicationRegistry paper_chains();

  static ApplicationRegistry empty() { return ApplicationRegistry{}; }

  void add(ApplicationChain app);

  const ApplicationChain& at(const std::string& name) const;
  bool contains(const std::string& name) const;
  const std::vector<ApplicationChain>& all() const { return apps_; }

 private:
  std::vector<ApplicationChain> apps_;
};

}  // namespace fifer
