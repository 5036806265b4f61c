#include "core/metrics.hpp"

#include <algorithm>

namespace fifer {

double ExperimentResult::mean_rpc() const {
  if (stages.empty()) return 0.0;
  double acc = 0.0;
  for (const auto& [_, sm] : stages) acc += sm.requests_per_container();
  return acc / static_cast<double>(stages.size());
}

StageMetrics& MetricsCollector::stage(const std::string& name) {
  auto& sm = result_.stages[name];
  if (sm.stage.empty()) sm.stage = name;
  return sm;
}

void MetricsCollector::on_job_submitted(const Job& job) {
  if (job.planned < warmup_ms_) return;
  ++result_.jobs_submitted;
}

void MetricsCollector::on_job_completed(const Job& job) {
  if (job.planned < warmup_ms_) return;
  ++result_.jobs_completed;
  if (job.violated_slo()) ++result_.slo_violations;
  result_.response_ms.add(job.response_ms());
  result_.queuing_ms.add(job.total_queue_wait_ms());
  result_.exec_only_ms.add(job.total_exec_ms());
  result_.cold_wait_ms.add(job.total_cold_start_wait_ms());
}

void MetricsCollector::on_task_executed(const std::string& stage_name,
                                        const StageRecord& rec) {
  StageMetrics& sm = stage(stage_name);
  ++sm.tasks_executed;
  sm.queue_wait_ms.add(rec.queue_wait_ms());
  sm.exec_ms.add(rec.exec_ms);
  executed_containers_[stage_name].insert(rec.container);
}

void MetricsCollector::on_container_spawned(const std::string& stage_name) {
  StageMetrics& sm = stage(stage_name);
  ++sm.containers_spawned;
  ++sm.cold_starts;
  ++result_.containers_spawned;
}

void MetricsCollector::on_spawn_failure(const std::string& stage_name) {
  ++stage(stage_name).spawn_failures;
}

void MetricsCollector::record_timeline(TimelineSample sample) {
  result_.peak_active_containers =
      std::max(result_.peak_active_containers,
               sample.active_containers + sample.provisioning_containers);
  result_.timeline.push_back(sample);
}

ExperimentResult MetricsCollector::finish(SimDuration duration_ms,
                                          double energy_joules) {
  result_.duration_ms = duration_ms;
  result_.energy_joules = energy_joules;
  for (const auto& [name, ids] : executed_containers_) {
    stage(name).containers_executed = ids.size();
  }
  if (!result_.timeline.empty()) {
    double acc = 0.0;
    for (const auto& s : result_.timeline) {
      acc += s.active_containers + s.provisioning_containers;
    }
    result_.avg_active_containers =
        acc / static_cast<double>(result_.timeline.size());
  }
  return std::move(result_);
}

}  // namespace fifer
