// §6.1.5 — system overheads, as google-benchmark microbenchmarks:
//   * LSF scheduling decision       (paper: ~0.35 ms per decision)
//   * LSTM load prediction          (paper: ~2.5 ms, off the critical path)
//   * cold-start latency sampling   (paper: 2-9 s simulated spawn)
// The paper's fourth row, stats-store reads/writes on its MongoDB, is not
// reproduced: this repo has no networked store. The check is that every
// overhead is comfortably inside the paper's envelope.

#include <benchmark/benchmark.h>

#include "core/framework.hpp"
#include "obs/recording_sink.hpp"
#include "predict/neural.hpp"
#include "workload/generators.hpp"

namespace {

/// The shared workload for the event-loop tracing-overhead pair below: a
/// small but complete experiment (arrivals, scaling, batching, completion).
fifer::ExperimentParams event_loop_params() {
  fifer::ExperimentParams p;
  p.trace = fifer::poisson_trace(20.0, 40.0);
  p.trace_name = "poisson";
  p.seed = 7;
  return p;
}

/// Tracing *disabled* (the default): every instrumented site — span
/// emission, decision logging, scoped timers — reduces to one predicted
/// null-pointer check. Compare against BM_EventLoopTracingOn to see the
/// recording cost; the acceptance bar is that this case stays within 2% of
/// the pre-instrumentation event loop.
void BM_EventLoopTracingOff(benchmark::State& state) {
  for (auto _ : state) {
    auto r = fifer::run_experiment(event_loop_params());
    benchmark::DoNotOptimize(r.jobs_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLoopTracingOff)->Unit(benchmark::kMillisecond);

/// Tracing *enabled* with an in-memory sink (no file export): the marginal
/// cost of recording every span, decision, and hot-path timer.
void BM_EventLoopTracingOn(benchmark::State& state) {
  for (auto _ : state) {
    auto p = event_loop_params();
    p.trace_sink = std::make_shared<fifer::obs::RecordingTraceSink>();
    auto r = fifer::run_experiment(std::move(p));
    benchmark::DoNotOptimize(r.jobs_completed);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventLoopTracingOn)->Unit(benchmark::kMillisecond);

/// One LSF scheduling decision: pop the least-slack task from a loaded
/// stage queue (plus the re-insert to keep the queue stable across
/// iterations).
void BM_LsfSchedulingDecision(benchmark::State& state) {
  const auto apps = fifer::ApplicationRegistry::paper_chains();
  fifer::StageProfile profile;
  profile.stage = "QA";
  profile.exec_ms = 56.1;
  profile.slack_ms = 300.0;
  profile.batch = 6;
  fifer::StageState st(profile, fifer::SchedulerPolicy::kLeastSlackFirst);

  const std::size_t depth = static_cast<std::size_t>(state.range(0));
  std::vector<fifer::Job> jobs(depth);
  fifer::Rng rng(1);
  for (std::size_t i = 0; i < depth; ++i) {
    jobs[i].app = &apps.at("IPA");
    jobs[i].arrival = rng.uniform(0.0, 1000.0);
    jobs[i].records.resize(3);
    st.enqueue({&jobs[i], 2}, jobs[i].deadline());
  }
  for (auto _ : state) {
    auto task = st.pop_next();
    benchmark::DoNotOptimize(task);
    st.enqueue(task, task.job->deadline());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LsfSchedulingDecision)->Arg(100)->Arg(1000)->Arg(10000);

/// One LSTM forecast over the paper's 20-window feature vector.
void BM_LstmPrediction(benchmark::State& state) {
  fifer::TrainConfig cfg;
  cfg.epochs = 5;
  cfg.input_window = 20;
  fifer::LstmPredictor model(cfg);
  std::vector<double> rates(200);
  for (std::size_t i = 0; i < rates.size(); ++i) {
    rates[i] = 100.0 + 50.0 * std::sin(static_cast<double>(i) / 10.0);
  }
  model.train(rates);
  const std::vector<double> window(rates.end() - 20, rates.end());
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.forecast(window));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_LstmPrediction);

/// EWMA forecast (BPred's predictor) for comparison.
void BM_EwmaPrediction(benchmark::State& state) {
  auto model = fifer::make_predictor("ewma");
  std::vector<double> window(20, 100.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model->forecast(window));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EwmaPrediction);

/// Cold-start latency sampling; the report's mean approximates the paper's
/// 2-9 s spawn window.
void BM_ColdStartSample(benchmark::State& state) {
  const fifer::ColdStartModel model;
  const auto reg = fifer::MicroserviceRegistry::djinn_tonic();
  const auto& spec = reg.at("ASR");
  fifer::Rng rng(3);
  double acc = 0.0;
  std::uint64_t n = 0;
  for (auto _ : state) {
    const double v = model.sample_cold_start_ms(spec, rng);
    benchmark::DoNotOptimize(v);
    acc += v;
    ++n;
  }
  state.counters["mean_cold_start_ms"] = acc / static_cast<double>(n);
}
BENCHMARK(BM_ColdStartSample);

}  // namespace

BENCHMARK_MAIN();
