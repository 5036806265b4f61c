// §5.2 — the event engine: a google-benchmark throughput measurement of the
// simulator's event queue, scheduling and popping batches of no-op events.
// Whole-experiment simulator throughput at the paper's §5.2 scale is
// perfbench's `sim_requests_per_s` (perfbench/run.py), not measured here.

#include <benchmark/benchmark.h>

#include "sim/event_queue.hpp"

namespace {

void BM_EventQueueScheduleAndPop(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    fifer::EventQueue q;
    for (std::size_t i = 0; i < batch; ++i) {
      q.schedule(static_cast<double>(i % 977), [] {});
    }
    while (!q.empty()) q.pop();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_EventQueueScheduleAndPop)->Arg(1000)->Arg(100000);

}  // namespace

BENCHMARK_MAIN();
