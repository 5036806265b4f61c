// §5.2 — full-scale simulation demonstration: the paper scales its
// event-driven simulator to a 2500-core cluster (30x the prototype) driven
// by the full-rate traces (Wiki avg ~1500 req/s). This bench runs that
// configuration end to end — unscaled rates, 2500 cores — to document that
// the substrate covers the paper's largest regime on one laptop core.
//
// It doubles as the hot-path performance gate for DESIGN.md §5g:
//  - every run reports steady-state throughput (simulator events per wall
//    second, from ExperimentResult::sim_events) and allocator traffic
//    (allocations per event, via the counting allocator below);
//  - a steady-state dispatch-loop probe drives the EventQueue, StageState,
//    and Container hot paths directly and FAILS THE BENCH (non-zero exit)
//    if a warmed-up cycle performs any heap allocation;
//  - a policy run that measured no jobs (a duration inside the warm-up)
//    also fails the bench: its throughput figures would describe nothing;
//  - `json_out=<path>` emits the numbers machine-readably (BENCH_scale.json
//    in the CI perf-smoke leg).
//
// Runtime is minutes-scale by design; `duration_s` trims it.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "sim/event_queue.hpp"

// ------------------------------------------------------ counting allocator
//
// Global operator new/delete overrides for this binary: every heap
// allocation bumps one relaxed atomic. Replacing these in any translation
// unit rebinds them program-wide, which is exactly what the allocs/event
// figures and the zero-alloc probe need.

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};

void* counted_alloc(std::size_t n) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(n == 0 ? 1 : n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace {

std::uint64_t allocs() {
  return g_alloc_count.load(std::memory_order_relaxed);
}

// -------------------------------------------------- zero-alloc probe
//
// Drives one warm steady-state dispatch cycle — the exact per-event work the
// simulator's hot loop performs once fleets and queues have warmed up:
// schedule + fire an event carrying a framework-sized capture, stage
// enqueue/select/pop, container enqueue/pop/execute (each a fleet-index
// update), and a live-fleet sweep. The fleet is 64 warm containers at
// mixed occupancy, and each cycle also moves one more container's
// occupancy by a slot, round robin, so the index's heaps sift in every
// cycle. After a warmup pass settles vector capacities, `iters` further
// cycles must perform ZERO allocations (DESIGN.md §5g). Excluded by design:
// container spawn/terminate (rare, not per-event) and
// StageState::record_wait (bounded deque, trimmed on a horizon, not part of
// the dispatch cycle).
struct ProbeResult {
  std::uint64_t events = 0;
  std::uint64_t allocations = 0;
};

ProbeResult steady_state_probe(std::uint64_t iters) {
  using namespace fifer;

  StageProfile prof;
  prof.stage = "ASR";  // short name: stays in the string's inline buffer
  prof.exec_ms = 40.0;
  prof.slack_ms = 200.0;
  prof.batch = 8;
  StageState st(prof, SchedulerPolicy::kLeastSlackFirst);

  EventQueue q;

  Job job;
  job.records.resize(1);

  // Container i starts with i % B_size queued tasks, so every free-slot
  // count from 1 to B_size is present.
  constexpr std::size_t kFleet = 64;
  std::vector<Container*> fleet;
  for (std::size_t i = 0; i < kFleet; ++i) {
    Container& c = st.add_container(static_cast<ContainerId>(i),
                                    static_cast<NodeId>(0), prof.batch, 0.0, 0.0);
    c.mark_warm(0.0);
    for (std::size_t k = 0; k < i % static_cast<std::size_t>(prof.batch); ++k) {
      c.enqueue(TaskRef{&job, 0});
    }
    fleet.push_back(&c);
  }

  double t = 1.0;
  int live_sum = 0;
  const auto cycle = [&](std::uint64_t n) {
    for (std::uint64_t i = 0; i < n; ++i, t += 1.0) {
      st.enqueue(TaskRef{&job, 0}, t);
      Container* c = st.select_container();
      TaskRef task = st.pop_next();
      c->enqueue(task);
      // The request path's largest event capture is 40 bytes (a task's
      // finish: pacer, stage, container, task); mirror its shape.
      q.schedule(t, [&st, c, &live_sum, task] {
        const TaskRef popped = c->pop();
        live_sum += popped.job == task.job && !st.queue_empty() ? 1 : 0;
      });
      auto fired = q.pop();
      fired.callback();
      c->begin_execution(t);
      c->end_execution(t + 0.5);
      // Even passes over the fleet add a task to each container, odd passes
      // take one back: occupancies stay within one slot of their start, so
      // some container always has a free slot.
      Container& rr = *fleet[i % kFleet];
      if ((i / kFleet) % 2 == 0) {
        if (rr.free_slots() > 0) rr.enqueue(TaskRef{&job, 0});
      } else if (rr.queued() > 0) {
        (void)rr.pop();
      }
      for (const Container& cc : st.live()) live_sum += cc.warm() ? 1 : 0;
    }
  };

  cycle(1024);  // warmup: amortized capacity growth settles
  const std::uint64_t before = allocs();
  cycle(iters);
  ProbeResult r;
  r.events = iters;
  r.allocations = allocs() - before;
  if (live_sum < 0) std::abort();  // defeat over-eager optimizers
  return r;
}

struct PolicyRun {
  std::string policy;
  std::uint64_t jobs = 0;
  std::uint64_t events = 0;
  double wall_s = 0.0;
  std::uint64_t allocations = 0;
};

double events_per_sec(const PolicyRun& r) {
  return r.wall_s > 0.0 ? static_cast<double>(r.events) / r.wall_s : 0.0;
}

double allocs_per_event(std::uint64_t allocations, std::uint64_t events) {
  return events > 0 ? static_cast<double>(allocations) /
                          static_cast<double>(events)
                    : 0.0;
}

void write_json(const std::string& path, const ProbeResult& probe,
                const std::vector<PolicyRun>& runs, double duration_s,
                double warmup_s) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "bench_scale: cannot write " << path << "\n";
    std::exit(1);
  }
  out << "{\n"
      << "  \"bench\": \"bench_scale\",\n"
      << "  \"duration_s\": " << duration_s << ",\n"
      << "  \"warmup_s\": " << warmup_s << ",\n"
      << "  \"steady_state_probe\": {\n"
      << "    \"events\": " << probe.events << ",\n"
      << "    \"allocations\": " << probe.allocations << ",\n"
      << "    \"allocs_per_event\": "
      << allocs_per_event(probe.allocations, probe.events) << "\n"
      << "  },\n"
      << "  \"policies\": [\n";
  for (std::size_t i = 0; i < runs.size(); ++i) {
    const PolicyRun& r = runs[i];
    out << "    {\"policy\": \"" << r.policy << "\", \"jobs\": " << r.jobs
        << ", \"events\": " << r.events << ", \"wall_s\": " << r.wall_s
        << ", \"events_per_sec\": " << events_per_sec(r)
        << ", \"allocations\": " << r.allocations
        << ", \"allocs_per_event\": "
        << allocs_per_event(r.allocations, r.events) << "}"
        << (i + 1 < runs.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  const fifer::Config cfg = fifer::Config::from_args(argc, argv);
  fifer::bench::BenchSettings s = fifer::bench::BenchSettings::from_config(cfg);
  s.duration_s = cfg.get_double("duration_s", 300.0);
  s.trace_scale = cfg.get_double("trace_scale", 10.0);  // undo the 1/10 default
  const std::string json_out = cfg.get_string("json_out", "");
  const auto probe_iters =
      static_cast<std::uint64_t>(cfg.get_int("probe_iters", 200000));

  // Gate first: a hot loop that allocates is a regression regardless of how
  // the wall-clock numbers look.
  const ProbeResult probe = steady_state_probe(probe_iters);
  std::cout << "Steady-state dispatch probe: " << probe.events << " events, "
            << probe.allocations << " allocations ("
            << allocs_per_event(probe.allocations, probe.events)
            << " allocs/event)\n\n";

  fifer::ClusterSpec cluster;  // the paper's 2500-core simulation target
  cluster.node_count = static_cast<std::uint32_t>(cfg.get_int("nodes", 157));
  cluster.cores_per_node = 16.0;  // 157 x 16 = 2512 cores

  fifer::Table t("Full-scale simulation — Wiki trace at published rates, " +
                 fifer::fmt(cluster.total_cores(), 0) + " cores");
  t.set_columns({"policy", "jobs", "SLO_ok_%", "avg_containers", "spawned",
                 "wall_s", "events", "events_per_s", "allocs_per_event"});

  std::vector<PolicyRun> runs;
  for (const auto* policy : {"bline", "fifer"}) {
    auto params = fifer::bench::make_params(
        fifer::RmConfig::by_name(policy), fifer::WorkloadMix::heavy(),
        fifer::bench::bench_wiki(s), "wiki-full", s, cluster);
    params.bus.capacity = 65536;  // scale the transition fabric with the cluster

    const std::uint64_t allocs_before = allocs();
    const auto start = std::chrono::steady_clock::now();
    const auto r = fifer::bench::run_logged(std::move(params));
    const double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();

    PolicyRun run;
    run.policy = r.policy;
    run.jobs = r.jobs_completed;
    run.events = r.sim_events;
    run.wall_s = wall_s;
    run.allocations = allocs() - allocs_before;
    runs.push_back(run);

    t.add_row({r.policy, std::to_string(r.jobs_completed),
               fifer::fmt(100.0 - r.slo_violation_pct(), 2),
               fifer::fmt(r.avg_active_containers, 1),
               std::to_string(r.containers_spawned), fifer::fmt(wall_s, 1),
               std::to_string(run.events),
               fifer::fmt(events_per_sec(run), 0),
               fifer::fmt(allocs_per_event(run.allocations, run.events), 3)});
  }
  t.print(std::cout);
  std::cout << "\nPaper check: the simulator sustains the 2500-core / ~1500\n"
               "req/s regime; Fifer's container savings persist at scale.\n";

  if (!json_out.empty()) {
    write_json(json_out, probe, runs, s.duration_s, s.warmup_s);
  }

  if (probe.allocations != 0) {
    std::cerr << "\nFAIL: steady-state dispatch loop allocated "
              << probe.allocations << " times in " << probe.events
              << " events (expected 0 — DESIGN.md §5g)\n";
    return 1;
  }
  for (const PolicyRun& r : runs) {
    if (r.jobs == 0) {
      std::cerr << "\nFAIL: " << r.policy
                << " measured 0 jobs (duration_s=" << s.duration_s
                << " does not reach past warmup_s=" << s.warmup_s << ")\n";
      return 1;
    }
  }
  return 0;
}
