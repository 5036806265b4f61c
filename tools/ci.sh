#!/usr/bin/env bash
# CI matrix for the fifer simulator:
#
#   leg 1  RelWithDebInfo, -Werror            — what users build; DCHECKs are
#                                               compiled out, so this also
#                                               proves the hot path carries no
#                                               contract overhead.
#   leg 2  ASan+UBSan, -Werror, DCHECKs ON    — every contract live, every
#                                               test under both sanitizers,
#                                               zero reports tolerated
#                                               (-fno-sanitize-recover=all).
#   leg 3  TSan, -Werror, DCHECKs ON          — the parallel sweep runner,
#                                               the driver under the scaled
#                                               wall clock (live mode), and
#                                               the serving front-end must
#                                               be race-free; runs the
#                                               sweep-determinism, thread-
#                                               pool, framework, every
#                                               wall-clock driver suite
#                                               (LiveClock, LiveRuntime,
#                                               LivePacing, ServeSession),
#                                               net, and sync/lock-order
#                                               suites (TSan is ~10x, so not
#                                               the full matrix) plus a
#                                               cross-process loopback serve
#                                               smoke.
#   leg 4  clang -Werror=thread-safety        — compile-time proof that every
#                                               guarded field is accessed
#                                               under its lock, plus a
#                                               negative probe that must fail
#                                               to compile; skipped with a
#                                               notice when clang++ is not
#                                               installed.
#
# Legs 1-2 run the full ctest suite; the release leg additionally runs the
# tracing-overhead benchmark (the ≤2% null-sink contract of DESIGN.md §5d
# only holds in an optimized build), the sim-vs-live fidelity test twenty
# times over, a wall-budgeted live-mode smoke run
# (a 100x-compressed trace must finish inside its real-time envelope — only
# meaningful without sanitizer slowdown), the perf smoke: bench_scale's
# zero-allocation dispatch probe (DESIGN.md §5g), refreshing
# BENCH_scale.json, and a short run of the repo benchmark (perfbench), whose
# rounds check request conservation, determinism and plan matching. Docs
# hygiene (markdown link check + stale-path / TODO scan) and lint run once
# at the end; lint uses the sanitizer build's compile database.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

# Markdown hygiene over the curated docs: every relative link must resolve,
# every `src/...`-style path reference must name a real file/dir (a ref to
# `examples/quickstart` passes via examples/quickstart.cpp), and no
# TODO/FIXME markers may ship.
docs_hygiene() {
  local docs=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md)
  local fail=0 doc ref link

  for doc in "${docs[@]}"; do
    # Relative markdown links: [text](target) minus http(s)/anchors.
    while IFS= read -r link; do
      link="${link%%#*}"
      [ -z "$link" ] && continue
      if [ ! -e "$ROOT/$link" ]; then
        echo "docs: $doc links to missing file: $link" >&2
        fail=1
      fi
    done < <(grep -oE '\]\([^)]+\)' "$ROOT/$doc" 2>/dev/null |
             sed 's/^](//; s/)$//' | grep -vE '^(https?:|mailto:|#)' || true)

    # Repo-path references in prose/code spans.
    while IFS= read -r ref; do
      ref="${ref%%[.,;:]}"  # strip trailing punctuation from prose
      ref="${ref%\*}"       # `coldstart.*` glob style
      ref="${ref%.}"
      if [ ! -e "$ROOT/$ref" ] && [ ! -e "$ROOT/$ref.hpp" ] &&
         [ ! -e "$ROOT/$ref.cpp" ] && [ ! -e "$ROOT/${ref}hpp" ] &&
         [ ! -e "$ROOT/${ref}cpp" ]; then
        echo "docs: $doc references missing path: $ref" >&2
        fail=1
      fi
    done < <(grep -oE '\b(src|tests|bench|examples|tools)/[A-Za-z0-9_./*-]*' \
             "$ROOT/$doc" 2>/dev/null | sort -u || true)

    if grep -nE 'TODO|FIXME|XXX' "$ROOT/$doc" >/dev/null 2>&1; then
      echo "docs: $doc carries TODO/FIXME/XXX markers:" >&2
      grep -nE 'TODO|FIXME|XXX' "$ROOT/$doc" >&2
      fail=1
    fi
  done
  return "$fail"
}

run_leg() {
  local name="$1" dir="$2"
  shift 2
  echo "==== [$name] configure"
  cmake -B "$dir" -S "$ROOT" "$@"
  echo "==== [$name] build"
  cmake --build "$dir" -j "$JOBS"
  echo "==== [$name] test"
  ctest --test-dir "$dir" --output-on-failure -j "$JOBS"
}

run_leg release "$ROOT/build-ci-release" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFIFER_WERROR=ON

echo "==== [release] tracing overhead (null-sink event loop vs recording)"
"$ROOT/build-ci-release/bench/bench_overheads" \
  --benchmark_filter='BM_EventLoopTracing'

# Sim-vs-live fidelity (DESIGN.md §5e), repeated: the live run must keep
# pace with its clock every time, not most of the time. ctest runs it once;
# twenty back-to-back repeats catch a pacing regression that makes it flaky.
echo "==== [release] sim-vs-live fidelity, 20 repeats"
"$ROOT/build-ci-release/tests/test_runtime" \
  --gtest_filter='LiveRuntime.FidelityMatchesSimulatorOnSharedSeed' \
  --gtest_repeat=20 --gtest_brief=1

# Live-mode wall budget: 60 s of trace at 100x compression is 0.6 s of
# replay; with cold-start drain and process startup the whole run must stay
# under 30 s of wall time or the runtime is pacing far off its clock.
echo "==== [release] live-mode wall budget (100x compression under timeout)"
timeout 30 "$ROOT/build-ci-release/examples/fifer_cli" \
  policy=fifer trace=poisson duration_s=60 lambda=10 warmup_s=10 epochs=2 \
  --live=100 >/dev/null

# Perf smoke (DESIGN.md §5g): bench_scale's steady-state probe must show a
# zero-allocation dispatch loop over a 64-container fleet index, and the run
# refreshes BENCH_scale.json, the machine-readable throughput record the
# README perf section cites. 60 s of trace with a 20 s warm-up measures the
# fleets in steady state (a 5 s run measured only the cold-start transient,
# where both policies meet 0 % of their SLOs) and takes a few wall seconds.
# The bench exits non-zero on an allocating probe or a policy run that
# measured no jobs.
echo "==== [release] perf smoke (zero-alloc probe + BENCH_scale.json refresh)"
"$ROOT/build-ci-release/bench/bench_scale" duration_s=60 warmup_s=20 \
  json_out="$ROOT/BENCH_scale.json"
# Serving-path perf smoke (DESIGN.md §5h): bench_serve's epoll probe must
# show a zero-allocation accept→dispatch→respond→flush cycle, and its
# capacity probe (100k closed-loop requests at 10^4x, where the server
# bounds the round trip) must drain cleanly; refreshes BENCH_serve.json.
echo "==== [release] serving perf smoke (epoll zero-alloc probe + capacity probe + BENCH_serve.json refresh)"
"$ROOT/build-ci-release/bench/bench_serve" probe_requests=10000 \
  json_out="$ROOT/BENCH_serve.json"
# Predictor perf smoke (DESIGN.md §5i): bench_predict must show zero
# allocations per forecast() for all four NN predictors and bit-identical
# forecasts from the pre-rewrite scalar LSTM path and the kernel path (the
# bench exits non-zero on either violation); refreshes BENCH_predict.json
# with train/infer throughput.
echo "==== [release] predictor perf smoke (zero-alloc forecast probe + BENCH_predict.json refresh)"
"$ROOT/build-ci-release/bench/bench_predict" epochs=4 probe_forecasts=500 \
  json_out="$ROOT/BENCH_predict.json"
# The repo benchmark (BENCHMARK.json), one short run per workload: every
# round checks request conservation against the arrival plan, bit-identical
# simulator repeats, and a served run that answers the whole plan and drains.
# It fails on a non-zero exit, or on a result whose checks failed.
echo "==== [release] repo benchmark (perfbench, checks only)"
for workload in bline fifer; do
  (cd "$ROOT" && python3 perfbench/run.py --workload "$workload" --seed 1 \
     --seconds 1) | tail -n 1 |
    python3 -c 'import json, sys; sys.exit(0 if json.load(sys.stdin)["correct"] else 1)'
done

run_leg asan-ubsan "$ROOT/build-ci-asan" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFIFER_WERROR=ON \
  -DFIFER_DCHECKS=ON \
  "-DFIFER_SANITIZE=address;undefined"

echo "==== [tsan] configure"
cmake -B "$ROOT/build-ci-tsan" -S "$ROOT" \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DFIFER_WERROR=ON \
  -DFIFER_DCHECKS=ON \
  -DFIFER_SANITIZE=thread
echo "==== [tsan] build"
cmake --build "$ROOT/build-ci-tsan" -j "$JOBS"
echo "==== [tsan] test (thread pool + parallel sweeps + framework + wall-clock driver + net)"
ctest --test-dir "$ROOT/build-ci-tsan" --output-on-failure -j "$JOBS" \
  -R 'ThreadPool|ParallelForIndex|SweepParallel|GridSweep|Sweep\.|Framework\.|LiveClock|LivePacing|LiveRuntime|ArrivalPlan|Sync|Wire\.|Listener\.|Poller\.|Server\.|LoadGen\.|ServeSession'

# Loopback serve smoke under TSan: one fifer_cli process serving over TCP,
# a second one load-generating against it — the full cross-process drain
# handshake with every data-race check live. Ports are picked from the
# ephemeral range and retried on EADDRINUSE (exit status 3 is the CLI's
# listen-failure contract).
serve_smoke() {
  local bin="$1" log="$2" attempt port pid rc lg_rc
  local args=(policy=rscale trace=poisson duration_s=10 lambda=5 warmup_s=2
              epochs=2 --live=200 max_wall_s=120)
  for attempt in 1 2 3 4 5; do
    port=$((20000 + RANDOM % 20000))
    : > "$log"
    "$bin" "${args[@]}" --serve="$port" > "$log" 2>&1 &
    pid=$!
    # Wait for the listener announcement (or an early exit).
    for _ in $(seq 1 300); do
      grep -q "serving on port" "$log" 2>/dev/null && break
      kill -0 "$pid" 2>/dev/null || break
      sleep 0.1
    done
    if ! kill -0 "$pid" 2>/dev/null; then
      rc=0; wait "$pid" || rc=$?
      if [ "$rc" -eq 3 ]; then
        echo "serve smoke: port $port in use; retrying"
        continue
      fi
      echo "serve smoke: server exited $rc before listening" >&2
      cat "$log" >&2
      return 1
    fi
    lg_rc=0
    "$bin" "${args[@]}" --loadgen="127.0.0.1:$port" >/dev/null 2>&1 || lg_rc=$?
    rc=0; wait "$pid" || rc=$?
    if [ "$lg_rc" -eq 0 ] && [ "$rc" -eq 0 ]; then
      return 0
    fi
    echo "serve smoke: loadgen exit $lg_rc, server exit $rc" >&2
    cat "$log" >&2
    return 1
  done
  echo "serve smoke: no free port after 5 attempts" >&2
  return 1
}
echo "==== [tsan] loopback serve smoke (TCP serve + loadgen drain handshake)"
serve_smoke "$ROOT/build-ci-tsan/examples/fifer_cli" "$ROOT/build-ci-tsan/serve-smoke.log"

# Leg 4: clang compile-time thread-safety analysis. Builds everything with
# -Wthread-safety promoted to errors (the FIFER_THREAD_SAFETY option), then
# proves the analysis is actually engaged with a negative probe: a guarded
# field written without its lock MUST fail to compile. Both DCHECKs and the
# lock-order detector are on so the annotated-and-instrumented configuration
# is the one analyzed. Skipped with a notice when clang++ is unavailable —
# the gcc legs above still exercise the runtime lock-order detector.
if command -v clang++ >/dev/null 2>&1; then
  echo "==== [thread-safety] configure (clang, -Werror=thread-safety)"
  cmake -B "$ROOT/build-ci-tsa" -S "$ROOT" \
    -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DFIFER_DCHECKS=ON \
    -DFIFER_THREAD_SAFETY=ON
  echo "==== [thread-safety] build (zero thread-safety warnings tolerated)"
  cmake --build "$ROOT/build-ci-tsa" -j "$JOBS"
  echo "==== [thread-safety] negative probe (mis-annotated code must not compile)"
  PROBE="$ROOT/build-ci-tsa/tsa_negative_probe.cpp"
  cat > "$PROBE" <<'EOF'
// Mirrors the commented snippet in tests/test_sync.cpp: writing a guarded
// field without holding its mutex. -Werror=thread-safety must reject it.
#include "common/sync.hpp"
struct MisAnnotated {
  fifer::Mutex mu;
  int value FIFER_GUARDED_BY(mu) = 0;
  void bad_write() { value = 1; }
};
int main() {
  MisAnnotated m;
  m.bad_write();
  return 0;
}
EOF
  if clang++ -std=c++20 -I"$ROOT/src" -fsyntax-only \
       -Wthread-safety -Werror=thread-safety "$PROBE" 2>/dev/null; then
    echo "thread-safety: negative probe compiled cleanly — analysis not engaged" >&2
    exit 1
  fi
  echo "==== [thread-safety] negative probe rejected, as required"
else
  echo "==== [thread-safety] clang++ not installed; skipping -Wthread-safety leg"
fi

echo "==== docs hygiene"
docs_hygiene

echo "==== lint"
"$ROOT/tools/lint.sh" "$ROOT/build-ci-asan"

echo "==== CI matrix passed"
