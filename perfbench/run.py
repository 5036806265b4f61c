#!/usr/bin/env python3
"""Benchmark entry point: builds perfbench from source and runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload fifer --seed 1 --seconds 55 --trace 0

The perfbench binary and the repository's libraries are built with CMake
(Release) into $CARGO_TARGET_DIR, or .bench_build when it is unset. One
perfbench process measures one round: one §5.2 simulator experiment and three
served sessions. Rounds repeat in fresh processes while the next is expected
to end within --seconds, and at least MIN_ROUNDS times, because on a shared
host the same experiment runs up to a third slower in some processes than in
others. Simulator throughput sums the fastest repeat of each 10-s segment of
simulated time; every other metric is a median over all rounds' samples.
Build and round logs go to stderr; the last stdout line is the JSON result.
When the build or a round fails, this exits non-zero and prints no result.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ("bline", "fifer")
MIN_ROUNDS = 3
# Every invocation must end within 180 s; no round starts past this point.
DEADLINE_S = 165.0
# Simulator outputs that repeats of one seed must reproduce exactly.
SIM_FINGERPRINT = ("requests", "events", "spawns", "slo_violations",
                   "response_p99_ms")


def build(source_dir, build_dir):
    """Configures once, then brings perfbench up to date."""
    configured = os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) and \
        os.path.exists(os.path.join(build_dir, "Makefile"))
    if not configured:
        subprocess.run(["cmake", "-S", source_dir, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "perfbench",
                    "-j", jobs], stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def run_rounds(cmd, seconds):
    """Runs measurement rounds; returns their parsed reports."""
    rounds = []
    start = time.monotonic()
    while True:
        elapsed = time.monotonic() - start
        if rounds:
            per_round = elapsed / len(rounds)
            if elapsed + per_round > DEADLINE_S:
                break
            if len(rounds) >= MIN_ROUNDS and elapsed + per_round > seconds:
                break
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - elapsed))
        if proc.returncode != 0:
            raise RuntimeError(f"perfbench exited with {proc.returncode}")
        rounds.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return rounds


def metrics(rounds, trace):
    sims = [r["sim"] for r in rounds]
    serves = [s for r in rounds for s in r["serve"]]

    def sim(f):
        return statistics.median(f(s) for s in sims)

    def serve(f):
        return statistics.median(f(s) for s in serves)

    if not trace:
        # Each segment of the event loop is identical work in every round,
        # and load from outside the benchmark only ever adds time to it, so
        # the fastest repeat of each segment is the closest to the
        # simulator's own cost.
        loop_s = sum(min(seg) for seg in zip(*(s["segments_s"] for s in sims)))
        out = {
            "sim_requests_per_s": (sims[0]["requests"] / loop_s, "1/s"),
            "serve_requests_per_s":
                (serve(lambda s: s["requests"] / s["load_s"]), "1/s"),
            "serve_rtt_p50_ms": (serve(lambda s: s["rtt_p50_ms"]), "ms"),
            "serve_rtt_p99_ms": (serve(lambda s: s["rtt_p99_ms"]), "ms"),
            "setup_s": (sim(lambda s: s["setup_s"]) +
                        serve(lambda s: s["setup_s"]), "s"),
        }
    else:
        out = {
            "sim_scale_ms": (sim(lambda s: s["scale_ms"]), "ms"),
            "sim_schedule_ms": (sim(lambda s: s["schedule_ms"]), "ms"),
            "sim_place_ms": (sim(lambda s: s["place_ms"]), "ms"),
            "sim_loop_rest_ms": (sim(lambda s: s["loop_s"] * 1e3 -
                                     s["scale_ms"] - s["schedule_ms"] -
                                     s["place_ms"]), "ms"),
            "sim_pretrain_ms": (sim(lambda s: s["pretrain_ms"]), "ms"),
            "sim_events": (sim(lambda s: s["events"]), "count"),
            "sim_place_calls": (sim(lambda s: s["place_calls"]), "count"),
            "sim_spawns": (sim(lambda s: s["spawns"]), "count"),
            "serve_scale_ms": (serve(lambda s: s["scale_ms"]), "ms"),
            "serve_schedule_ms": (serve(lambda s: s["schedule_ms"]), "ms"),
            "serve_place_ms": (serve(lambda s: s["place_ms"]), "ms"),
            "serve_pretrain_ms": (serve(lambda s: s["pretrain_ms"]), "ms"),
            "serve_server_rtt_p50_ms":
                (serve(lambda s: s["server_rtt_p50_ms"]), "ms"),
            "serve_reply_path_p50_ms":
                (serve(lambda s: s["rtt_p50_ms"] - s["server_rtt_p50_ms"]),
                 "ms"),
            "serve_rtt_p999_ms": (serve(lambda s: s["rtt_p999_ms"]), "ms"),
            "serve_timer_events": (serve(lambda s: s["timer_events"]), "count"),
            "serve_peak_threads": (serve(lambda s: s["peak_threads"]), "count"),
            "serve_spawns": (serve(lambda s: s["spawns"]), "count"),
        }
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in out.items()}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", default="0", choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    source_dir = os.path.dirname(os.path.abspath(__file__))
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or
                                ".bench_build")
    try:
        exe = build(source_dir, build_dir)
        rounds = run_rounds([exe, "--workload", args.workload,
                             "--seed", str(args.seed), "--trace", args.trace],
                            args.seconds)
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1

    fingerprints = {tuple(r["sim"][k] for k in SIM_FINGERPRINT) +
                    (len(r["sim"]["segments_s"]),) for r in rounds}
    deterministic = len(fingerprints) == 1
    if not deterministic:
        print("perfbench: check failed: repeats of one simulator experiment "
              "gave other results", file=sys.stderr)
    result = {
        "correct": deterministic and all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics(rounds, args.trace == "1"),
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
