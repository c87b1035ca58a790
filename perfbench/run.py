#!/usr/bin/env python3
"""Repository benchmark: builds perfbench from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet-clean --seed 1 --seconds 15 --trace 0

Workloads: fleet-clean, fleet-flood, receiver-flood (see perfbench/README.md).

--trace 0 runs the workload once, untraced, and reports the end-to-end
metrics of BENCHMARK.json. --trace 1 reports its per-layer metrics from
processes that share the --seconds budget in interleaved rounds: the
plain run, the traced run (spans around every call into a layer), the
plain run with obs ScopedTimers off, and, for fleet-clean, the plain run
with the flight recorder off. Every process must reproduce the first
plain run's per-operation results bit for bit; a mismatch fails the
operation.

The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The script exits non-zero without that line when the program cannot be
built or a run crashes.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BINARY = BUILD / "perfbench"
WORKLOADS = ("fleet-clean", "fleet-flood", "receiver-flood")
# Extra set-up-only processes per untraced run; setup_s is the median
# over them and the measured run.
SETUP_PROBES = 6
# Interleaved rounds of the traced run's variant processes.
TRACE_ROUNDS = 3
# Every run must end within this many seconds of the build finishing.
DEADLINE_S = 170.0


class BenchError(Exception):
    pass


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configures once, then (re)builds; output goes to stderr."""
    jobs = str(max(1, min(len(os.sched_getaffinity(0)), 8)))
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        steps.append(configure)
    steps.append(["cmake", "--build", str(BUILD), "--parallel", jobs])
    # Compiler temporaries stay inside the checkout too.
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, cwd=ROOT,
                          env=env).returncode != 0:
            raise BenchError("build failed: " + " ".join(cmd))


def child(args, deadline, *flags, seconds=None):
    """Runs one perfbench process and returns its JSON result."""
    t0 = time.monotonic_ns()
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds if seconds is None else seconds),
           "--t0-ns", str(t0), *flags]
    if args.tiny:
        cmd.append("--tiny")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before " + " ".join(cmd))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("timed out: " + " ".join(cmd)) from exc
    if proc.returncode != 0:
        raise BenchError(f"exit code {proc.returncode}: " + " ".join(cmd))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(args, deadline):
    probes = [child(args, deadline, "--setup-only")["setup_s"]
              for _ in range(SETUP_PROBES)]
    run = child(args, deadline)
    wall = statistics.median(run["pass_wall_s"])
    metrics = {
        "setup_s": statistics.median(probes + [run["setup_s"]]),
        "recv_intervals_per_s": run["recv_intervals"] / wall,
        "announces_per_s": run["announces"] / wall,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    return metrics, run["attempted"], run["failed"]


def per_layer(args, deadline):
    variants = [("plain", ()), ("traced", ("--traced",)),
                ("timers_off", ("--no-timers",))]
    if args.workload == "fleet-clean":
        variants.append(("recorder_off", ("--no-recorder",)))
    # The variants run in interleaved rounds, each round in a rotated
    # order, and are compared within a round, so drift in host speed
    # over the run cancels out of the differences.
    share = args.seconds / (len(variants) * TRACE_ROUNDS)
    rounds = []
    expect = ()
    for i in range(TRACE_ROUNDS):
        runs = {}
        k = i % len(variants)
        for name, flags in variants[k:] + variants[:k]:
            runs[name] = child(args, deadline, *flags, *expect, seconds=share)
            if not expect:
                # Every later process must reproduce the first plain
                # run's result for every operation, bit for bit.
                expect = ("--expect", ",".join(runs[name]["digests"]))
        rounds.append(runs)
    attempted = sum(r["attempted"] for runs in rounds for r in runs.values())
    failed = sum(r["failed"] for runs in rounds for r in runs.values())

    def wall(runs, name):
        return statistics.median(runs[name]["pass_wall_s"])

    def paired(fn):
        return statistics.median([fn(runs) for runs in rounds])

    layers = [runs["traced"]["layers"] for runs in rounds]
    metrics = {key: statistics.median([lay[key] for lay in layers])
               for key in layers[0]}
    metrics["obs.recorder_s"] = 0.0
    metrics["obs.recorder_mb"] = 0.0
    if args.workload == "fleet-clean":
        metrics["obs.recorder_s"] = paired(
            lambda r: wall(r, "plain") - wall(r, "recorder_off"))
        metrics["obs.recorder_mb"] = paired(
            lambda r: (r["plain"]["peak_rss_mb"]
                       - r["recorder_off"]["peak_rss_mb"]))
    metrics["obs.timers_s"] = paired(
        lambda r: wall(r, "plain") - wall(r, "timers_off"))
    metrics["bench.trace_overhead_frac"] = paired(
        lambda r: wall(r, "traced") / wall(r, "plain") - 1.0)
    return metrics, attempted, failed


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny workload sizes (self-test)")
    args = parser.parse_args()

    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        build()
        deadline = time.monotonic() + DEADLINE_S
        measure = per_layer if args.trace else end_to_end
        values, attempted, failed = measure(args, deadline)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        log(str(exc))
        return 1

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            log(f"metric {m['name']} was not measured")
            return 1
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        print(f"{m['name']:40s} {values[m['name']]:.6g} {m['unit']}")
    attempted, failed = int(attempted), int(failed)
    print(f"{'fail_frac':40s} {failed / max(attempted, 1):.6g} ratio "
          f"({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
