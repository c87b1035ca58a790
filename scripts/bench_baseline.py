#!/usr/bin/env python3
"""Serial-vs-parallel bench baseline: runs the experiment binaries at 1
thread and at N threads, proves the outputs are bitwise identical, and
records the timing in a JSON report.

Each bench runs twice in its own scratch working directory:

  DAP_THREADS=1 <bench> ...      # the bit-exact serial reference
  DAP_THREADS=N <bench> ...      # the parallel engine

and the two bench_out/<name>.csv files are compared byte for byte — the
determinism contract of common::parallel_for made observable. The same
identity check covers the run registry's time-series artifacts when the
bench produces them: snapshots.jsonl and trace.json from
bench_out/runs/<run_id>/ must also match across thread counts ($DAP_RUN_ID
is pinned per run so the directory is findable). Timing uses wall clocks
around the whole process, so treat the speedup as indicative; the
artifact identity checks are the hard pass/fail signal.

Each entry additionally records a "trajectory" object — the serial
reference run's counters, rates and histogram p99s — which
scripts/bench_trend.py diffs future runs against (auth-rate drops,
forged authentications, p99 regressions).

Two suites share the harness:

  --suite parallel   (default) the original engine baseline ->
                     BENCH_parallel.json, schema dap.bench_parallel.v2
  --suite fleet      the fleet-scale sweep (full run: >= 100k receivers
                     per flagship topology, cohort drains sharded across
                     the pool, plus the --smoke pass CI gates on) ->
                     BENCH_fleet.json, schema dap.bench_fleet.v2
  --suite crypto     the HMAC midstate-vs-pads throughput bench
                     (digest-checksum CSV as the identity contract, the
                     bench.crypto.hmac_midstate_speedup gauge as the
                     gated trajectory) -> BENCH_crypto.json, schema
                     dap.bench_crypto.v1
  --suite game       the evolutionary-game loop bench (adaptive-attacker
                     ESS sweep + DAP/TESLA++/MABS protocol curves; the
                     strategy.ess_gap gauges and strategy.forged_accepted
                     counter are the gated trajectory) -> BENCH_game.json,
                     schema dap.bench_game.v1

Stdlib only. Usage:

  scripts/bench_baseline.py [--suite parallel|fleet|crypto|game]
                            [--build BUILD_DIR]
                            [--threads N] [--out FILE]

Defaults: --build build, --threads os.cpu_count(), --out
BENCH_<suite>.json in the repo root. Exits 1 when a bench fails or a CSV
differs between thread counts.
"""

import argparse
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent

# suite -> (schema, default report file, [(bench name, binary relative to
# the build dir, extra argv[, CSV/metrics series name when it differs
# from the binary name])])
SUITES = {
    "parallel": (
        "dap.bench_parallel.v2",
        "BENCH_parallel.json",
        [
            ("montecarlo_dap", "bench/montecarlo_dap", []),
            ("fig7_optimal_m", "bench/fig7_optimal_m", []),
            ("chaos_soak", "bench/chaos_soak", ["--smoke"]),
        ],
    ),
    "crypto": (
        "dap.bench_crypto.v1",
        "BENCH_crypto.json",
        [
            # Full run: the HMAC midstate speedup gauge
            # (bench.crypto.hmac_midstate_speedup) is the host-stable
            # throughput trajectory bench_trend.py gates; the CSV carries
            # only counts + digest checksums, so the 1-vs-N-thread
            # identity check covers the midstate path's bit-exactness.
            ("crypto_throughput", "bench/crypto_throughput", []),
            # The smoke pass is what CI runs and gates.
            ("crypto_throughput_smoke", "bench/crypto_throughput",
             ["--smoke"], "crypto_throughput"),
        ],
    ),
    "game": (
        "dap.bench_game.v1",
        "BENCH_game.json",
        [
            # Full sweep: three topologies x three learning rates, plus
            # the three-protocol bandwidth/defense-cost curves. The
            # parallel ESS scenarios republish their gauges in slot
            # order, so the 1-vs-N identity check covers them too.
            ("game_loop", "bench/game_loop", []),
            # The smoke pass is what CI runs and gates.
            ("game_loop_smoke", "bench/game_loop", ["--smoke"],
             "game_loop"),
        ],
    ),
    "fleet": (
        "dap.bench_fleet.v2",
        "BENCH_fleet.json",
        [
            # Full sweep (not --smoke): the >= 100k-receiver flagships are
            # part of what the identity check must cover.
            ("fleet_scale", "bench/fleet_scale", []),
            # The smoke pass is what CI runs and gates with bench_trend.py,
            # so its trajectory must be a first-class baseline entry.
            ("fleet_scale_smoke", "bench/fleet_scale", ["--smoke"]),
            # Relay-hardening chaos soak: same binary, --chaos mode, its
            # own CSV/metrics series (bench_out/fleet_chaos.*). Both the
            # full soak and the CI smoke pass are gated trajectories.
            ("fleet_chaos", "bench/fleet_scale", ["--chaos"],
             "fleet_chaos"),
            ("fleet_chaos_smoke", "bench/fleet_scale", ["--chaos", "--smoke"],
             "fleet_chaos"),
        ],
    ),
}

# Run-registry artifacts that must be bitwise identical across thread
# counts when the bench produces them (sim-time snapshot streams and the
# causal trace are part of the determinism contract).
RUN_DIR_ARTIFACTS = ("snapshots.jsonl", "trace.json")


def trajectory_of(metrics):
    """Extracts the bench_trend.py gating trajectory from a metrics
    footer: counters verbatim, rate estimates, and histogram p99s."""
    return {
        "counters": metrics.get("counters", {}),
        "rates": {
            name: rate.get("rate")
            for name, rate in metrics.get("rates", {}).items()
        },
        "histogram_p99": {
            name: hist.get("p99")
            for name, hist in metrics.get("histograms", {}).items()
            if hist.get("count", 0) > 0
        },
        # Gauges carry the crypto-throughput speedup ratios (host-stable,
        # unlike absolute hashes/sec) that bench_trend.py gates.
        "gauges": metrics.get("gauges", {}),
    }


def run_once(binary, extra_args, threads, scratch, series=None):
    """Runs one bench in `scratch` with DAP_THREADS pinned and
    $DAP_RUN_ID fixed to "baseline"; returns (wall_seconds, csv_bytes,
    metrics_dict_or_None, run_artifacts, returncode). run_artifacts maps
    each RUN_DIR_ARTIFACTS name the bench produced to its bytes.
    `series` overrides the bench_out/<name>.{csv,metrics.json} stem when
    a mode writes a different series than the binary name (e.g.
    fleet_scale --chaos -> fleet_chaos)."""
    env = dict(os.environ)
    env["DAP_THREADS"] = str(threads)
    env["DAP_RUN_ID"] = "baseline"
    start = time.perf_counter()
    proc = subprocess.run(
        [str(binary)] + extra_args,
        cwd=scratch,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
    )
    wall = time.perf_counter() - start
    name = series or pathlib.Path(binary).name
    csv_path = pathlib.Path(scratch) / "bench_out" / (name + ".csv")
    csv_bytes = csv_path.read_bytes() if csv_path.exists() else None
    metrics = None
    metrics_path = pathlib.Path(scratch) / "bench_out" / (name + ".metrics.json")
    if metrics_path.exists():
        try:
            metrics = json.loads(metrics_path.read_text())
        except json.JSONDecodeError:
            pass
    run_artifacts = {}
    run_dir = pathlib.Path(scratch) / "bench_out" / "runs" / "baseline"
    for artifact in RUN_DIR_ARTIFACTS:
        path = run_dir / artifact
        if path.exists():
            run_artifacts[artifact] = path.read_bytes()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode(errors="replace"))
    return wall, csv_bytes, metrics, run_artifacts, proc.returncode


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--suite", default="parallel", choices=sorted(SUITES),
                        help="which bench suite to baseline")
    parser.add_argument("--build", default="build",
                        help="CMake build directory holding the benches")
    parser.add_argument("--threads", type=int, default=os.cpu_count() or 1,
                        help="parallel thread count to compare against 1")
    parser.add_argument("--out", default=None,
                        help="where to write the JSON report "
                             "(default: BENCH_<suite>.json in the repo root)")
    args = parser.parse_args(argv)

    schema, default_out, benches = SUITES[args.suite]
    out = args.out if args.out is not None else str(ROOT / default_out)
    build = pathlib.Path(args.build)
    if not build.is_absolute():
        build = ROOT / build
    threads = max(1, args.threads)

    report = {
        "schema": schema,
        "threads_serial": 1,
        "threads_parallel": threads,
        "cpu_count": os.cpu_count() or 1,
        "benches": [],
    }
    failed = False
    for bench in benches:
        name, rel, extra = bench[:3]
        series = bench[3] if len(bench) > 3 else None
        binary = build / rel
        if not binary.exists():
            print(f"[{name}] SKIP: {binary} not built")
            report["benches"].append({"name": name, "status": "missing"})
            continue
        with tempfile.TemporaryDirectory() as serial_dir, \
                tempfile.TemporaryDirectory() as parallel_dir:
            s_wall, s_csv, s_metrics, s_artifacts, s_rc = run_once(
                binary, extra, 1, serial_dir, series)
            p_wall, p_csv, p_metrics, p_artifacts, p_rc = run_once(
                binary, extra, threads, parallel_dir, series)
        # Every artifact either side produced must exist AND match on the
        # other side — a bench that only snapshots at one thread count is
        # itself a determinism bug.
        artifact_mismatches = sorted(
            a for a in set(s_artifacts) | set(p_artifacts)
            if s_artifacts.get(a) != p_artifacts.get(a))
        entry = {
            "name": name,
            "args": extra,
            "serial_wall_seconds": round(s_wall, 4),
            "parallel_wall_seconds": round(p_wall, 4),
            "speedup": round(s_wall / p_wall, 3) if p_wall > 0 else None,
            "csv_identical": s_csv is not None and s_csv == p_csv,
            "run_artifacts_checked": sorted(set(s_artifacts) | set(p_artifacts)),
            "run_artifacts_identical": not artifact_mismatches,
        }
        for metrics, key in ((s_metrics, "serial"), (p_metrics, "parallel")):
            if metrics is not None:
                entry[key + "_reported_threads"] = metrics.get("threads")
                entry[key + "_peak_rss_kb"] = metrics.get("peak_rss_kb")
                if metrics.get("scenario"):
                    entry["scenario"] = metrics["scenario"]
        if s_metrics is not None:
            # The serial run is the bit-exact reference, so its counters,
            # rates and p99s become the bench_trend.py gating trajectory.
            entry["trajectory"] = trajectory_of(s_metrics)
        if s_rc != 0 or p_rc != 0:
            entry["status"] = "bench_failed"
            failed = True
        elif s_csv is None:
            entry["status"] = "no_csv"
            failed = True
        elif not entry["csv_identical"]:
            entry["status"] = "csv_mismatch"
            failed = True
        elif artifact_mismatches:
            entry["status"] = ("artifact_mismatch: "
                               + ", ".join(artifact_mismatches))
            failed = True
        else:
            entry["status"] = "ok"
        report["benches"].append(entry)
        print(f"[{name}] {entry['status']}: serial {s_wall:.2f}s, "
              f"{threads}-thread {p_wall:.2f}s "
              f"(speedup {entry['speedup']}), csv identical: "
              f"{entry['csv_identical']}, run artifacts identical: "
              f"{entry['run_artifacts_identical']} "
              f"({len(entry['run_artifacts_checked'])} checked)")

    pathlib.Path(out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"report written to {out}")
    if failed:
        print("FAIL: at least one bench failed or diverged across "
              "thread counts")
        return 1
    print("OK: all benches bitwise identical across thread counts")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
