#!/usr/bin/env python3
"""Self-test of the repository benchmark.

Runs every workload at a tiny size through perfbench/run.py, untraced
and traced, and checks that:
  * each run exits 0 and ends with the result object, with every check
    passing (failed == 0);
  * every end-to-end and per-layer metric is printed with the unit
    BENCHMARK.json declares, and fail_frac is printed;
  * a traced run given wrong reference results fails its operations, so
    the traced-path equivalence check can fail;
  * in a directory holding only BENCHMARK.json and perfbench/, run.py
    exits non-zero without printing a result.

Usage, from the repository root: python3 perfbench/selftest.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fleet-clean", "fleet-flood", "receiver-flood")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}

END_TO_END = {"setup_s", "recv_intervals_per_s", "announces_per_s",
              "peak_rss_mb"}
PER_LAYER = {
    "fleet.run_s", "fleet.run_s_max", "fleet.cohort.drain_s",
    "fleet.cohort.drain_us_p50", "fleet.cohort.drain_us_p99",
    "fleet.cohort.drain_samples", "fleet.cohort.drains",
    "fleet.cohort.member_offers", "fleet.cohort.ns_per_member_offer",
    "fleet.cohort.offers_per_round", "fleet.dispatch_s",
    "fleet.relay.packets_in", "fleet.relay.forwarded", "fleet.relay.deduped",
    "fleet.relay.shed", "fleet.dispatch_ns_per_packet",
    "strategy.attacks_launched", "strategy.coop.walks_skipped",
    "strategy.coop.skip_frac", "common.parallel.efficiency",
    "dap.rx_announce_s", "dap.rx_announce_ns", "dap.rx_reveal_s",
    "dap.sender_s", "sim.forge_s", "analysis.round_other_s",
    "crypto.hmac_calls", "crypto.chain_walk_steps",
    "crypto.hmac_per_announce", "crypto.batch.messages_per_call",
    "dap.records_stored_frac", "obs.recorder_s", "obs.recorder_mb",
    "obs.timers_s", "bench.trace_overhead_frac",
}

failures = []


def expect(cond, what):
    if not cond:
        failures.append(what)
        print(f"FAIL {what}", flush=True)


def run_bench(cwd, workload, trace):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", "7", "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=600)


def check_workload(spec, workload, trace):
    label = f"{workload} --trace {trace}"
    proc = run_bench(ROOT, workload, trace)
    expect(proc.returncode == 0, f"{label}: exit code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        expect(False, f"{label}: no output\n{proc.stderr[-2000:]}")
        return
    result = json.loads(lines[-1])
    expect(set(result) == RESULT_KEYS, f"{label}: result keys {set(result)}")
    expect(result["correct"] is True and result["failed"] == 0,
           f"{label}: {result['failed']} of {result['attempted']} failed")
    expect(isinstance(result["attempted"], int) and result["attempted"] >= 1,
           f"{label}: attempted {result['attempted']}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    names = PER_LAYER if trace else END_TO_END
    expect({m["name"] for m in declared} == names,
           f"{label}: BENCHMARK.json metrics differ from the benchmark's")
    for m in declared:
        got = result["metrics"].get(m["name"])
        expect(got is not None and got["unit"] == m["unit"],
               f"{label}: metric {m['name']} missing or not in {m['unit']}")
        if got is None:
            continue
        value = got["value"]
        expect(isinstance(value, (int, float)) and math.isfinite(value),
               f"{label}: {m['name']} = {value!r}")
        if not trace:
            expect(value > 0, f"{label}: {m['name']} = {value}")
        expect(any(line.split()[:1] == [m["name"]] for line in lines[:-1]),
               f"{label}: {m['name']} not printed")
    expect(set(result["metrics"]) == names,
           f"{label}: extra metrics {set(result['metrics']) - names}")
    expect(any(line.startswith("fail_frac") for line in lines[:-1]),
           f"{label}: fail_frac not printed")


def check_equivalence_can_fail():
    binary = ROOT / ".bench_build" / "perfbench"
    proc = subprocess.run(
        [str(binary), "--workload", "receiver-flood", "--seed", "7",
         "--seconds", "0", "--tiny", "--traced", "--expect", "0,1"],
        capture_output=True, text=True, timeout=600)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(result["failed"] == result["attempted"] and result["failed"] > 0,
           "traced run accepted wrong reference results")


def check_bare_checkout_fails():
    bare = ROOT / ".bench_build" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fleet-clean",
         "--seed", "7", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170)
    expect(proc.returncode != 0, "bare checkout: run.py exited 0")
    expect('"correct"' not in proc.stdout, "bare checkout: printed a result")
    shutil.rmtree(bare, ignore_errors=True)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in WORKLOADS:
        for trace in (0, 1):
            check_workload(spec, workload, trace)
    check_equivalence_can_fail()
    check_bare_checkout_fails()
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
