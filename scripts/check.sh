#!/usr/bin/env bash
# Full local check: tier-1 build + test suite (including the lint and
# fuzz-corpus-replay ctest entries), an explicit static-analysis stage
# (repo lint, thread-safety gate, fuzz-corpus drift check, run-clang-tidy
# when installed), then the ENTIRE ctest suite again under
# AddressSanitizer + UBSan with contracts at the fatal level.
#
#   scripts/check.sh            # everything
#   scripts/check.sh --fast     # tier-1 only, skip the sanitizer pass
set -euo pipefail
cd "$(dirname "$0")/.."

FAST=0
[[ "${1:-}" == "--fast" ]] && FAST=1

GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

echo "== tier-1: configure + build + ctest =="
cmake -B build -S . "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo
cmake --build build
ctest --test-dir build --output-on-failure

echo "== bench trend: pinned fleet-chaos smoke vs checked-in baseline =="
# Same gate CI runs: the relay-hardening soak with a pinned run id,
# trend-checked against BENCH_fleet.json (forged auths, relay memory
# bound, guard collateral ceilings, auth rates, p99 bands).
(cd build && DAP_RUN_ID=check-fleet-chaos-smoke \
  bench/fleet_scale --chaos --smoke >/dev/null)
python3 scripts/bench_trend.py --baseline BENCH_fleet.json \
  --run build/bench_out/runs/check-fleet-chaos-smoke
# Crypto throughput gate: midstate-vs-pads digest equivalence is the
# bench's own exit code; the HMAC midstate speedup gauge is trend-checked
# against BENCH_crypto.json.
(cd build && DAP_RUN_ID=check-crypto-smoke \
  bench/crypto_throughput --smoke >/dev/null)
python3 scripts/bench_trend.py --baseline BENCH_crypto.json \
  --run build/bench_out/runs/check-crypto-smoke
# Game-loop gate: ESS convergence (gate 7, strategy.ess_gap vs the
# offline replicator oracle) plus zero forged auths under the adaptive
# adversary, trend-checked against BENCH_game.json.
(cd build && DAP_RUN_ID=check-game-smoke \
  bench/game_loop --smoke >/dev/null)
python3 scripts/bench_trend.py --baseline BENCH_game.json \
  --run build/bench_out/runs/check-game-smoke

echo "== static analysis: repo lint + thread-safety gate =="
python3 scripts/lint.py src
python3 scripts/thread_safety_check.py
# The checked-in fuzz seed corpus must be exactly what its generator
# writes (same gate as CI, so commit regenerated seeds first).
python3 scripts/make_fuzz_corpus.py >/dev/null
if [[ -n "$(git status --porcelain fuzz/corpus)" ]]; then
  echo "fuzz/corpus drifted from scripts/make_fuzz_corpus.py:"
  git status --porcelain fuzz/corpus
  exit 1
fi
if command -v run-clang-tidy >/dev/null 2>&1; then
  run-clang-tidy -quiet -p build '(src|fuzz)/.*\.cc$'
else
  echo "run-clang-tidy not installed — clang-tidy tier runs in CI"
fi

if [[ "$FAST" == 1 ]]; then
  echo "== skipping sanitizer pass (--fast) =="
  exit 0
fi

echo "== sanitizers: ASan+UBSan build, full ctest suite, contracts fatal =="
cmake -B build-asan -S . "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDAP_SANITIZE=address,undefined \
  -DDAP_CONTRACTS=FATAL \
  -DDAP_BUILD_BENCHES=OFF -DDAP_BUILD_EXAMPLES=OFF
cmake --build build-asan
# DAP_CHAOS_SOAK_ITERS widens the chaos-soak gtest from the smoke config
# to the full seeded fault-mix soak — the whole thing under ASan+UBSan
# with fatal contracts.
ASAN_OPTIONS=detect_leaks=1 UBSAN_OPTIONS=halt_on_error=1 \
  DAP_CHAOS_SOAK_ITERS=4 \
  ctest --test-dir build-asan --output-on-failure

echo "== tsan: ThreadSanitizer build, parallel-engine suite =="
cmake -B build-tsan -S . "${GEN[@]}" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DDAP_SANITIZE=thread \
  -DDAP_CONTRACTS=FATAL \
  -DDAP_BUILD_BENCHES=OFF -DDAP_BUILD_EXAMPLES=OFF -DDAP_BUILD_FUZZERS=OFF
cmake --build build-tsan
# DAP_THREADS=4 forces real worker threads through the pool even on
# single-core machines, so TSan sees genuine cross-thread handoff.
# test_fleet rides along: cohort drains fan reservoir replay across the
# same pool. test_strategy joins for the same reason: strategy-driven
# fleet runs share the pool with cooperative-verification drains.
# test_obs covers the tracer rings that live in per-chunk shards and are
# merged on the calling thread.
TSAN_OPTIONS=halt_on_error=1 DAP_THREADS=4 \
  ctest --test-dir build-tsan \
  -L 'test_parallel|test_fleet|test_crypto|test_strategy|test_obs' \
  --output-on-failure

echo "== all checks passed =="
