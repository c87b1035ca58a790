// Crypto hot-path throughput: HMAC with cached ipad/opad midstates
// (HmacKey) vs per-call pad recomputation (hmac_sha256).
//
// One table, each row an HMAC path with MACs/sec and its speedup over
// the pad-recomputing reference measured in-process. The CSV
// intentionally carries NO timing data — only message counts and a
// digest checksum per row, which must be identical across paths and
// thread counts (the determinism contract bench_baseline.py diffs).
// Rates and speedups go to the metrics footer as gauges
// (bench.crypto.*_per_sec / *_speedup), which is what bench_trend.py
// gates.
//
// Exits non-zero if a midstate MAC diverges from the reference, so the
// --smoke run doubles as the ctest `crypto_throughput_smoke`.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/bytes.h"
#include "common/csv.h"
#include "common/table.h"
#include "crypto/hmac.h"

namespace {

using dap::common::Bytes;
using dap::common::ByteView;
namespace crypto = dap::crypto;

template <typename Fn>
double wall_seconds(Fn&& fn) {
  const auto start = std::chrono::steady_clock::now();
  fn();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double median_of(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct Interleaved {
  double base_per_sec = 0;
  double cand_per_sec = 0;
  double cand_speedup = 1.0;
};

/// Times the baseline and the candidate adjacently within each round,
/// then reports the candidate's speedup as the MEDIAN of the per-round
/// baseline/candidate wall ratios. A CPU-steal or frequency event that
/// lands on one round slows both sides of that round's ratio and is
/// voted out by the other rounds — separate best-of windows have no such
/// protection, and the speedup gauge is regression-gated by
/// bench_trend.py, so it must hold steady on busy shared cores.
/// Rates (ungated, reporting only) come from the best window per side.
Interleaved measure_interleaved(const std::function<void()>& base,
                                const std::function<void()>& cand,
                                int rounds, double work) {
  std::vector<double> base_walls;
  std::vector<double> cand_walls;
  std::vector<double> ratios;
  for (int r = 0; r < rounds; ++r) {
    base_walls.push_back(wall_seconds(base));
    cand_walls.push_back(wall_seconds(cand));
    ratios.push_back(base_walls.back() / cand_walls.back());
  }
  Interleaved out;
  out.base_per_sec =
      work / *std::min_element(base_walls.begin(), base_walls.end());
  out.cand_per_sec =
      work / *std::min_element(cand_walls.begin(), cand_walls.end());
  out.cand_speedup = median_of(std::move(ratios));
  return out;
}

/// FNV-style fold of a digest list into a 64-bit hex checksum: the fold
/// order is the (fixed) message order, so the value is identical across
/// paths and thread counts — the CSV's determinism witness.
std::string digest_checksum(const std::vector<crypto::Digest>& digests) {
  std::uint64_t acc = 1469598103934665603ULL;
  for (const crypto::Digest& d : digests) {
    for (const std::uint8_t b : d) {
      acc = (acc ^ b) * 1099511628211ULL;
    }
  }
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(acc));
  return buf;
}

struct Row {
  std::string op;
  std::string path;
  std::size_t messages = 0;
  double per_sec = 0;
  double speedup = 1.0;
  std::string checksum;
};

void set_gauges(const Row& row) {
  auto& reg = dap::obs::Registry::global();
  const std::string base = "bench.crypto." + row.op + "_" + row.path;
  reg.set(reg.gauge(base + "_per_sec"), row.per_sec);
  reg.set(reg.gauge(base + "_speedup"), row.speedup);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--smoke") smoke = true;
  }
  const std::size_t threads = dap::bench::configure_threads(argc, argv);
  dap::bench::banner(
      std::string("crypto throughput — HMAC midstates") +
          (smoke ? " (smoke)" : ""),
      "the HMAC substrate under every DAP cost model (Section IV's "
      "verification arms race)",
      "about 1.6x (portable SHA-256 kernel) or 1.3x (SHA-NI) from HMAC "
      "midstate caching; identical digests on both paths");
  std::cout << "[parallel engine: " << threads << " thread(s)]\n";
  // Distinct scenario ids per mode: the smoke and full workloads have
  // structurally different speedup trajectories, and bench_trend.py
  // matches baseline entries by scenario id.
  dap::bench::set_run_scenario(smoke ? "crypto-throughput:smoke"
                                     : "crypto-throughput:full");

  const std::size_t n_msgs = smoke ? 2048 : 16384;
  const std::size_t msg_len = 48;  // single-block messages (DAP announce size)
  // Smoke still needs enough work per timed window (reps) and enough
  // interleaved rounds (the median-of-ratios filter in
  // measure_interleaved) that the speedup gauge holds steady within
  // bench_trend.py's band on a busy shared core; the digests, not the
  // clocks, are the pass/fail signal.
  const int reps = smoke ? 16 : 8;
  const int rounds = smoke ? 7 : 5;

  std::vector<Bytes> messages(n_msgs);
  for (std::size_t i = 0; i < n_msgs; ++i) {
    messages[i].resize(msg_len);
    for (std::size_t b = 0; b < msg_len; ++b) {
      messages[i][b] = static_cast<std::uint8_t>((i * 131 + b * 7) & 0xFF);
    }
  }
  std::vector<ByteView> views(messages.begin(), messages.end());

  // ----------------------------------------------- hmac: midstate caching
  const Bytes key(32, 0x42);
  const crypto::HmacKey hkey{ByteView(key)};
  std::vector<crypto::Digest> pads(n_msgs);
  std::vector<crypto::Digest> midstate(n_msgs);
  const auto mac_pads = [&] {
    for (std::size_t i = 0; i < n_msgs; ++i) {
      pads[i] = crypto::hmac_sha256(key, views[i]);
    }
  };
  const auto mac_midstate = [&] {
    for (std::size_t i = 0; i < n_msgs; ++i) midstate[i] = hkey.mac(views[i]);
  };
  Interleaved m;
  {
    const dap::bench::PhaseTimer phase("hmac");
    // Untimed correctness pass (also warms caches), then the interleaved
    // timing rounds over the same buffers.
    mac_pads();
    mac_midstate();
    m = measure_interleaved(
        [&] {
          for (int r = 0; r < reps; ++r) mac_pads();
        },
        [&] {
          for (int r = 0; r < reps; ++r) mac_midstate();
        },
        rounds, static_cast<double>(n_msgs) * reps);
  }
  const bool digests_ok = pads == midstate;
  const std::vector<Row> rows{
      {"hmac", "oneshot_pads", n_msgs, m.base_per_sec, 1.0,
       digest_checksum(pads)},
      {"hmac", "midstate", n_msgs, m.cand_per_sec, m.cand_speedup,
       digest_checksum(midstate)},
  };

  // --------------------------------------------------------------- output
  dap::common::TextTable table(
      {"op", "path", "messages", "hashes/sec", "speedup", "checksum"});
  dap::common::CsvWriter csv(
      dap::bench::csv_path("crypto_throughput"),
      {"op", "path", "messages", "checksum"});
  for (const Row& row : rows) {
    char rate_buf[32], speed_buf[32];
    std::snprintf(rate_buf, sizeof rate_buf, "%.3e", row.per_sec);
    std::snprintf(speed_buf, sizeof speed_buf, "%.2fx", row.speedup);
    table.add_row({row.op, row.path, std::to_string(row.messages),
                   rate_buf, speed_buf, row.checksum});
    // Deterministic CSV: no rates, no wall times — the checksum column is
    // the cross-path/thread-count identity contract.
    csv.row_text(
        {row.op, row.path, std::to_string(row.messages), row.checksum});
    set_gauges(row);
  }
  csv.flush();
  std::cout << table.render();

  if (!digests_ok) {
    std::cerr << "FAIL: a midstate MAC diverged from hmac_sha256\n";
  }
  dap::bench::footer("crypto_throughput");
  return digests_ok ? 0 : 1;
}
