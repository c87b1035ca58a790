// Tests for the deterministic parallel execution engine: SplitMix
// sub-seed derivation, telemetry shard merging, work distribution, and
// the headline guarantee — experiment outputs bitwise identical at any
// thread count. These are the tests the TSan CI job runs under
// `ctest -L test_parallel`.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/chaos.h"
#include "analysis/montecarlo.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "game/ess.h"
#include "game/optimizer.h"
#include "game/params.h"
#include "obs/export.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"

namespace dap {
namespace {

// Pins the process default thread count for one test body, restoring
// the unpinned default afterwards.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) { common::set_default_threads(n); }
  ~ThreadGuard() { common::set_default_threads(0); }
};

// ------------------------------------------------------------- sub-seeds

TEST(Subseed, DeterministicAndFixedForAllTime) {
  // The mapping is part of the reproducibility contract: every seeded
  // run, cohort draw and pinned golden derives from it. Known answers,
  // so an accidental algorithm change fails loudly.
  struct Known {
    std::uint64_t base;
    std::uint64_t index;
    std::uint64_t value;
  };
  const Known known[] = {
      {0, 0, 0x6e789e6aa1b965f4ULL},
      {0, 1, 0x06c45d188009454fULL},
      {0, ~0ULL - 1, 0},  // the state sums to zero, and so does the mix
      {0, ~0ULL, 0xe220a8397b1dcdafULL},
      {1, 7, 0x491718de357e3da8ULL},
      {1, ~0ULL, 0x910a2dec89025cc1ULL},
      {42, 0, 0x28efe333b266f103ULL},
      {42, 7, 0xcc868f8d9bd23f76ULL},
      {42, 1ULL << 32, 0x11894513d4a0bcf6ULL},
      {0x9e3779b97f4a7c15ULL, 1, 0xba0278ba8f42eb34ULL},
      {~0ULL, 0, 0xb4d055fcf2cbbd7bULL},
      {~0ULL, 1, 0xde0a564cbcd060c4ULL},
      {~0ULL, 1ULL << 32, 0x9011e6053017523eULL},
      {~0ULL, ~0ULL - 1, 0xe99ff867dbf682c9ULL},
      {~0ULL, ~0ULL, 0xe4d971771b652c20ULL},
  };
  for (const Known& k : known) {
    EXPECT_EQ(common::subseed(k.base, k.index), k.value)
        << "subseed(" << k.base << ", " << k.index << ")";
  }
}

TEST(Subseed, DistinctAcrossIndicesAndBases) {
  std::set<std::uint64_t> seen;
  for (std::uint64_t base : {0ull, 1ull, 42ull, ~0ull}) {
    for (std::uint64_t index = 0; index < 64; ++index) {
      seen.insert(common::subseed(base, index));
    }
  }
  EXPECT_EQ(seen.size(), 4u * 64u);  // no collisions in a small window
}

// ------------------------------------------------------- basic execution

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 5u, 8u}) {
    std::vector<std::atomic<int>> hits(257);
    common::parallel_for(
        hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); },
        {.threads = threads});
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(ParallelFor, ZeroAndOneItemEdgeCases) {
  int calls = 0;
  common::parallel_for(0, [&calls](std::size_t) { ++calls; }, {.threads = 8});
  EXPECT_EQ(calls, 0);
  common::parallel_for(1, [&calls](std::size_t) { ++calls; }, {.threads = 8});
  EXPECT_EQ(calls, 1);
}

TEST(ParallelMap, SlotsMatchIndices) {
  const auto out = common::parallel_map<std::size_t>(
      1000, [](std::size_t i) { return i * i; }, {.threads = 4});
  ASSERT_EQ(out.size(), 1000u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i * i);
  }
}

TEST(ParallelFor, NestedCallsRunInline) {
  std::atomic<int> inner_total{0};
  common::parallel_for(
      4,
      [&inner_total](std::size_t) {
        EXPECT_TRUE(common::in_parallel_region());
        common::parallel_for(
            8, [&inner_total](std::size_t) { inner_total.fetch_add(1); },
            {.threads = 8});
      },
      {.threads = 2});
  EXPECT_FALSE(common::in_parallel_region());
  EXPECT_EQ(inner_total.load(), 32);
}

TEST(ParallelFor, RapidSmallJobsJoinSafely) {
  // Regression for the join race: with tiny bodies the caller often
  // drains every chunk before the pool workers wake, and a late-waking
  // worker must not be able to claim (and then touch) a job whose
  // parallel_for already returned and destroyed its stack frame. Each
  // iteration writes through the job-local vector so a stale claim
  // shows up as a TSan race / crash rather than passing silently.
  for (int iter = 0; iter < 2000; ++iter) {
    std::vector<std::atomic<int>> hits(4);
    common::parallel_for(
        hits.size(), [&hits](std::size_t i) { hits[i].fetch_add(1); },
        {.threads = 4, .grain = 1});
    for (auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, FirstExceptionPropagates) {
  EXPECT_THROW(common::parallel_for(
                   64,
                   [](std::size_t i) {
                     if (i == 17) throw std::runtime_error("boom");
                   },
                   {.threads = 4}),
               std::runtime_error);
}

TEST(DefaultThreads, OverrideWinsAndClears) {
  common::set_default_threads(3);
  EXPECT_EQ(common::default_threads(), 3u);
  common::set_default_threads(0);
  EXPECT_GE(common::default_threads(), 1u);
}

// ------------------------------------------------------- telemetry merge

TEST(RegistryMerge, CountersGaugesRatesHistograms) {
  obs::Registry a;
  obs::Registry b;
  a.add(a.counter("c"), 3);
  b.add(b.counter("c"), 4);
  b.add(b.counter("only_b"), 7);
  a.set(a.gauge("g"), 1.0);
  b.set(b.gauge("g"), 2.5);
  a.mark(a.rate("r"), true);
  b.mark(b.rate("r"), false);
  b.mark(b.rate("r"), true);
  a.observe(a.histogram("h"), 10.0);
  b.observe(b.histogram("h"), 20.0);
  b.observe(b.histogram("h"), 30.0);

  a.merge_from(b);
  EXPECT_EQ(a.value(a.counter("c")), 7u);
  EXPECT_EQ(a.value(a.counter("only_b")), 7u);
  EXPECT_EQ(a.value(a.gauge("g")), 2.5);  // last writer wins
  EXPECT_EQ(a.value(a.rate("r")).trials(), 3u);
  EXPECT_EQ(a.value(a.rate("r")).successes(), 2u);
  const auto& h = a.value(a.histogram("h"));
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 60.0);
  EXPECT_DOUBLE_EQ(h.min(), 10.0);
  EXPECT_DOUBLE_EQ(h.max(), 30.0);
}

TEST(RegistryMerge, UnwrittenGaugeDoesNotClobber) {
  obs::Registry global_like;
  obs::Registry shard;
  global_like.set(global_like.gauge("g"), 4.0);
  // The shard registered the gauge (as make_telemetry-style resolution
  // does) but never set it: the merge must keep the destination value.
  shard.gauge("g");
  shard.add(shard.counter("c"), 1);
  global_like.merge_from(shard);
  EXPECT_EQ(global_like.value(global_like.gauge("g")), 4.0);
  // A written 0 is still a real write and does override.
  shard.set(shard.gauge("g"), 0.0);
  global_like.merge_from(shard);
  EXPECT_EQ(global_like.value(global_like.gauge("g")), 0.0);
}

TEST(RegistryMerge, HistogramBucketCountsAreExact) {
  obs::LatencyHistogram a;
  obs::LatencyHistogram b;
  for (int i = 1; i <= 100; ++i) a.add(i);
  for (int i = 101; i <= 200; ++i) b.add(i);
  obs::LatencyHistogram whole;
  for (int i = 1; i <= 200; ++i) whole.add(i);
  a.merge(b);
  EXPECT_EQ(a.count(), whole.count());
  EXPECT_DOUBLE_EQ(a.sum(), whole.sum());
  EXPECT_DOUBLE_EQ(a.p50(), whole.p50());
  EXPECT_DOUBLE_EQ(a.p99(), whole.p99());
}

TEST(RegistryMerge, ThreadOverrideRedirectsGlobal) {
  obs::Registry shard;
  obs::Registry* prev = obs::Registry::set_thread_override(&shard);
  obs::Registry::global().add(
      obs::Registry::global().counter("override_probe"));
  obs::Registry::set_thread_override(prev);
  EXPECT_EQ(shard.value(shard.counter("override_probe")), 1u);
  // The real global never saw the increment.
  auto& global = obs::Registry::global();
  EXPECT_EQ(global.value(global.counter("override_probe")), 0u);
}

TEST(ParallelFor, ShardCountersSumIntoGlobal) {
  auto& global = obs::Registry::global();
  const auto handle = global.counter("parallel_test.shard_sum");
  const std::uint64_t before = global.value(handle);
  common::parallel_for(
      100,
      [](std::size_t) {
        auto& reg = obs::Registry::global();  // the shard, inside the pool
        reg.add(reg.counter("parallel_test.shard_sum"));
      },
      {.threads = 4});
  EXPECT_EQ(global.value(handle), before + 100);
}

// ---------------------------------------------- end-to-end determinism
//
// The container running CI may expose a single core; oversubscribed
// worker threads still exercise cross-thread handoff and the shard
// merge, so these determinism checks are valid at any core count.

TEST(Determinism, MonteCarloIdenticalAcrossThreadCounts) {
  analysis::MonteCarloConfig config;
  config.trials = 400;
  config.seed = 99;
  std::vector<analysis::MonteCarloResult> results;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    results.push_back(analysis::measure_attack_success(config));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    // Bitwise equality, not tolerance: same trials, same outcomes.
    EXPECT_EQ(results[i].measured_attack_success,
              results[0].measured_attack_success);
    EXPECT_EQ(results[i].wilson_lo, results[0].wilson_lo);
    EXPECT_EQ(results[i].wilson_hi, results[0].wilson_hi);
    EXPECT_EQ(results[i].trials, results[0].trials);
  }
}

TEST(Determinism, CostCurveIdenticalAcrossThreadCounts) {
  const auto base = game::GameParams::paper_defaults(0.9, 1);
  std::vector<std::vector<game::CostAtEss>> curves;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    curves.push_back(game::cost_curve(base, 24));
  }
  for (std::size_t i = 1; i < curves.size(); ++i) {
    ASSERT_EQ(curves[i].size(), curves[0].size());
    for (std::size_t m = 0; m < curves[0].size(); ++m) {
      EXPECT_EQ(curves[i][m].cost, curves[0][m].cost) << "m=" << m + 1;
      EXPECT_EQ(curves[i][m].ess.kind, curves[0][m].ess.kind);
      EXPECT_EQ(curves[i][m].ess.point.x, curves[0][m].ess.point.x);
      EXPECT_EQ(curves[i][m].ess.point.y, curves[0][m].ess.point.y);
    }
  }
}

TEST(Determinism, ChaosSoaksIdenticalAcrossThreadCounts) {
  std::vector<analysis::ChaosConfig> configs(3);
  configs[0].seed = 7;
  configs[1].seed = 11;
  configs[1].mix.jitter = true;
  configs[2].seed = 23;
  configs[2].mix.clock_drift = true;
  for (auto& c : configs) {
    c.receivers = 2;
    c.chain_length = 24;
    c.fault_from = 6;
    c.fault_until = 10;
    c.reconverge_within = 10;
  }
  std::vector<std::vector<analysis::ChaosReport>> runs;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    runs.push_back(analysis::run_chaos_soaks(configs));
  }
  for (std::size_t i = 1; i < runs.size(); ++i) {
    ASSERT_EQ(runs[i].size(), runs[0].size());
    for (std::size_t s = 0; s < runs[0].size(); ++s) {
      EXPECT_EQ(runs[i][s].forged_accepted_total,
                runs[0][s].forged_accepted_total);
      EXPECT_EQ(runs[i][s].all_reconverged, runs[0][s].all_reconverged);
      EXPECT_EQ(runs[i][s].total_intervals, runs[0][s].total_intervals);
      ASSERT_EQ(runs[i][s].dap.size(), runs[0][s].dap.size());
      for (std::size_t r = 0; r < runs[0][s].dap.size(); ++r) {
        EXPECT_EQ(runs[i][s].dap[r].authenticated,
                  runs[0][s].dap[r].authenticated);
        EXPECT_EQ(runs[i][s].teslapp[r].authenticated,
                  runs[0][s].teslapp[r].authenticated);
      }
    }
  }
}

TEST(Determinism, TelemetryExportBytesIdenticalAcrossThreadCounts) {
  // The full serialized telemetry surface — metrics JSON (counters,
  // gauges, rates, histogram buckets), the snapshot stream, and the
  // trace JSONL — must be byte-identical at any thread count, not just
  // numerically close. Registry updates run against a private registry
  // via a thread override (shards merge into the override because the
  // merge runs on the calling thread). The tracer must be the *process*
  // global, sized and enabled before the fan-out, because worker
  // threads copy its enabled state when they create their shards —
  // exactly the bench setup.
  obs::Tracer& tracer = obs::Tracer::global();
  tracer.clear();
  tracer.set_capacity(512);
  tracer.enable(true);
  auto run = [&tracer](std::size_t threads) {
    tracer.clear();
    obs::Registry local;
    obs::Registry* prev_reg = obs::Registry::set_thread_override(&local);
    common::parallel_for(
        96,
        [](std::size_t i) {
          auto& reg = obs::Registry::global();
          reg.add(reg.counter("ptest.items"));
          reg.mark(reg.rate("ptest.auth"), i % 3 != 0);
          reg.observe(reg.histogram("ptest.latency_us"),
                      static_cast<double>(i % 7) * 10.0 + 1.0);
          obs::SpanEvent span;
          span.uid = static_cast<std::uint64_t>(i) + 1;
          span.trace = common::subseed(99, i);
          span.t_begin = i * 100;
          span.t_end = i * 100 + 40;
          span.node = static_cast<std::uint32_t>(i % 5);
          span.kind = obs::SpanKind::kVerify;
          span.tag = obs::SpanTag::kAuthOk;
          obs::Tracer::global().record_span(span);
        },
        {.threads = threads});
    obs::Registry::set_thread_override(prev_reg);

    obs::Snapshotter snap("ptest", 1000);
    snap.sample(local, 1000);
    std::ostringstream trace_out;
    tracer.export_jsonl(trace_out);
    return obs::metrics_json(local, -1.0) + snap.stream() + trace_out.str();
  };
  const std::string serial = run(1);
  EXPECT_GT(serial.size(), 0u);
  EXPECT_NE(serial.find("\"ptest.items\": 96"), std::string::npos);
  EXPECT_NE(serial.find("\"span\":\"verify\""), std::string::npos);
  EXPECT_EQ(serial, run(4));
  EXPECT_EQ(serial, run(8));
  tracer.clear();
  tracer.enable(false);
}

TEST(Determinism, MergedCountersIdenticalAcrossThreadCounts) {
  // The analytic outputs being identical is necessary but not
  // sufficient: the merged telemetry stream must agree too.
  analysis::MonteCarloConfig config;
  config.trials = 200;
  config.seed = 5;
  std::vector<std::uint64_t> prf_calls;
  for (const std::size_t threads : {1u, 2u, 8u}) {
    const ThreadGuard guard(threads);
    auto& global = obs::Registry::global();
    const auto handle = global.counter("crypto.prf_calls");
    const std::uint64_t before = global.value(handle);
    (void)analysis::measure_attack_success(config);
    prf_calls.push_back(global.value(handle) - before);
  }
  EXPECT_GT(prf_calls[0], 0u);
  EXPECT_EQ(prf_calls[1], prf_calls[0]);
  EXPECT_EQ(prf_calls[2], prf_calls[0]);
}

}  // namespace
}  // namespace dap
