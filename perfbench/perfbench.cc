// Benchmark program: runs one workload through the public APIs of
// fleet, strategy and analysis, checks every output, and prints one
// JSON object of raw measurements on its last stdout line. run.py
// builds this binary, runs it (once, or in several variant processes
// for a traced run) and turns the measurements into metrics.
//
// Modes:
//   plain (default)  the program's own entry points: FleetSim::run,
//                    strategy::run_scenario, analysis::attack_success_sweep.
//   --traced         the same work composed from public calls, with
//                    spans recorded here around each call into a layer.
//                    run.py passes it the plain run's per-operation
//                    digests (--expect), which it must reproduce.
//   --setup-only     set up, print the set-up time, and exit.
//
// An operation is one fleet scenario or one grid cell. Every pass of a
// run repeats identical inputs derived from --seed; an operation fails
// when its output check fails or its digest differs from the reference
// (--expect, else the first pass's).

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <ctime>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/montecarlo.h"
#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/stats.h"
#include "dap/dap.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"
#include "obs/registry.h"
#include "obs/scoped_timer.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "strategy/adaptive.h"
#include "strategy/coop.h"
#include "strategy/runner.h"

namespace {

using namespace dap;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CLOCK_MONOTONIC in ns: the clock Python's time.monotonic_ns() reads,
// so a parent can pass its spawn instant and set-up time starts there.
std::int64_t monotonic_ns() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000LL + ts.tv_nsec;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank quantile of a sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

// The benchmark's own generator, independent of the program's RNG so a
// change to common::Rng cannot change the workload.
class Gen {
 public:
  explicit Gen(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  std::uint64_t s_;
};

// ---- Digests ------------------------------------------------------------
// One per checked operation, compared across passes and between the
// processes of a traced run.

class Digest {
 public:
  Digest& u(std::uint64_t v) {
    out_ << v << ',';
    return *this;
  }
  Digest& d(double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%a,", v);
    out_ << buf;
    return *this;
  }
  [[nodiscard]] std::string hex() const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char c : out_.str()) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }

 private:
  std::ostringstream out_;
};

void digest_report(Digest& dg, const fleet::FleetReport& r) {
  dg.u(r.total_members).u(r.cohort_count).u(r.intervals).u(r.max_depth);
  dg.u(r.announces_sent).u(r.forged_announces_sent).u(r.forged_reveals_sent);
  dg.u(r.member_auths).u(r.sentinel_auths).u(r.forged_accepted);
  dg.u(r.announces_unsafe).u(r.weak_auth_failures).u(r.dedup_dropped);
  dg.u(r.duplicated_frames).u(r.total_bits).u(r.guard_evicted);
  dg.u(r.guard_shed).u(r.guard_false_drops).u(r.guard_peak_entries);
  dg.u(r.guard_capacity).u(r.relay_restarts).u(r.dropped_while_down);
  dg.u(r.fault_clear_interval);
  for (const std::uint32_t v : r.reconverge_intervals) dg.u(v);
  dg.u(r.stored_records_peak).d(r.auth_rate);
}

std::string digest_of(const fleet::FleetReport& r) {
  Digest dg;
  digest_report(dg, r);
  return dg.hex();
}

std::string digest_of(const strategy::StrategyOutcome& o) {
  Digest dg;
  digest_report(dg, o.report);
  dg.d(o.attacker_share).d(o.oracle_share).d(o.ess_gap);
  dg.u(o.attacks_launched).u(o.sybil_announces).u(o.sybil_reveals);
  dg.u(o.coop_verdicts_shared).u(o.coop_walks_skipped);
  dg.u(o.coop_hint_audits).u(o.coop_poisoned_rejected);
  return dg.hex();
}

std::string digest_of(const analysis::SweepPoint& s) {
  Digest dg;
  dg.d(s.p).u(s.m).d(s.result.measured_attack_success);
  dg.d(s.result.wilson_lo).d(s.result.wilson_hi).d(s.result.analytic);
  dg.u(s.result.trials);
  return dg.hex();
}

// ---- Options ------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 1.0;
  bool traced = false;
  bool recorder = true;  // fleet-clean only; other workloads keep it off
  bool timers = true;    // obs::set_timing_enabled
  bool tiny = false;
  bool setup_only = false;
  std::size_t threads = 0;
  std::int64_t t0_ns = 0;  // spawn instant (CLOCK_MONOTONIC), 0 = main()
  std::vector<std::string> expect;  // reference digests, comma-separated
};

// ---- Per-run accounting -------------------------------------------------

/// One operation's outcome within a pass.
struct Op {
  std::string digest;
  bool ok = true;  // output check passed
};

// Per-pass layer measurements of the traced run (times in seconds).
struct LayerPass {
  double wall = 0.0;
  // fleet
  double run_s = 0.0;
  double run_s_max = 0.0;
  double drain_s = 0.0;
  std::uint64_t drains = 0;
  std::uint64_t member_offers = 0;
  std::uint64_t safe_announces = 0;
  std::uint64_t cohort_intervals = 0;
  std::uint64_t packets_in = 0;
  std::uint64_t forwarded = 0;
  std::uint64_t deduped = 0;
  std::uint64_t shed = 0;
  std::uint64_t attacks = 0;
  std::uint64_t walks_skipped = 0;
  std::uint64_t reveals_drained = 0;
  // receiver-flood
  double cells_s = 0.0;
  double rx_announce_s = 0.0;
  double rx_reveal_s = 0.0;
  double sender_s = 0.0;
  double forge_s = 0.0;
  std::uint64_t announces_ingested = 0;

  /// Adds one scenario's or grid cell's measurements (`wall` is the
  /// pass's own).
  void add(const LayerPass& o) {
    run_s += o.run_s;
    run_s_max = std::max(run_s_max, o.run_s_max);
    drain_s += o.drain_s;
    drains += o.drains;
    member_offers += o.member_offers;
    safe_announces += o.safe_announces;
    cohort_intervals += o.cohort_intervals;
    packets_in += o.packets_in;
    forwarded += o.forwarded;
    deduped += o.deduped;
    shed += o.shed;
    attacks += o.attacks;
    walks_skipped += o.walks_skipped;
    reveals_drained += o.reveals_drained;
    cells_s += o.cells_s;
    rx_announce_s += o.rx_announce_s;
    rx_reveal_s += o.rx_reveal_s;
    sender_s += o.sender_s;
    forge_s += o.forge_s;
    announces_ingested += o.announces_ingested;
  }
};

struct RunResult {
  std::vector<double> pass_wall;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> digests;  // reference, one per operation
  double recv_intervals = 0.0;       // per pass
  double announces = 0.0;            // per pass
  std::vector<LayerPass> layers;     // traced only, one per pass
  std::vector<double> drain_us;      // traced only, every drain
};

// Runs `pass` until `seconds` have elapsed (at least once) and checks
// every operation of every pass against the reference digests.
template <typename PassFn>
void run_passes(const Options& opt, RunResult& out, PassFn&& pass) {
  out.digests = opt.expect;
  const auto start = Clock::now();
  do {
    const std::vector<Op> ops = pass();
    if (out.digests.empty()) {
      for (const Op& op : ops) out.digests.push_back(op.digest);
    }
    for (std::size_t i = 0; i < ops.size(); ++i) {
      const bool same =
          i < out.digests.size() && ops[i].digest == out.digests[i];
      if (!same) {
        std::cerr << "perfbench: operation " << i
                  << " differs from its reference result\n";
      }
      ++out.attempted;
      if (!ops[i].ok || !same) ++out.failed;
    }
    if (ops.size() < out.digests.size()) {  // missing operations fail
      std::cerr << "perfbench: " << ops.size() << " operations, expected "
                << out.digests.size() << '\n';
      out.attempted += out.digests.size() - ops.size();
      out.failed += out.digests.size() - ops.size();
    }
  } while (since(start) < opt.seconds);
}

// ---- Drain timing hook --------------------------------------------------

/// Times every ReceiverCohort::drain from outside: FleetSim calls
/// before_drain/after_drain right around it. Forwards to an inner
/// participant (cooperative verification) outside the timed window.
class DrainTimer final : public fleet::DrainParticipant {
 public:
  explicit DrainTimer(fleet::DrainParticipant* inner) : inner_(inner) {}

  void before_drain(std::uint32_t node,
                    fleet::ReceiverCohort& cohort) override {
    if (inner_ != nullptr) inner_->before_drain(node, cohort);
    start_ = Clock::now();
  }
  void after_drain(
      std::uint32_t node, fleet::ReceiverCohort& cohort,
      const std::vector<fleet::RevealOutcome>& outcomes) override {
    const double s = since(start_);
    total_s_ += s;
    samples_us_.push_back(s * 1e6);
    if (inner_ != nullptr) inner_->after_drain(node, cohort, outcomes);
  }

  [[nodiscard]] double total_s() const noexcept { return total_s_; }
  [[nodiscard]] const std::vector<double>& samples_us() const noexcept {
    return samples_us_;
  }

 private:
  fleet::DrainParticipant* inner_;
  Clock::time_point start_{};
  double total_s_ = 0.0;
  std::vector<double> samples_us_;
};

// Layer measurements of one finished scenario: its run time, the drains
// the timer saw, and the counts FleetSim and its cohorts kept.
LayerPass scenario_layers(const fleet::FleetSim& sim,
                          const fleet::FleetReport& r, double run_s,
                          const DrainTimer& timer) {
  LayerPass lp;
  lp.run_s = run_s;
  lp.run_s_max = run_s;
  lp.drain_s = timer.total_s();
  lp.drains = timer.samples_us().size();
  lp.cohort_intervals = r.cohort_count * r.intervals;
  for (std::uint32_t v = 0; v < sim.topology().node_count; ++v) {
    const fleet::NodeTraffic& t = sim.node_traffic(v);
    lp.packets_in += t.packets_in;
    lp.forwarded += t.forwarded;
    lp.deduped += t.deduped;
    lp.shed += t.shed;
    const fleet::ReceiverCohort* cohort = sim.cohort_at(v);
    if (cohort == nullptr) continue;
    const fleet::CohortStats& st = cohort->stats();
    const std::uint64_t safe = st.announces_received - st.announces_unsafe;
    lp.safe_announces += safe;
    lp.member_offers += (cohort->members() - 1) * safe;
    lp.walks_skipped += st.walks_skipped;
    lp.reveals_drained += st.reveals_received;
  }
  return lp;
}

// Adds a fleet scenario's work: receiver-intervals, and announce copies
// sent (authentic + forged).
void add_fleet_work(RunResult& out, const fleet::FleetReport& r) {
  out.recv_intervals += static_cast<double>(r.total_members) * r.intervals;
  out.announces +=
      static_cast<double>(r.announces_sent + r.forged_announces_sent);
}

// ---- Workload: fleet-clean ----------------------------------------------

struct FleetSpec {
  fleet::ScenarioSpec spec;
  std::uint64_t stated_members = 0;  // the generator's own count
};

// Sizes cohorts so a scenario of `cohorts` relay nodes holds about
// `target` receivers.
void size_cohorts(FleetSpec& fs, std::uint64_t cohorts, std::uint64_t target) {
  fs.spec.members_per_cohort =
      static_cast<std::size_t>(std::max<std::uint64_t>(2, target / cohorts));
  fs.stated_members = cohorts * fs.spec.members_per_cohort;
}

// Shapes are fixed so every seed costs about the same; the seed picks
// each scenario's own seed (gossip wiring, per-member draws).
std::vector<FleetSpec> clean_specs(std::uint64_t seed, bool tiny) {
  Gen g(seed);
  // 16 scenarios of ~62k receivers: enough chunks that work stealing
  // keeps every worker busy, since the scenario fan-out is the only
  // parallelism (nested parallel_for runs inline). Each row of four
  // mixes all topologies so every worker's first chunks do too.
  struct Shape {
    fleet::TopologyKind kind;
    std::uint32_t a;  // tree depth, grid rows, gossip relays, flood receivers
    std::uint32_t b;  // tree fanout, grid cols, gossip fan-in
  };
  using K = fleet::TopologyKind;
  const Shape shapes[] = {
      {K::kTree, 3, 4},    {K::kGossip, 64, 2},  {K::kGrid, 6, 6},
      {K::kFlood, 32, 0},  {K::kGossip, 96, 3},  {K::kGrid, 8, 8},
      {K::kFlood, 64, 0},  {K::kTree, 2, 5},     {K::kGrid, 5, 10},
      {K::kFlood, 96, 0},  {K::kTree, 3, 3},     {K::kGossip, 128, 2},
      {K::kFlood, 128, 0}, {K::kTree, 2, 8},     {K::kGossip, 160, 3},
      {K::kGrid, 10, 10}};
  const std::uint64_t target = tiny ? 300 : 1000000 / std::size(shapes);
  std::vector<FleetSpec> out;
  for (const Shape& shape : shapes) {
    FleetSpec fs;
    fleet::ScenarioSpec& s = fs.spec;
    s.name = "clean" + std::to_string(out.size());
    s.seed = g.next();
    s.kind = shape.kind;
    s.buffers = 4;
    s.intervals = tiny ? 6 : 32;
    const std::uint32_t a = tiny ? 2 : shape.a;
    const std::uint32_t b = tiny ? 3 : shape.b;
    std::uint64_t cohorts = 0;
    switch (shape.kind) {
      case K::kTree: {
        s.depth = a;
        s.fanout = b;
        std::uint64_t level = 1;
        for (std::uint32_t d = 0; d < a; ++d) {
          level *= b;
          cohorts += level;
        }
        break;
      }
      case K::kGossip:
        s.relays = a;
        s.fanin = b;
        cohorts = s.relays;
        break;
      case K::kGrid:
        s.rows = a;
        s.cols = b;
        cohorts = std::uint64_t{a} * b - 1;
        break;
      case K::kFlood:
        s.receivers = a;
        cohorts = a;
        break;
    }
    size_cohorts(fs, cohorts, target);
    out.push_back(std::move(fs));
  }
  return out;
}

bool check_clean(const FleetSpec& fs, const fleet::FleetReport& r) {
  const std::string id = fs.spec.id();
  bool ok = r.forged_accepted == 0 && r.auth_rate >= 0.999 &&
            r.total_members >= fs.stated_members;
  if (!ok) {
    std::cerr << "perfbench: " << id << ": forged_accepted="
              << r.forged_accepted << " auth_rate=" << r.auth_rate
              << " members=" << r.total_members << "/" << fs.stated_members
              << '\n';
  }
  return ok;
}

// ---- Workload: fleet-flood ----------------------------------------------

std::vector<FleetSpec> flood_specs(std::uint64_t seed, bool tiny) {
  Gen g(seed ^ 0xf100dULL);
  // Fixed shapes, as in clean_specs. Twelve scenarios of ~6,000
  // receivers: three chunks per worker on a four-core host, so one slow
  // scenario does not set the pass time.
  const std::uint64_t target = tiny ? 200 : 6000;
  std::vector<FleetSpec> out;
  for (int i = 0; i < 12; ++i) {
    FleetSpec fs;
    fleet::ScenarioSpec& s = fs.spec;
    s.name = "flood" + std::to_string(i);
    s.seed = g.next();
    s.buffers = 2;
    // The learner needs ~20 intervals to approach its ESS, and ess_gap
    // is measured over the last half.
    s.intervals = 48;
    s.forged_fraction = 0.98;  // 49 forged copies per authentic announce
    s.relay_dedup = true;
    s.guard.budget_mbps = 1.0;
    s.strategy.adaptive.enabled = true;
    s.strategy.coop.enabled = true;
    std::uint64_t cohorts = 0;
    if (i % 2 == 0) {
      s.kind = fleet::TopologyKind::kGossip;
      s.relays = tiny ? 6 : 32;
      s.fanin = 2;
      cohorts = s.relays;
    } else {
      s.kind = fleet::TopologyKind::kGrid;
      s.rows = tiny ? 2 : 5;
      s.cols = tiny ? 3 : 7;
      cohorts = std::uint64_t{s.rows} * s.cols - 1;
    }
    size_cohorts(fs, cohorts, target);
    out.push_back(std::move(fs));
  }
  return out;
}

bool check_flood(const FleetSpec& fs,
                 const strategy::StrategyOutcome& o) {
  const std::string id = fs.spec.id();
  const fleet::FleetReport& r = o.report;
  const bool ok = r.forged_accepted == 0 &&
                  r.guard_peak_entries <= r.guard_capacity &&
                  o.ess_gap <= 0.2 && r.total_members >= fs.stated_members;
  if (!ok) {
    std::cerr << "perfbench: " << id << ": forged_accepted="
              << r.forged_accepted << " guard_peak=" << r.guard_peak_entries
              << "/" << r.guard_capacity << " ess_gap=" << o.ess_gap << '\n';
  }
  return ok;
}

// ---- Workload: receiver-flood -------------------------------------------

struct Grid {
  // Costliest rows first (a cell's cost grows as 1/(1-p)), so work
  // stealing does not end a pass on the most expensive cells.
  std::vector<double> ps{0.95, 0.9, 0.8, 0.7, 0.5};
  std::vector<std::size_t> ms{1, 2, 4, 8, 16};
  std::size_t trials = 0;
  std::size_t authentic = 32;  // MonteCarloConfig's default
  std::uint64_t seed = 0;
};

Grid receiver_grid(std::uint64_t seed, bool tiny) {
  Grid grid;
  grid.trials = tiny ? 40 : 256;
  grid.seed = Gen(seed ^ 0xe7e7ULL).next();
  return grid;
}

// Exact attack success of a uniform size-m reservoir over F forged and
// A authentic copies: no authentic copy survives, C(F,m) / C(F+A,m).
double reservoir_exact(std::size_t forged, std::size_t authentic,
                       std::size_t m) {
  double p = 1.0;
  for (std::size_t j = 0; j < m; ++j) {
    p *= static_cast<double>(forged - j) /
         static_cast<double>(forged + authentic - j);
  }
  return p;
}

// Two-sided exact binomial tail of observing `k` of `n` at rate `q`:
// 2 * min(P[X <= k], P[X >= k]), capped at 1.
double binomial_two_sided(std::size_t k, std::size_t n, double q) {
  const auto pmf = [n, q](std::size_t i) {
    if (q <= 0.0) return i == 0 ? 1.0 : 0.0;
    if (q >= 1.0) return i == n ? 1.0 : 0.0;
    const double dn = static_cast<double>(n);
    const double di = static_cast<double>(i);
    return std::exp(std::lgamma(dn + 1) - std::lgamma(di + 1) -
                    std::lgamma(dn - di + 1) + di * std::log(q) +
                    (dn - di) * std::log1p(-q));
  };
  double lower = 0.0;
  double upper = 0.0;
  for (std::size_t i = 0; i <= n; ++i) {
    if (i <= k) lower += pmf(i);
    if (i >= k) upper += pmf(i);
  }
  return std::min(1.0, 2.0 * std::min(lower, upper));
}

// The measured rate must lie within 4.5 binomial sigma of the exact
// reservoir value. At a few hundred trials the normal approximation
// misjudges cells whose rate is near 0, so the test uses the exact
// binomial tail at the same two-sided level, 2 * (1 - Phi(4.5)).
bool check_cell(const Grid& grid, const analysis::SweepPoint& s) {
  constexpr double kLevel = 6.795e-6;
  const std::size_t forged =
      sim::FloodingForger::copies_for_fraction(grid.authentic, s.p);
  const double exact = reservoir_exact(forged, grid.authentic, s.m);
  const double trials = static_cast<double>(s.result.trials);
  const auto successes = static_cast<std::size_t>(
      std::llround(s.result.measured_attack_success * trials));
  const double tail = binomial_two_sided(successes, s.result.trials, exact);
  const bool ok = s.result.trials == grid.trials && tail >= kLevel;
  if (!ok) {
    std::cerr << "perfbench: cell p=" << s.p << " m=" << s.m
              << " measured=" << s.result.measured_attack_success
              << " exact=" << exact << " tail=" << tail << '\n';
  }
  return ok;
}

// analysis::simulate_dap_round rebuilt from DapSender, DapReceiver and
// FloodingForger (interleaved timing, reservoir policy) with a span
// around each layer call. Draws from `rng` in the same order, so the
// outcome is the library's bit for bit.
bool traced_round(double p, std::size_t m, std::size_t authentic_copies,
                  common::Rng& rng, LayerPass& lp) {
  protocol::DapConfig cfg;
  cfg.buffers = m;
  cfg.policy = protocol::BufferPolicy::kReservoir;
  cfg.chain_length = 2;
  cfg.disclosure_delay = 1;
  cfg.schedule = sim::IntervalSchedule(0, sim::kSecond);
  const std::size_t forged =
      sim::FloodingForger::copies_for_fraction(authentic_copies, p);

  auto t = Clock::now();
  protocol::DapSender sender(cfg, rng.bytes(16));
  lp.sender_s += since(t);
  protocol::DapReceiver receiver(cfg, sender.chain().commitment(),
                                 rng.bytes(16), sim::LooseClock(0, 0),
                                 rng.fork(1));
  sim::FloodingForger forger(cfg.sender_id, cfg.mac_size, rng.fork(2));

  t = Clock::now();
  const wire::MacAnnounce authentic =
      sender.announce(1, common::bytes_of("crowdsensing-report"));
  lp.sender_s += since(t);
  std::vector<wire::MacAnnounce> flood;
  flood.reserve(authentic_copies + forged);
  flood.assign(authentic_copies, authentic);
  t = Clock::now();
  for (std::size_t i = 0; i < forged; ++i) flood.push_back(forger.forge(1));
  lp.forge_s += since(t);
  for (std::size_t i = flood.size(); i > 1; --i) {
    const auto j = static_cast<std::size_t>(rng.uniform(0, i - 1));
    std::swap(flood[i - 1], flood[j]);
  }

  const sim::SimTime mid_interval = sim::kSecond / 2;
  t = Clock::now();
  for (const auto& packet : flood) receiver.receive(packet, mid_interval);
  lp.rx_announce_s += since(t);
  lp.announces_ingested += flood.size();
  t = Clock::now();
  const wire::MessageReveal reveal = sender.reveal(1);
  lp.sender_s += since(t);
  t = Clock::now();
  const auto result = receiver.receive(reveal, sim::kSecond + mid_interval);
  lp.rx_reveal_s += since(t);
  return !result.has_value();
}

// analysis::attack_success_sweep rebuilt around traced_round: the same
// salted per-cell seeds, serially forked per-trial generators and
// parallel fan-out over cells.
std::vector<analysis::SweepPoint> traced_sweep(const Grid& grid,
                                               LayerPass& lp) {
  struct Cell {
    double p;
    std::size_t m;
    std::uint64_t seed;
  };
  std::vector<Cell> cells;
  std::uint64_t salt = 0;
  for (const double p : grid.ps) {
    for (const std::size_t m : grid.ms) {
      cells.push_back({p, m, grid.seed + (++salt) * 0x9e3779b97f4a7c15ULL});
    }
  }
  std::vector<LayerPass> per(cells.size());
  std::vector<analysis::SweepPoint> out =
      common::parallel_map<analysis::SweepPoint>(
          cells.size(), [&](std::size_t c) {
            const auto cell_start = Clock::now();
            const Cell& cell = cells[c];
            common::Rng master(cell.seed);
            std::vector<common::Rng> trial_rngs;
            trial_rngs.reserve(grid.trials);
            for (std::size_t i = 0; i < grid.trials; ++i) {
              trial_rngs.push_back(master.fork(i));
            }
            common::RateEstimator estimator;
            for (std::size_t i = 0; i < grid.trials; ++i) {
              estimator.add(traced_round(cell.p, cell.m, grid.authentic,
                                         trial_rngs[i], per[c]));
            }
            analysis::SweepPoint point{cell.p, cell.m, {}};
            point.result.measured_attack_success = estimator.rate();
            const auto [lo, hi] = estimator.wilson95();
            point.result.wilson_lo = lo;
            point.result.wilson_hi = hi;
            point.result.analytic =
                std::pow(cell.p, static_cast<double>(cell.m));
            point.result.trials = estimator.trials();
            per[c].cells_s = since(cell_start);
            return point;
          });
  for (const LayerPass& cell : per) lp.add(cell);
  return out;
}

// ---- Workloads ----------------------------------------------------------

// Set-up shared by every workload: thread count and telemetry switches,
// then a pool warm-up so worker start-up is not billed to the first pass.
void configure(const Options& opt) {
  common::set_default_threads(opt.threads);
  obs::set_timing_enabled(opt.timers);
  if (opt.workload == "fleet-clean" && opt.recorder) {
    // The flight recorder as fleet_scale runs it.
    obs::Tracer::global().set_capacity(std::size_t{1} << 17);
    obs::Tracer::global().enable(true);
  }
  common::parallel_for(opt.threads, [](std::size_t) {});
}

RunResult run_fleet_clean(const Options& opt, double* setup_s) {
  RunResult out;
  const std::vector<FleetSpec> specs = clean_specs(opt.seed, opt.tiny);
  // FleetSim is single-shot, so every pass builds fresh simulators; the
  // first set is built here, as part of set-up.
  std::vector<std::unique_ptr<fleet::FleetSim>> sims;
  std::vector<std::unique_ptr<DrainTimer>> timers;
  const auto build = [&] {
    for (const FleetSpec& fs : specs) {
      sims.push_back(std::make_unique<fleet::FleetSim>(fs.spec));
      if (opt.traced) {
        timers.push_back(std::make_unique<DrainTimer>(nullptr));
        sims.back()->set_drain_participant(timers.back().get());
      }
    }
  };
  build();
  *setup_s = 1e-9 * static_cast<double>(monotonic_ns() - opt.t0_ns);
  if (opt.setup_only) return out;

  run_passes(opt, out, [&] {
    if (sims.empty()) build();
    std::vector<double> run_s(specs.size(), 0.0);
    const auto start = Clock::now();
    const std::vector<fleet::FleetReport> reports =
        common::parallel_map<fleet::FleetReport>(
            specs.size(), [&](std::size_t i) {
              const auto t = Clock::now();
              fleet::FleetReport r = sims[i]->run();
              run_s[i] = since(t);
              return r;
            });
    out.pass_wall.push_back(since(start));

    std::vector<Op> ops;
    LayerPass lp;
    lp.wall = out.pass_wall.back();
    out.recv_intervals = 0.0;
    out.announces = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const fleet::FleetReport& r = reports[i];
      ops.push_back({digest_of(r), check_clean(specs[i], r)});
      add_fleet_work(out, r);
      if (opt.traced) {
        lp.add(scenario_layers(*sims[i], r, run_s[i], *timers[i]));
        const std::vector<double>& us = timers[i]->samples_us();
        out.drain_us.insert(out.drain_us.end(), us.begin(), us.end());
      }
    }
    if (opt.traced) out.layers.push_back(lp);
    sims.clear();
    timers.clear();
    return ops;
  });
  return out;
}

RunResult run_fleet_flood(const Options& opt, double* setup_s) {
  RunResult out;
  const std::vector<FleetSpec> specs = flood_specs(opt.seed, opt.tiny);
  for (const FleetSpec& fs : specs) fs.spec.validate();
  *setup_s = 1e-9 * static_cast<double>(monotonic_ns() - opt.t0_ns);
  if (opt.setup_only) return out;

  run_passes(opt, out, [&] {
    std::vector<LayerPass> per(specs.size());
    std::vector<std::vector<double>> drain_us(specs.size());
    const auto start = Clock::now();
    const std::vector<strategy::StrategyOutcome> outcomes =
        common::parallel_map<strategy::StrategyOutcome>(
            specs.size(), [&](std::size_t i) {
              const fleet::ScenarioSpec& spec = specs[i].spec;
              if (!opt.traced) return strategy::run_scenario(spec);
              // strategy::run_scenario's composition, with the drain
              // hook taken by a timer that forwards to the coordinator.
              spec.validate();
              fleet::FleetSim sim(spec);
              strategy::AdaptiveFloodAttacker attacker(spec, sim);
              strategy::CoopCoordinator coop(spec);
              DrainTimer timer(&coop);
              sim.set_drain_participant(&timer);
              strategy::StrategyOutcome o;
              const auto t = Clock::now();
              o.report = sim.run();
              const double run_s = since(t);
              attacker.finalize();
              o.attacker_share = attacker.empirical_share();
              o.oracle_share = strategy::oracle_attack_share(spec);
              o.ess_gap = std::fabs(o.attacker_share - o.oracle_share);
              o.attacks_launched = attacker.attacks_launched();
              for (std::uint32_t v = 0; v < sim.topology().node_count; ++v) {
                const fleet::ReceiverCohort* cohort = sim.cohort_at(v);
                if (cohort == nullptr) continue;
                o.coop_walks_skipped += cohort->stats().walks_skipped;
                o.coop_hint_audits += cohort->stats().hint_audits;
                o.coop_poisoned_rejected += cohort->stats().poisoned_hints;
              }
              o.coop_verdicts_shared = coop.verdicts_shared();
              per[i] = scenario_layers(sim, o.report, run_s, timer);
              per[i].attacks = o.attacks_launched;
              drain_us[i] = timer.samples_us();
              return o;
            });
    out.pass_wall.push_back(since(start));

    std::vector<Op> ops;
    LayerPass lp;
    lp.wall = out.pass_wall.back();
    out.recv_intervals = 0.0;
    out.announces = 0.0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
      ops.push_back(
          {digest_of(outcomes[i]), check_flood(specs[i], outcomes[i])});
      add_fleet_work(out, outcomes[i].report);
      if (opt.traced) {
        lp.add(per[i]);
        out.drain_us.insert(out.drain_us.end(), drain_us[i].begin(),
                            drain_us[i].end());
      }
    }
    if (opt.traced) out.layers.push_back(lp);
    return ops;
  });
  return out;
}

RunResult run_receiver_flood(const Options& opt, double* setup_s) {
  RunResult out;
  const Grid grid = receiver_grid(opt.seed, opt.tiny);
  *setup_s = 1e-9 * static_cast<double>(monotonic_ns() - opt.t0_ns);
  if (opt.setup_only) return out;

  double copies = 0.0;
  for (const double p : grid.ps) {
    copies += static_cast<double>(
        grid.authentic +
        sim::FloodingForger::copies_for_fraction(grid.authentic, p));
  }
  copies *= static_cast<double>(grid.ms.size() * grid.trials);
  out.announces = copies;
  // One trial is one receiver through one interval.
  out.recv_intervals =
      static_cast<double>(grid.ps.size() * grid.ms.size() * grid.trials);

  run_passes(opt, out, [&] {
    LayerPass lp;
    const auto start = Clock::now();
    const std::vector<analysis::SweepPoint> points =
        opt.traced ? traced_sweep(grid, lp)
                   : analysis::attack_success_sweep(grid.ps, grid.ms,
                                                    grid.trials, grid.seed);
    out.pass_wall.push_back(since(start));
    lp.wall = out.pass_wall.back();
    std::vector<Op> ops;
    for (const analysis::SweepPoint& s : points) {
      ops.push_back({digest_of(s), check_cell(grid, s)});
    }
    if (opt.traced) out.layers.push_back(lp);
    return ops;
  });
  return out;
}

// ---- Output -------------------------------------------------------------

class Json {
 public:
  void num(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    field(key) << buf;
  }
  void str(const std::string& key, const std::string& v) {
    field(key) << '"' << v << '"';
  }
  void nums(const std::string& key, const std::vector<double>& v) {
    std::ostream& os = field(key);
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      char buf[40];
      std::snprintf(buf, sizeof buf, "%.17g", v[i]);
      os << (i ? "," : "") << buf;
    }
    os << ']';
  }
  void strs(const std::string& key, const std::vector<std::string>& v) {
    std::ostream& os = field(key);
    os << '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      os << (i ? "," : "") << '"' << v[i] << '"';
    }
    os << ']';
  }
  void raw(const std::string& key, const std::string& json) {
    field(key) << json;
  }
  [[nodiscard]] std::string str() const { return "{" + out_.str() + "}"; }

 private:
  std::ostream& field(const std::string& key) {
    if (!first_) out_ << ',';
    first_ = false;
    out_ << '"' << key << "\":";
    return out_;
  }
  std::ostringstream out_;
  bool first_ = true;
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::uint64_t counter(const char* name) {
  const std::uint64_t* v = obs::Registry::global().find_counter(name);
  return v == nullptr ? 0 : *v;
}

// Per-layer values of a traced run: times are medians over passes,
// counts are per pass (identical in every pass).
std::string layer_json(const RunResult& r, std::size_t threads) {
  const std::vector<LayerPass>& L = r.layers;
  const LayerPass& first = L.front();
  auto med = [&L](auto fn) {
    std::vector<double> v;
    for (const LayerPass& lp : L) v.push_back(fn(lp));
    return median(v);
  };
  const double passes = static_cast<double>(L.size());
  const auto per_pass = [passes](const char* name) {
    return static_cast<double>(counter(name)) / passes;
  };
  const double drain_s = med([](const LayerPass& lp) { return lp.drain_s; });
  const double dispatch_s =
      med([](const LayerPass& lp) { return lp.run_s - lp.drain_s; });

  Json j;
  j.num("fleet.run_s", med([](const LayerPass& lp) { return lp.run_s; }));
  j.num("fleet.run_s_max",
        med([](const LayerPass& lp) { return lp.run_s_max; }));
  j.num("fleet.cohort.drain_s", drain_s);
  j.num("fleet.cohort.drain_us_p50", quantile(r.drain_us, 0.50));
  j.num("fleet.cohort.drain_us_p99", quantile(r.drain_us, 0.99));
  j.num("fleet.cohort.drain_samples", static_cast<double>(r.drain_us.size()));
  j.num("fleet.cohort.drains", static_cast<double>(first.drains));
  j.num("fleet.cohort.member_offers",
        static_cast<double>(first.member_offers));
  j.num("fleet.cohort.ns_per_member_offer",
        1e9 * ratio(drain_s, static_cast<double>(first.member_offers)));
  j.num("fleet.cohort.offers_per_round",
        ratio(static_cast<double>(first.safe_announces),
              static_cast<double>(first.cohort_intervals)));
  j.num("fleet.dispatch_s", dispatch_s);
  j.num("fleet.relay.packets_in", static_cast<double>(first.packets_in));
  j.num("fleet.relay.forwarded", static_cast<double>(first.forwarded));
  j.num("fleet.relay.deduped", static_cast<double>(first.deduped));
  j.num("fleet.relay.shed", static_cast<double>(first.shed));
  j.num("fleet.dispatch_ns_per_packet",
        1e9 * ratio(dispatch_s, static_cast<double>(first.packets_in)));
  j.num("strategy.attacks_launched", static_cast<double>(first.attacks));
  j.num("strategy.coop.walks_skipped",
        static_cast<double>(first.walks_skipped));
  j.num("strategy.coop.skip_frac",
        ratio(static_cast<double>(first.walks_skipped),
              static_cast<double>(first.reveals_drained)));
  // Busy share of the workers over the timed phase: fleet scenarios or
  // receiver-flood grid cells, whichever the workload runs.
  j.num("common.parallel.efficiency", med([threads](const LayerPass& lp) {
          return ratio(lp.run_s + lp.cells_s,
                       static_cast<double>(threads) * lp.wall);
        }));
  const double rx_announce_s =
      med([](const LayerPass& lp) { return lp.rx_announce_s; });
  j.num("dap.rx_announce_s", rx_announce_s);
  j.num("dap.rx_announce_ns",
        1e9 * ratio(rx_announce_s,
                    static_cast<double>(first.announces_ingested)));
  j.num("dap.rx_reveal_s",
        med([](const LayerPass& lp) { return lp.rx_reveal_s; }));
  j.num("dap.sender_s", med([](const LayerPass& lp) { return lp.sender_s; }));
  j.num("sim.forge_s", med([](const LayerPass& lp) { return lp.forge_s; }));
  j.num("analysis.round_other_s", med([](const LayerPass& lp) {
          if (lp.cells_s == 0.0) return 0.0;
          return lp.cells_s - lp.sender_s - lp.forge_s - lp.rx_announce_s -
                 lp.rx_reveal_s;
        }));
  j.num("crypto.hmac_calls", per_pass("crypto.hmac_calls"));
  j.num("crypto.chain_walk_steps", per_pass("crypto.chain_walk_steps"));
  j.num("crypto.hmac_per_announce",
        ratio(per_pass("crypto.hmac_calls"),
              per_pass("dap.announces_received")));
  j.num("crypto.batch.messages_per_call",
        ratio(per_pass("crypto.batch.messages"),
              per_pass("crypto.batch.calls")));
  j.num("dap.records_stored_frac",
        ratio(per_pass("dap.records_stored"),
              per_pass("dap.records_offered")));
  return j.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB -> MiB
}

std::size_t affinity_threads() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return common::hardware_threads();
}

Options parse(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") {
      opt.workload = value();
    } else if (a == "--seed") {
      opt.seed = std::stoull(value());
    } else if (a == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (a == "--t0-ns") {
      opt.t0_ns = std::stoll(value());
    } else if (a == "--expect") {
      std::stringstream list(value());
      for (std::string d; std::getline(list, d, ',');) opt.expect.push_back(d);
    } else if (a == "--traced") {
      opt.traced = true;
    } else if (a == "--no-recorder") {
      opt.recorder = false;
    } else if (a == "--no-timers") {
      opt.timers = false;
    } else if (a == "--tiny") {
      opt.tiny = true;
    } else if (a == "--setup-only") {
      opt.setup_only = true;
    } else {
      throw std::invalid_argument("unknown argument " + a);
    }
  }
  opt.threads = affinity_threads();
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const std::int64_t main_ns = monotonic_ns();
  try {
    Options opt = parse(argc, argv);
    if (opt.t0_ns == 0) opt.t0_ns = main_ns;
    configure(opt);

    double setup_s = 0.0;
    RunResult r;
    if (opt.workload == "fleet-clean") {
      r = run_fleet_clean(opt, &setup_s);
    } else if (opt.workload == "fleet-flood") {
      r = run_fleet_flood(opt, &setup_s);
    } else if (opt.workload == "receiver-flood") {
      r = run_receiver_flood(opt, &setup_s);
    } else {
      throw std::invalid_argument("unknown workload '" + opt.workload + "'");
    }

    Json j;
    j.str("workload", opt.workload);
    j.num("threads", static_cast<double>(opt.threads));
    j.num("setup_s", setup_s);
    if (!opt.setup_only) {
      j.num("passes", static_cast<double>(r.pass_wall.size()));
      j.nums("pass_wall_s", r.pass_wall);
      j.num("attempted", static_cast<double>(r.attempted));
      j.num("failed", static_cast<double>(r.failed));
      j.num("recv_intervals", r.recv_intervals);
      j.num("announces", r.announces);
      j.strs("digests", r.digests);
      j.num("peak_rss_mb", peak_rss_mb());
      if (opt.traced) j.raw("layers", layer_json(r, opt.threads));
    }
    std::cout << j.str() << std::endl;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << '\n';
    return 2;
  }
  return 0;
}
