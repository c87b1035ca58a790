#pragma once
// Declarative fleet scenarios.
//
// A ScenarioSpec captures everything a fleet run needs — topology shape,
// cohort sizing, traffic length, hop fault model, adversary placement —
// as one value that round-trips through a small JSON dialect (objects,
// arrays, strings, numbers, booleans; no nulls, no comments). Benches
// and tests build specs in code; parse() is called by tests and the
// fuzz_fleet_scenario harness. It rejects unknown keys, so a typo never
// silently runs the default scenario, and integers wider than their
// field, so a value never wraps.

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/guard.h"
#include "fleet/topology.h"
#include "sim/time.h"

namespace dap::fleet {

/// Per-edge link model applied to every relay hop (tests can override
/// individual hops through FleetSim's channel/latency factories).
struct HopSpec {
  /// Independent frame-loss probability.
  double loss = 0.0;
  /// Probability each delivered frame spawns one extra copy.
  double duplicate_probability = 0.0;
  /// Fixed one-way hop latency in microseconds.
  sim::SimTime latency_us = sim::kMillisecond;
  /// Uniform extra delay in [0, jitter_us] on top of latency_us.
  sim::SimTime jitter_us = 0;
};

/// Relay crash/restart: the node's guard state and in-flight forwards
/// are lost, the node is deaf for `downtime_intervals`, then it rejoins.
/// An optional positive reboot skew models the oscillator coming back
/// wrong (an RTC that lost time while powered down): the node's cohort
/// reads its clock `reboot_skew_us` AHEAD of its believed bound until a
/// resync handshake recalibrates it — forward-only, so TESLA's
/// no-forgery argument is preserved (see sim/faults.h ClockStepFault).
struct RelayCrashSpec {
  std::uint32_t node = 1;
  std::uint32_t at_interval = 1;
  std::uint32_t downtime_intervals = 1;
  sim::SimTime reboot_skew_us = 0;
};

/// Directed link outage over whole intervals: the (from -> to) edge
/// drops every frame in [start of from_interval, start of until_interval)
/// and heals at until_interval.
struct LinkPartitionSpec {
  std::uint32_t from = 0;
  std::uint32_t to = 1;
  std::uint32_t from_interval = 1;
  std::uint32_t until_interval = 2;
};

/// Per-node bandwidth-budget override (a degraded relay: same guard,
/// tighter token bucket).
struct DegradedRelaySpec {
  std::uint32_t node = 1;
  double budget_mbps = 1.0;
};

/// Schedule-driven relay fault plan; empty = no fault injection.
struct FaultSpec {
  std::vector<RelayCrashSpec> relay_crashes;
  std::vector<LinkPartitionSpec> partitions;
  std::vector<DegradedRelaySpec> degraded;

  [[nodiscard]] bool empty() const noexcept {
    return relay_crashes.empty() && partitions.empty() && degraded.empty();
  }
  /// First interval index at which every scheduled fault has cleared
  /// (crashes rejoined, partitions healed) — reconvergence clocks start
  /// here. 0 when no fault is scheduled. Degraded budgets never clear
  /// and do not extend the horizon.
  [[nodiscard]] std::uint32_t last_clear_interval() const noexcept;
};

/// Online adaptive flooding adversary (driven by src/strategy): re-tunes
/// its attack share along discretized replicator dynamics from observed
/// per-interval authentication outcomes. The offline game solver with
/// SuccessModel::kReservoir is the ESS oracle it should converge to.
struct AdaptiveAdversarySpec {
  bool enabled = false;
  /// Step size eta of the replicator update y += eta*y*(1-y)*(S*Ra-k1*p*y).
  double learning_rate = 0.25;
  /// Initial attack share y(0).
  double initial_share = 0.5;
  /// Attack reward Ra and cost coefficient k1 of the attacker's payoff
  /// (paper §V notation; must satisfy reward > cost > 0).
  double reward = 200.0;
  double cost = 180.0;
};

/// Sybil cohort: `cohort` coordinated identities share one forged key
/// chain and stagger their reveals across relay hops to stress the
/// ingress guards (distinct payload bytes defeat relay dedup).
struct SybilSpec {
  bool enabled = false;
  std::uint32_t cohort = 3;
  sim::SimTime reveal_stagger_us = sim::kMillisecond;
};

/// Cooperative verification: already-drained cohorts share *invalid*
/// reveal verdicts so followers skip redundant chain walks. Valid
/// verdicts are never trusted remotely, and a deterministic audit
/// fraction of skips is re-walked locally, so poisoning can never
/// admit a forged key — at worst it is a liveness attack the audits
/// catch (poisoned = true exercises exactly that).
struct CoopSpec {
  bool enabled = false;
  double audit_fraction = 0.25;
  bool poisoned = false;
};

/// Strategy-layer extensions; empty/disabled = plain FleetSim run.
struct StrategySpec {
  AdaptiveAdversarySpec adaptive;
  SybilSpec sybil;
  CoopSpec coop;

  [[nodiscard]] bool engaged() const noexcept {
    return adaptive.enabled || sybil.enabled || coop.enabled;
  }
};

struct ScenarioSpec {
  std::string name = "fleet";
  std::uint64_t seed = 1;

  TopologyKind kind = TopologyKind::kFlood;
  // Shape parameters; which ones apply depends on `kind`.
  std::uint32_t depth = 1;       // tree
  std::uint32_t fanout = 2;      // tree
  std::uint32_t rows = 1;        // grid
  std::uint32_t cols = 2;        // grid
  std::uint32_t relays = 1;      // gossip
  std::uint32_t fanin = 1;       // gossip
  std::uint32_t receivers = 1;   // flood

  /// Receivers represented per cohort (sentinel included).
  std::size_t members_per_cohort = 1;
  /// DAP reservoir size m at every member.
  std::size_t buffers = 4;
  /// Place cohorts only at leaf nodes (default: every non-root node).
  bool cohorts_at_leaves_only = false;

  std::uint32_t intervals = 8;
  sim::SimTime interval_us = 200 * sim::kMillisecond;

  /// Target forged fraction p among announce copies at a cohort fed by
  /// one authentic copy (0 disables the flooding adversary).
  double forged_fraction = 0.0;
  /// Nodes whose egress medium the adversary injects into; each must
  /// have out-edges. Empty + forged_fraction > 0 means the root.
  std::vector<std::uint32_t> attackers;

  /// Drop packets a relay has already forwarded (hash of the encoded
  /// packet). Keeps multi-parent topologies from amplifying traffic.
  /// Dedup state lives in the fixed-capacity IngressGuard tag store, so
  /// relay memory is O(guard.capacity) regardless of flood intensity.
  bool relay_dedup = true;

  /// Per-relay ingress guard: tag-store capacity plus the optional
  /// bandwidth budget (GuardConfig::dedup is driven by relay_dedup).
  GuardConfig guard{};

  /// Relay fault plan (crash/restart, healing partitions, degraded
  /// budgets). Non-empty plans also enable sentinel resync recovery.
  FaultSpec faults{};

  /// Adaptive-adversary / sybil / cooperative-verification extensions,
  /// interpreted by strategy::run_scenario (a plain FleetSim::run
  /// ignores them). Emitted to JSON only when engaged.
  StrategySpec strategy{};

  HopSpec hop{};

  /// Builds the relay graph this spec describes (validated).
  [[nodiscard]] Topology build_topology() const;

  /// Total receivers the scenario simulates (cohort count x members).
  [[nodiscard]] std::uint64_t total_members() const;

  /// Compact identifier for CSV rows and the bench metrics footer, e.g.
  /// "tree_d3f4_m1200_p0.5".
  [[nodiscard]] std::string id() const;

  /// Serializes to the JSON dialect parse() accepts (round-trips: each
  /// double is written with the fewest digits that read back exactly).
  [[nodiscard]] std::string to_json() const;

  /// Parses a spec; throws std::invalid_argument on malformed JSON,
  /// unknown keys, or values that fail validation (e.g. zero members).
  [[nodiscard]] static ScenarioSpec parse(const std::string& json);

  /// Throws std::invalid_argument when fields are out of range.
  void validate() const;
};

}  // namespace dap::fleet
