// Tests for the fleet subsystem: relay topologies, scenario JSON,
// receiver cohorts (statistical members + sentinel), and the end-to-end
// FleetSim — including the headline guarantees that a fleet run is
// bitwise identical at any thread count and that forged messages never
// authenticate. The multi-hop fault-composition cases (duplicates
// multiply across hops, blackouts compose with clean hops) live here
// too. The TSan CI job runs this binary via `ctest -L test_fleet`.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "dap/dap.h"
#include "fleet/cohort.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"
#include "fleet/topology.h"
#include "obs/registry.h"
#include "obs/snapshot.h"
#include "obs/tracer.h"
#include "sim/adversary.h"
#include "sim/channel.h"
#include "sim/faults.h"
#include "sim/frame.h"
#include "sim/time.h"
#include "tesla/verdict.h"
#include "wire/packet.h"

namespace dap {
namespace {

// Pins the process default thread count for one test body, restoring
// the unpinned default afterwards.
class ThreadGuard {
 public:
  explicit ThreadGuard(std::size_t n) { common::set_default_threads(n); }
  ~ThreadGuard() { common::set_default_threads(0); }
};

// ------------------------------------------------------------- topologies

TEST(Topology, TreeShape) {
  const fleet::Topology topo = fleet::tree_topology(3, 2);
  EXPECT_EQ(topo.node_count, 15u);  // 1 + 2 + 4 + 8
  EXPECT_EQ(topo.depth(), 3u);
  EXPECT_EQ(topo.leaves().size(), 8u);
  EXPECT_NO_THROW(topo.validate());
  for (const auto& [from, to] : topo.edges) {
    EXPECT_LT(from, to);
  }
  const auto depths = topo.depths();
  EXPECT_EQ(depths[0], 0u);
  EXPECT_EQ(depths[1], 1u);
  EXPECT_EQ(depths[14], 3u);
}

TEST(Topology, ChainIsDegenerateTree) {
  const fleet::Topology topo = fleet::tree_topology(2, 1);
  EXPECT_EQ(topo.node_count, 3u);
  ASSERT_EQ(topo.edges.size(), 2u);
  EXPECT_EQ(topo.edges[0], (std::pair<std::uint32_t, std::uint32_t>{0, 1}));
  EXPECT_EQ(topo.edges[1], (std::pair<std::uint32_t, std::uint32_t>{1, 2}));
}

TEST(Topology, GridShape) {
  const fleet::Topology topo = fleet::grid_topology(3, 4);
  EXPECT_EQ(topo.node_count, 12u);
  EXPECT_EQ(topo.depth(), 5u);  // Manhattan distance to the far corner
  EXPECT_NO_THROW(topo.validate());
  // Exactly one pure sink: the bottom-right corner.
  const auto leaves = topo.leaves();
  ASSERT_EQ(leaves.size(), 1u);
  EXPECT_EQ(leaves[0], 11u);
}

TEST(Topology, GossipIsSeedDeterministic) {
  const fleet::Topology a = fleet::gossip_topology(32, 2, 7);
  const fleet::Topology b = fleet::gossip_topology(32, 2, 7);
  const fleet::Topology c = fleet::gossip_topology(32, 2, 8);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_NE(a.edges, c.edges);
  EXPECT_NO_THROW(a.validate());
  // Node i has min(fanin, i) parents.
  std::vector<std::size_t> parents(a.node_count, 0);
  for (const auto& [from, to] : a.edges) {
    (void)from;
    ++parents[to];
  }
  EXPECT_EQ(parents[1], 1u);
  for (std::uint32_t v = 2; v < a.node_count; ++v) {
    EXPECT_EQ(parents[v], 2u) << "node " << v;
  }
}

TEST(Topology, FloodShape) {
  const fleet::Topology topo = fleet::flood_topology(9);
  EXPECT_EQ(topo.node_count, 10u);
  EXPECT_EQ(topo.depth(), 1u);
  EXPECT_EQ(topo.leaves().size(), 9u);
  EXPECT_NO_THROW(topo.validate());
}

TEST(Topology, ValidateRejectsMalformedGraphs) {
  fleet::Topology backward;
  backward.node_count = 3;
  backward.edges = {{0, 1}, {2, 1}};  // violates from < to
  EXPECT_THROW(backward.validate(), std::invalid_argument);

  fleet::Topology out_of_range;
  out_of_range.node_count = 2;
  out_of_range.edges = {{0, 1}, {1, 5}};
  EXPECT_THROW(out_of_range.validate(), std::invalid_argument);

  fleet::Topology duplicate;
  duplicate.node_count = 2;
  duplicate.edges = {{0, 1}, {0, 1}};
  EXPECT_THROW(duplicate.validate(), std::invalid_argument);

  fleet::Topology unreachable;
  unreachable.node_count = 3;
  unreachable.edges = {{0, 1}};  // node 2 never receives anything
  EXPECT_THROW(unreachable.validate(), std::invalid_argument);
}

TEST(Topology, KindNamesRoundTrip) {
  for (const fleet::TopologyKind kind :
       {fleet::TopologyKind::kTree, fleet::TopologyKind::kGrid,
        fleet::TopologyKind::kGossip, fleet::TopologyKind::kFlood}) {
    EXPECT_EQ(fleet::topology_kind_from_name(fleet::topology_kind_name(kind)),
              kind);
  }
  EXPECT_THROW((void)fleet::topology_kind_from_name("mesh"),
               std::invalid_argument);
}

// ------------------------------------------------------------- scenarios

fleet::ScenarioSpec sample_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "roundtrip";
  spec.seed = 99;
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 3;
  spec.members_per_cohort = 25;
  spec.buffers = 6;
  spec.intervals = 5;
  spec.interval_us = 100 * sim::kMillisecond;
  spec.forged_fraction = 0.5;
  spec.attackers = {0, 1};
  spec.relay_dedup = false;
  spec.hop.loss = 0.125;
  spec.hop.duplicate_probability = 0.25;
  spec.hop.latency_us = 2 * sim::kMillisecond;
  spec.hop.jitter_us = 500;
  return spec;
}

TEST(Scenario, JsonRoundTrips) {
  const fleet::ScenarioSpec spec = sample_spec();
  const fleet::ScenarioSpec parsed = fleet::ScenarioSpec::parse(spec.to_json());
  // Serialization is canonical, so round-trip equality of the JSON form
  // implies field equality.
  EXPECT_EQ(parsed.to_json(), spec.to_json());
  EXPECT_EQ(parsed.name, "roundtrip");
  EXPECT_EQ(parsed.kind, fleet::TopologyKind::kTree);
  EXPECT_EQ(parsed.depth, 2u);
  EXPECT_EQ(parsed.fanout, 3u);
  EXPECT_EQ(parsed.members_per_cohort, 25u);
  EXPECT_EQ(parsed.attackers, (std::vector<std::uint32_t>{0, 1}));
  EXPECT_FALSE(parsed.relay_dedup);
  EXPECT_DOUBLE_EQ(parsed.hop.duplicate_probability, 0.25);
}

TEST(Scenario, ParseRejectsBadInput) {
  // Malformed documents.
  EXPECT_THROW(fleet::ScenarioSpec::parse("{"), std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse("not json"), std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}} trailing"),
               std::invalid_argument);
  // Unknown keys never silently run the default scenario.
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, \"typo\": 1}"),
               std::invalid_argument);
  // Shape keys from the wrong kind are unknown too.
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\", \"depth\": 2}}"),
               std::invalid_argument);
  // Missing topology, bad kinds, bad values.
  EXPECT_THROW(fleet::ScenarioSpec::parse("{\"seed\": 1}"),
               std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"mesh\"}}"),
               std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, "
                   "\"members_per_cohort\": 0}"),
               std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, "
                   "\"forged_fraction\": 1.5}"),
               std::invalid_argument);
}

TEST(Scenario, ValidateRejectsSinkAttacker) {
  fleet::ScenarioSpec spec;
  spec.kind = fleet::TopologyKind::kFlood;
  spec.receivers = 4;
  spec.attackers = {3};  // a leaf: no egress medium to inject into
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec.attackers = {0};
  EXPECT_NO_THROW(spec.validate());
}

TEST(Scenario, IdAndTotals) {
  const fleet::ScenarioSpec spec = sample_spec();
  EXPECT_EQ(spec.id(), "tree_d2f3_m25_p0.5");
  // Tree with depth 2, fanout 3: 13 nodes (12 non-root cohorts by
  // default), 9 of them leaves.
  const fleet::Topology topo = spec.build_topology();
  EXPECT_EQ(topo.node_count, 13u);
  EXPECT_EQ(topo.leaves().size(), 9u);
}

TEST(Scenario, GuardAndFaultsRoundTripWithChaosId) {
  fleet::ScenarioSpec spec = sample_spec();
  spec.guard.capacity = 256;
  spec.guard.budget_mbps = 2.5;
  spec.guard.burst_bits = 4096.0;
  spec.faults.relay_crashes.push_back({1, 2, 1, 50 * sim::kMillisecond});
  spec.faults.partitions.push_back({0, 1, 2, 3});
  spec.faults.degraded.push_back({2, 0.5});
  const fleet::ScenarioSpec parsed =
      fleet::ScenarioSpec::parse(spec.to_json());
  EXPECT_EQ(parsed.to_json(), spec.to_json());
  EXPECT_EQ(parsed.guard.capacity, 256u);
  EXPECT_DOUBLE_EQ(parsed.guard.budget_mbps, 2.5);
  ASSERT_EQ(parsed.faults.relay_crashes.size(), 1u);
  EXPECT_EQ(parsed.faults.relay_crashes[0].node, 1u);
  EXPECT_EQ(parsed.faults.relay_crashes[0].reboot_skew_us,
            50 * sim::kMillisecond);
  ASSERT_EQ(parsed.faults.partitions.size(), 1u);
  EXPECT_EQ(parsed.faults.partitions[0].until_interval, 3u);
  ASSERT_EQ(parsed.faults.degraded.size(), 1u);
  EXPECT_DOUBLE_EQ(parsed.faults.degraded[0].budget_mbps, 0.5);
  // Fault plans mark the scenario id so baselines never mix chaos and
  // clean runs under one key.
  EXPECT_EQ(spec.id(), "tree_d2f3_m25_p0.5_chaos");
  // A faultless spec emits no faults block at all (canonical form).
  EXPECT_EQ(sample_spec().to_json().find("\"faults\""), std::string::npos);
  // Crashes rejoin at 3, partition heals at 3 -> horizon is interval 3.
  EXPECT_EQ(spec.faults.last_clear_interval(), 3u);
}

TEST(Scenario, ValidateRejectsBadGuardAndFaults) {
  const auto with = [](auto mutate) {
    fleet::ScenarioSpec spec;
    spec.kind = fleet::TopologyKind::kTree;
    spec.depth = 2;
    spec.fanout = 2;
    mutate(spec);
    return spec;
  };
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.guard.capacity = 48;  // not a power of two
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.guard.budget_mbps = -1.0;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.faults.relay_crashes.push_back({0, 1, 1, 0});  // root
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.faults.relay_crashes.push_back({1, 0, 1, 0});  // at 0
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 // (1, 2) is not an edge of the depth-2 fanout-2 tree.
                 s.faults.partitions.push_back({1, 2, 1, 2});
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 // until must exceed from.
                 s.faults.partitions.push_back({0, 1, 2, 2});
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([](fleet::ScenarioSpec& s) {
                 s.faults.degraded.push_back({1, 0.0});
               }).validate(),
               std::invalid_argument);
  // NaN fails every range check (it compares false against any bound).
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(with([nan](fleet::ScenarioSpec& s) {
                 s.forged_fraction = nan;
               }).validate(),
               std::invalid_argument);
  EXPECT_THROW(with([nan](fleet::ScenarioSpec& s) { s.hop.loss = nan; })
                   .validate(),
               std::invalid_argument);
  EXPECT_THROW(with([nan](fleet::ScenarioSpec& s) {
                 s.hop.duplicate_probability = nan;
               }).validate(),
               std::invalid_argument);
  EXPECT_NO_THROW(with([](fleet::ScenarioSpec& s) {
                    s.faults.relay_crashes.push_back({1, 1, 1, 0});
                    s.faults.partitions.push_back({0, 1, 1, 2});
                    s.faults.degraded.push_back({1, 0.5});
                  }).validate());
}

TEST(Scenario, ParseEnforcesResourceCeilings) {
  // An untrusted spec must not be able to command an absurd allocation:
  // validate() rejects it from the estimated node count alone, before
  // any topology is built.
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"tree\", \"depth\": 60, "
                   "\"fanout\": 2}}"),
               std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\", "
                   "\"receivers\": 100000000}}"),
               std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, "
                   "\"members_per_cohort\": 999999999999}"),
               std::invalid_argument);
  // Integers beyond 2^64 fit no field: rejected as too large instead of
  // silently rounded (or worse, UB on the double -> uint64 cast).
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, "
                   "\"seed\": 99999999999999999999}"),
               std::invalid_argument);
  // A value wider than its uint32 field is rejected, never wrapped
  // (4294967300 would otherwise run 4 receivers).
  const auto expect_too_large = [](const std::string& json,
                                   const std::string& path) {
    try {
      (void)fleet::ScenarioSpec::parse(json);
      ADD_FAILURE() << "accepted " << json;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(path + " is too large"),
                std::string::npos)
          << e.what();
    }
  };
  expect_too_large(
      "{\"topology\": {\"kind\": \"flood\", \"receivers\": 4294967300}}",
      "topology.receivers");
  expect_too_large(
      "{\"topology\": {\"kind\": \"flood\"}, \"intervals\": 4294967297}",
      "intervals");
  expect_too_large(
      "{\"topology\": {\"kind\": \"tree\", \"depth\": 1, \"fanout\": 2}, "
      "\"faults\": {\"relay_crashes\": [{\"node\": 4294967297}]}}",
      "faults.relay_crashes[0].node");
  // Unknown keys inside the nested blocks are rejected too.
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, "
                   "\"guard\": {\"capacity\": 64, \"typo\": 1}}"),
               std::invalid_argument);
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, "
                   "\"faults\": {\"relay_crashes\": [{\"node\": 1, "
                   "\"typo\": 2}]}}"),
               std::invalid_argument);
}

TEST(Scenario, IntegersParseExactlyUpToSixtyFourBits) {
  // Every 64-bit seed round-trips through the JSON form.
  fleet::ScenarioSpec spec = sample_spec();
  spec.seed = std::numeric_limits<std::uint64_t>::max();
  EXPECT_EQ(fleet::ScenarioSpec::parse(spec.to_json()).seed, spec.seed);
  // 2^53 + 1 has no double: it must not be rounded to 2^53.
  EXPECT_EQ(fleet::ScenarioSpec::parse(
                "{\"topology\": {\"kind\": \"flood\"}, "
                "\"seed\": 9007199254740993}")
                .seed,
            9007199254740993ULL);
  // 2^64 is one past the widest field.
  EXPECT_THROW(fleet::ScenarioSpec::parse(
                   "{\"topology\": {\"kind\": \"flood\"}, "
                   "\"seed\": 18446744073709551616}"),
               std::invalid_argument);
}

TEST(Scenario, DoublesRoundTripExactly) {
  for (const double v : {1.0 / 3.0, 0.1234567, 1e-7}) {
    fleet::ScenarioSpec spec = sample_spec();
    spec.forged_fraction = v;
    spec.hop.loss = v;
    spec.hop.duplicate_probability = v;
    spec.guard.budget_mbps = v;
    spec.guard.burst_bits = v;
    const fleet::ScenarioSpec parsed =
        fleet::ScenarioSpec::parse(spec.to_json());
    EXPECT_EQ(parsed.forged_fraction, v);
    EXPECT_EQ(parsed.hop.loss, v);
    EXPECT_EQ(parsed.hop.duplicate_probability, v);
    EXPECT_EQ(parsed.guard.budget_mbps, v);
    EXPECT_EQ(parsed.guard.burst_bits, v);
    EXPECT_EQ(parsed.to_json(), spec.to_json());
  }
  // The shortest digit count that reads back exactly is emitted.
  fleet::ScenarioSpec third = sample_spec();
  third.forged_fraction = 1.0 / 3.0;
  EXPECT_NE(third.to_json().find("\"forged_fraction\": 0.3333333333333333,"),
            std::string::npos)
      << third.to_json();
}

// --------------------------------------------------------------- cohorts

protocol::DapConfig cohort_dap_config() {
  protocol::DapConfig config;
  config.sender_id = 1;
  config.chain_length = 16;
  config.disclosure_delay = 1;
  config.buffers = 4;
  config.schedule = sim::IntervalSchedule(0, 200 * sim::kMillisecond);
  return config;
}

fleet::CohortConfig cohort_config(std::size_t members, std::uint64_t seed) {
  fleet::CohortConfig config;
  config.members = members;
  config.dap = cohort_dap_config();
  config.seed = seed;
  config.clock = sim::LooseClock(0, sim::kMillisecond);
  return config;
}

sim::SimTime announce_time(const protocol::DapConfig& config,
                           std::uint32_t i) {
  return config.schedule.interval_start(i) + config.schedule.duration() / 2;
}

sim::SimTime drain_time(const protocol::DapConfig& config, std::uint32_t i) {
  return config.schedule.interval_start(i + 1) +
         config.schedule.duration() * 3 / 4;
}

TEST(Cohort, EveryMemberAuthenticatesOnCleanDelivery) {
  const fleet::CohortConfig config = cohort_config(33, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());

  for (std::uint32_t i = 1; i <= 3; ++i) {
    cohort.receive_announce(sender.announce(i, common::bytes_of("m")),
                            announce_time(config.dap, i));
    cohort.enqueue_reveal(sender.reveal(i));
    const auto outcomes = cohort.drain(drain_time(config.dap, i));
    ASSERT_EQ(outcomes.size(), 1u);
    EXPECT_EQ(outcomes[0].interval, i);
    EXPECT_EQ(outcomes[0].members_authenticated, 32u);
    EXPECT_TRUE(outcomes[0].sentinel_authenticated);
  }
  EXPECT_EQ(cohort.stats().member_auths, 3u * 32u);
  EXPECT_EQ(cohort.stats().sentinel_auths, 3u);
  EXPECT_EQ(cohort.stats().member_auth_misses, 0u);
  EXPECT_EQ(cohort.stats().weak_auth_failures, 0u);
}

TEST(Cohort, StaleAnnounceFailsSafetyCheck) {
  const fleet::CohortConfig config = cohort_config(8, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());

  // Interval 1's announce arriving during interval 4: i + d < x, the key
  // is long public, so nothing may be stored (replay defense).
  cohort.receive_announce(sender.announce(1, common::bytes_of("m")),
                          announce_time(config.dap, 4));
  EXPECT_EQ(cohort.stats().announces_unsafe, 1u);
  EXPECT_EQ(cohort.stored_for_interval(1), 0u);
}

TEST(Cohort, MacKeyDerivedOncePerIntervalPerDrain) {
  const fleet::CohortConfig config = cohort_config(16, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());

  // Three messages announced in interval 1 and revealed together: the
  // batched drain derives F'(K_1) once, for the core and the sentinel.
  const sim::SimTime t = announce_time(config.dap, 1);
  for (const char* msg : {"a", "b", "c"}) {
    cohort.receive_announce(sender.announce(1, common::bytes_of(msg)), t);
  }
  for (std::size_t k = 0; k < 3; ++k) {
    cohort.enqueue_reveal(sender.reveal(1, k));
  }
  const auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 3u);
  for (const auto& outcome : outcomes) {
    EXPECT_EQ(outcome.members_authenticated, 15u);
    EXPECT_TRUE(outcome.sentinel_authenticated);
  }
  EXPECT_EQ(cohort.stats().mac_key_derivations, 1u);
  EXPECT_EQ(cohort.sentinel().stats().mac_key_derivations, 1u);
}

TEST(Cohort, FloodFillsReservoirsButForgesNeverAuthenticate) {
  const fleet::CohortConfig config = cohort_config(64, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                             common::Rng(77));
  sim::KeyGuessForger key_forger(config.dap.sender_id, config.dap.key_size,
                                 common::Rng(78));

  const sim::SimTime t = announce_time(config.dap, 1);
  cohort.receive_announce(sender.announce(1, common::bytes_of("m")), t);
  for (int n = 0; n < 36; ++n) {  // forged fraction ~0.97 per cohort
    cohort.receive_announce(forger.forge(1), t);
  }
  cohort.enqueue_reveal(sender.reveal(1));
  cohort.enqueue_reveal(key_forger.forge_reveal(1, common::bytes_of("F")));
  const auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 2u);

  // Authentic reveal: some members lost the record to the flood, none
  // gained a forged acceptance. 37 offers into 4 slots keeps the
  // authentic MAC with probability ~4/37 per member.
  EXPECT_GT(outcomes[0].members_authenticated, 0u);
  EXPECT_LT(outcomes[0].members_authenticated, 63u);
  EXPECT_EQ(outcomes[0].members_authenticated +
                cohort.stats().member_auth_misses,
            63u);
  // Forged reveal: the guessed key fails weak authentication outright.
  EXPECT_EQ(outcomes[1].members_authenticated, 0u);
  EXPECT_FALSE(outcomes[1].sentinel_authenticated);
  EXPECT_EQ(cohort.stats().weak_auth_failures, 1u);
  // Reservoirs are full of garbage — exactly the memory-DoS picture.
  EXPECT_GE(cohort.stats().stored_records_peak, 63u * 3u);
}

TEST(Cohort, DrainIsBitwiseIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t members, std::size_t threads) {
    ThreadGuard guard(threads);
    const fleet::CohortConfig config = cohort_config(members, 9);
    protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
    fleet::ReceiverCohort cohort(config, sender.chain().commitment());
    sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                               common::Rng(77));
    std::vector<std::uint64_t> trace;
    for (std::uint32_t i = 1; i <= 4; ++i) {
      const sim::SimTime t = announce_time(config.dap, i);
      cohort.receive_announce(sender.announce(i, common::bytes_of("m")), t);
      for (int n = 0; n < 11; ++n) cohort.receive_announce(forger.forge(i), t);
      cohort.enqueue_reveal(sender.reveal(i));
      for (const auto& outcome : cohort.drain(drain_time(config.dap, i))) {
        trace.push_back(outcome.members_authenticated);
        trace.push_back(outcome.sentinel_authenticated ? 1 : 0);
      }
      trace.push_back(cohort.stats().stored_records);
    }
    trace.push_back(cohort.stats().member_auths);
    trace.push_back(cohort.stats().member_auth_misses);
    trace.push_back(cohort.stats().stored_records_peak);
    return trace;
  };
  const auto serial = run(128, 1);
  EXPECT_EQ(run(128, 4), serial);
  EXPECT_EQ(run(128, 7), serial);
  // Two whole member blocks plus a partial one (the sentinel is not a
  // statistical member, so 2 x block + 3 members leave 2 in the last).
  const std::size_t members = 2 * fleet::ReceiverCohort::kMemberBlock + 3;
  EXPECT_EQ(run(members, 4), run(members, 1));
}

// Fixed-seed cohort run around the shared-reservoir edge. Rounds
// i = 1..4 take k = m-1, m, m+1 and 3m offers split over two drains:
// up to m offers (authentic "a" first) before the first drain, the rest
// (authentic "b" last) before the second, so rounds with k > m overflow
// in their second drain. On the k = 3m round "a" is revealed at the
// first drain, so a match consumes a slot before the overflow. The
// cohort crash-restarts after round 2. Each drain appends its members'
// outcomes, then member_auths, member_auth_misses, stored_records and
// stored_for_interval(i).
std::vector<std::uint64_t> shared_reservoir_trace(std::size_t m,
                                                  std::size_t members) {
  fleet::CohortConfig config = cohort_config(members, 40 + m);
  config.dap.buffers = m;
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                             common::Rng(91));
  std::vector<std::uint64_t> trace;
  const auto drain = [&](sim::SimTime t, std::uint32_t i) {
    for (const auto& outcome : cohort.drain(t)) {
      trace.push_back(outcome.members_authenticated);
    }
    const fleet::CohortStats& st = cohort.stats();
    trace.insert(trace.end(), {st.member_auths, st.member_auth_misses,
                               st.stored_records,
                               cohort.stored_for_interval(i)});
  };
  const std::size_t offers[] = {m - 1, m, m + 1, 3 * m};
  for (std::uint32_t r = 0; r < 4; ++r) {
    const std::uint32_t i = r + 1;
    const std::size_t k = offers[r];
    const std::size_t first = std::min(k, m);
    const bool early_match = k == 3 * m;
    const sim::SimTime t = announce_time(config.dap, i);
    for (std::size_t n = 0; n < first; ++n) {
      cohort.receive_announce(
          n == 0 ? sender.announce(i, common::bytes_of("a")) : forger.forge(i),
          t);
    }
    if (early_match) cohort.enqueue_reveal(sender.reveal(i, 0));
    drain(t, i);
    for (std::size_t n = first; n < k; ++n) {
      cohort.receive_announce(n + 1 == k
                                  ? sender.announce(i, common::bytes_of("b"))
                                  : forger.forge(i),
                              t);
    }
    if (first > 0 && !early_match) cohort.enqueue_reveal(sender.reveal(i, 0));
    if (k > first) cohort.enqueue_reveal(sender.reveal(i, 1));
    drain(drain_time(config.dap, i), i);
    if (r == 1) cohort.crash_restart(drain_time(config.dap, i));
  }
  return trace;
}

TEST(Cohort, SharedReservoirMatchesParentReplay) {
  // Captured from the per-member replay that predates the shared
  // reservoir: storing a clean round once must not change one outcome.
  struct Golden {
    std::size_t m;
    std::size_t members;
    std::vector<std::uint64_t> trace;
  };
  const std::vector<Golden> golden = {
      {1, 1, std::vector<std::uint64_t>(37, 0)},
      {1, 2, {0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0,
              1, 1, 1, 0, 2, 1, 0, 0, 1, 3, 1, 0, 0, 0, 3, 2, 1, 1}},
      {1, 257, {0,   0,   0, 0,   0,   0,   0,   0,   0,   0,
                256, 256, 256, 256, 0,   0,   0,   256, 0,   256,
                256, 130, 126, 512, 256, 0,   0,   256, 768, 256,
                0,   0,   70,  838, 442, 186, 186}},
      {2, 1, std::vector<std::uint64_t>(38, 0)},
      {2, 2, {0, 0, 1, 1, 1, 1, 0, 0, 0, 1, 0, 2, 2, 1, 2, 0, 1, 1, 2,
              0, 2, 2, 1, 1, 4, 0, 0, 0, 1, 5, 0, 1, 1, 0, 5, 1, 2, 2}},
      {2, 257, {0,   0,   256, 256, 256, 256,  0,   0,   0,   256,
                0,   512, 512, 256, 512, 0,    256, 256, 512, 0,
                512, 512, 165, 182, 859, 165,  165, 165, 256, 1115,
                165, 421, 256, 78,  1193, 343, 599, 434}},
      {4, 1, std::vector<std::uint64_t>(38, 0)},
      {4, 2, {0, 0, 3, 3, 1, 1, 0, 2, 2, 1, 0, 6, 4, 1, 2, 0, 5, 3, 2,
              0, 4, 4, 1, 1, 4, 0, 2, 2, 1, 5, 0, 5, 3, 0, 5, 1, 6, 4}},
      {4, 257, {0,   0,    768, 768, 256,  256, 0,    512, 512, 256,
                0,   1536, 1024, 256, 512, 0,   1280, 768, 512, 0,
                1024, 1024, 203, 211, 926, 98,  610,  610, 256, 1182,
                98,  1378, 768, 89,  1271, 265, 1545, 935}},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(shared_reservoir_trace(g.m, g.members), g.trace)
        << "m=" << g.m << " members=" << g.members;
  }
}

// Fixed-seed flooded cohort run. Each round delivers its offers in
// equal chunks, one drain after each; a chunk's first offer is an
// authentic announce (message "c<chunk>"), the rest are forged. Before
// every drain after the first, the previous chunk's message is
// revealed, so its match consumes slots that the next chunk's offers
// refill; the last drain also reveals the last chunk's message.
// Intermediate drains run inside the interval, where the previous
// round is still live, so two split rounds replay in one drain. The
// cohort crash-restarts after round 3. Each drain appends its members'
// outcomes, then member_auths, member_auth_misses, stored_records and
// stored_for_interval(i).
std::vector<std::uint64_t> flooded_replay_trace(std::size_t m,
                                                std::size_t stat_members) {
  fleet::CohortConfig config = cohort_config(stat_members + 1, 60 + m);
  config.dap.buffers = m;
  protocol::DapSender sender(config.dap, common::Rng(2).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::FloodingForger forger(config.dap.sender_id, config.dap.mac_size,
                             common::Rng(93));
  std::vector<std::uint64_t> trace;
  struct RoundPlan {
    std::size_t offers;
    std::size_t drains;
  };
  const RoundPlan rounds[] = {{50, 1}, {300, 3}, {50, 2}, {300, 2}};
  for (std::uint32_t r = 0; r < 4; ++r) {
    const std::uint32_t i = r + 1;
    const RoundPlan plan = rounds[r];
    const sim::SimTime t = announce_time(config.dap, i);
    for (std::size_t c = 0; c < plan.drains; ++c) {
      const std::string message = "c" + std::to_string(c);
      cohort.receive_announce(sender.announce(i, common::bytes_of(message)),
                              t);
      for (std::size_t n = 1; n < plan.offers / plan.drains; ++n) {
        cohort.receive_announce(forger.forge(i), t);
      }
      if (c > 0) cohort.enqueue_reveal(sender.reveal(i, c - 1));
      const bool last = c + 1 == plan.drains;
      if (last) cohort.enqueue_reveal(sender.reveal(i, c));
      for (const auto& outcome :
           cohort.drain(last ? drain_time(config.dap, i) : t)) {
        trace.push_back(outcome.members_authenticated);
      }
      const fleet::CohortStats& st = cohort.stats();
      trace.insert(trace.end(), {st.member_auths, st.member_auth_misses,
                                 st.stored_records,
                                 cohort.stored_for_interval(i)});
    }
    if (r == 2) cohort.crash_restart(drain_time(config.dap, i));
  }
  return trace;
}

TEST(Cohort, FloodedReplayMatchesParentReplay) {
  // Captured from the replay that predates the integer keep threshold
  // and the keep-only victim draw: rounds far past m offers, refilled
  // after matches, must not change one outcome.
  struct Golden {
    std::size_t m;
    std::size_t stat_members;
    std::vector<std::uint64_t> trace;
  };
  const std::vector<Golden> golden = {
      {1, 1, {0, 0, 1, 1, 1, 0, 1, 2, 1, 0, 0, 2, 2, 1, 0, 0, 0, 4, 2, 1, 0, 4,
              2, 1, 0, 0, 0, 6, 2, 1, 0, 6, 1, 1, 0, 0, 0, 8, 1, 1}},
      {1, 257, {6, 6, 251, 251, 251, 6, 251, 508, 257, 0, 6, 508, 508, 257, 1,
                0, 7, 1021, 507, 256, 7, 1021, 513, 257, 4, 6, 17, 1525, 503,
                247, 17, 1525, 257, 257, 1, 1, 19, 2037, 255, 255}},
      {1, 600, {14, 14, 586, 586, 586, 14, 586, 1186, 600, 2, 16, 1184, 1184,
                598, 2, 1, 19, 2381, 1183, 597, 19, 2381, 1197, 600, 7, 16, 42,
                3558, 1174, 577, 42, 3558, 600, 600, 1, 5, 48, 4752, 594, 594}},
      {2, 1, {0, 0, 1, 2, 2, 0, 1, 4, 2, 0, 0, 2, 4, 2, 0, 0, 0, 4, 4, 2, 0, 4,
              4, 2, 0, 0, 0, 6, 4, 2, 0, 6, 2, 2, 0, 0, 0, 8, 2, 2}},
      {2, 257, {16, 16, 241, 498, 498, 16, 241, 1012, 514, 3, 19, 495, 1009,
                511, 1, 2, 22, 1006, 1009, 511, 22, 1006, 1025, 514, 7, 9, 38,
                1504, 1009, 498, 38, 1504, 514, 514, 0, 1, 39, 2017, 513, 513}},
      {2, 600, {32, 32, 568, 1168, 1168, 32, 568, 2368, 1200, 8, 40, 1160, 2360,
                1192, 7, 6, 53, 2347, 2355, 1187, 53, 2347, 2387, 1200, 22, 23,
                98, 3502, 2342, 1155, 98, 3502, 1200, 1200, 2, 2, 102, 4698,
                1196, 1196}},
      {4, 1, {0, 0, 1, 4, 4, 0, 1, 8, 4, 0, 0, 2, 8, 4, 0, 0, 0, 4, 8, 4, 0, 4,
              8, 4, 0, 0, 0, 6, 8, 4, 0, 6, 4, 4, 0, 0, 0, 8, 4, 4}},
      {4, 257, {18, 18, 239, 1010, 1010, 18, 239, 2038, 1028, 5, 23, 491, 2033,
                1023, 5, 8, 36, 992, 2025, 1015, 36, 992, 2043, 1028, 23, 24,
                83, 1459, 1996, 981, 83, 1459, 1028, 1028, 6, 6, 95, 1961, 1016,
                1016}},
      {4, 600, {53, 53, 547, 2347, 2347, 53, 547, 4747, 2400, 13, 66, 1134,
                4734, 2387, 6, 16, 88, 2312, 4725, 2378, 88, 2312, 4778, 2400,
                49, 53, 190, 3410, 4676, 2298, 190, 3410, 2400, 2400, 11, 10,
                211, 4589, 2379, 2379}},
      {16, 1, {1, 1, 0, 15, 15, 1, 0, 31, 16, 0, 1, 1, 31, 16, 0, 0, 1, 3, 31,
               16, 1, 3, 32, 16, 0, 0, 1, 5, 32, 16, 1, 5, 16, 16, 0, 0, 1, 7,
               16, 16}},
      {16, 257, {80, 80, 177, 4032, 4032, 80, 177, 8144, 4112, 12, 92, 422,
                 8132, 4100, 14, 21, 127, 901, 8109, 4077, 127, 901, 8189, 4112,
                 85, 67, 279, 1263, 8037, 3960, 279, 1263, 4112, 4112, 13, 21,
                 313, 1743, 4078, 4078}},
      {16, 600, {189, 189, 411, 9411, 9411, 189, 411, 19011, 9600, 37, 226, 974,
                 18974, 9563, 31, 52, 309, 2091, 18928, 9517, 309, 2091, 19117,
                 9600, 190, 177, 676, 2924, 18750, 9233, 676, 2924, 9600, 9600,
                 30, 43, 749, 4051, 9527, 9527}},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(flooded_replay_trace(g.m, g.stat_members), g.trace)
        << "m=" << g.m << " stat_members=" << g.stat_members;
  }
}

TEST(Cohort, KeepThresholdEqualsDoubleCompare) {
  // The replay keeps the k-th offer iff (w >> 11) < keep_threshold(m, k);
  // the draw it replaced kept it iff unit_double(w) < m/k in doubles.
  // Probe both around every threshold and at the ends of the range.
  using fleet::ReceiverCohort;
  constexpr std::uint64_t kTop = (std::uint64_t{1} << 53) - 1;
  std::uint64_t mismatches = 0;
  for (std::size_t m = 1; m <= 64; ++m) {
    for (std::uint64_t k = m + 1; k <= 65536; ++k) {
      const double p = static_cast<double>(m) / static_cast<double>(k);
      const std::uint64_t threshold = ReceiverCohort::keep_threshold(m, k);
      for (const std::uint64_t x :
           {std::uint64_t{0}, threshold - 1, threshold,
            std::min(threshold + 1, kTop), kTop}) {
        for (const std::uint64_t low :
             {std::uint64_t{0}, std::uint64_t{0x7ff}}) {
          const std::uint64_t word = (x << 11) | low;
          const bool by_double =
              static_cast<double>(word >> 11) * 0x1.0p-53 < p;
          if (ReceiverCohort::keeps_copy(word, threshold) != by_double) {
            if (mismatches == 0) {
              ADD_FAILURE() << "m=" << m << " k=" << k << " x=" << x;
            }
            ++mismatches;
          }
        }
      }
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

TEST(Cohort, DrainOutcomesCarryRevealVerdicts) {
  const fleet::CohortConfig config = cohort_config(8, 5);
  protocol::DapSender sender(config.dap, common::Rng(1).bytes(16));
  fleet::ReceiverCohort cohort(config, sender.chain().commitment());
  sim::KeyGuessForger key_forger(config.dap.sender_id, config.dap.key_size,
                                 common::Rng(78));

  const sim::SimTime t = announce_time(config.dap, 1);
  cohort.receive_announce(sender.announce(1, common::bytes_of("m")), t);
  cohort.enqueue_reveal(sender.reveal(1));
  cohort.enqueue_reveal(key_forger.forge_reveal(1, common::bytes_of("F")));
  const auto outcomes = cohort.drain(drain_time(config.dap, 1));
  ASSERT_EQ(outcomes.size(), 2u);
  // The authentic reveal authenticates; the guessed key is rejected at
  // weak authentication — and the verdict names the reject reason so
  // verify spans can carry it.
  EXPECT_EQ(outcomes[0].verdict, tesla::RevealVerdict::kAccepted);
  EXPECT_EQ(outcomes[1].verdict, tesla::RevealVerdict::kWeakAuthFail);
  EXPECT_FALSE(outcomes[1].sentinel_authenticated);
}

TEST(Cohort, RejectsZeroMembers) {
  const fleet::CohortConfig config = cohort_config(0, 5);
  protocol::DapSender sender(cohort_dap_config(), common::Rng(1).bytes(16));
  EXPECT_THROW(fleet::ReceiverCohort(config, sender.chain().commitment()),
               std::invalid_argument);
}

// -------------------------------------------------------------- fleet sim

fleet::ScenarioSpec small_tree_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "unit";
  spec.seed = 21;
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 2;
  spec.members_per_cohort = 5;
  spec.intervals = 3;
  spec.interval_us = 200 * sim::kMillisecond;
  return spec;
}

TEST(FleetSim, CleanTreeAuthenticatesEveryMemberEveryInterval) {
  fleet::FleetSim sim(small_tree_spec());
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(report.cohort_count, 6u);
  EXPECT_EQ(report.total_members, 30u);
  EXPECT_EQ(report.announces_sent, 3u);
  EXPECT_EQ(report.member_auths, 3u * 6u * 4u);
  EXPECT_EQ(report.sentinel_auths, 3u * 6u);
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_EQ(report.announces_unsafe, 0u);
}

TEST(FleetSim, ReportIsIdenticalAcrossThreadCounts) {
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    fleet::ScenarioSpec spec = small_tree_spec();
    spec.members_per_cohort = 50;
    spec.forged_fraction = 0.8;
    fleet::FleetSim sim(spec);
    return sim.run();
  };
  const fleet::FleetReport a = run(1);
  const fleet::FleetReport b = run(4);
  EXPECT_EQ(a.member_auths, b.member_auths);
  EXPECT_EQ(a.sentinel_auths, b.sentinel_auths);
  EXPECT_EQ(a.forged_accepted, b.forged_accepted);
  EXPECT_EQ(a.forged_announces_sent, b.forged_announces_sent);
  EXPECT_EQ(a.weak_auth_failures, b.weak_auth_failures);
  EXPECT_EQ(a.stored_records_peak, b.stored_records_peak);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.auth_rate, b.auth_rate);
  EXPECT_EQ(a.forged_accepted, 0u);
}

TEST(FleetSim, FloodedFleetNeverAcceptsForgeries) {
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.members_per_cohort = 20;
  spec.forged_fraction = 0.9;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_GT(report.forged_announces_sent, 0u);
  EXPECT_GT(report.forged_reveals_sent, 0u);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_GT(report.weak_auth_failures, 0u);
  // The flood degrades availability, never integrity.
  EXPECT_LT(report.auth_rate, 1.0);
  EXPECT_GT(report.auth_rate, 0.0);
}

TEST(FleetSim, CohortPlacementFollowsSpec) {
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.cohorts_at_leaves_only = true;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(report.cohort_count, 4u);  // the 4 leaves of the depth-2 tree
  EXPECT_EQ(sim.cohort_at(0), nullptr);
  EXPECT_EQ(sim.cohort_at(1), nullptr);  // interior relay
  EXPECT_NE(sim.cohort_at(3), nullptr);
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
}

TEST(FleetSim, FactoriesLockAfterRun) {
  // run() itself is single-shot by DAP_REQUIRE contract (abort, not an
  // exception — not exercisable in-process); the factory setters still
  // throw so misuse in test harnesses stays catchable.
  fleet::FleetSim sim(small_tree_spec());
  (void)sim.run();
  EXPECT_THROW(sim.set_channel_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::PerfectChannel>();
  }),
               std::logic_error);
  EXPECT_THROW(sim.set_latency_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::FixedLatency>(100);
  }),
               std::logic_error);
}

TEST(FleetSim, RollupFeedsPerDepthRegistryCounters) {
  auto& reg = obs::Registry::global();
  const auto counter_value = [&reg](const char* name) {
    const std::uint64_t* v = reg.find_counter(name);
    return v == nullptr ? 0 : *v;
  };
  const std::uint64_t d1_before = counter_value("fleet.d1.announces_in");
  const std::uint64_t d2_before = counter_value("fleet.d2.announces_in");
  const std::uint64_t members_before = counter_value("fleet.members");

  fleet::ScenarioSpec spec = small_tree_spec();
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 1;  // chain 0 -> 1 -> 2: one node per depth
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();

  EXPECT_EQ(counter_value("fleet.d1.announces_in") - d1_before, 3u);
  EXPECT_EQ(counter_value("fleet.d2.announces_in") - d2_before, 3u);
  EXPECT_EQ(counter_value("fleet.members") - members_before,
            report.total_members);
  const obs::LatencyHistogram* hops =
      reg.find_histogram("fleet.d2.hop_latency_us");
  ASSERT_NE(hops, nullptr);
  // Two 1 ms hops to depth 2.
  EXPECT_GE(hops->max(), 2000.0);
}

// ------------------------------------------------- causal tracing & snapshots

// Installs a private registry + tracer as the calling thread's globals
// for one test body (the same isolation benches use), so span and
// snapshot assertions see only this sim's telemetry.
class ObsOverrideGuard {
 public:
  explicit ObsOverrideGuard(std::size_t trace_capacity)
      : tracer_(trace_capacity),
        prev_registry_(obs::Registry::set_thread_override(&registry_)),
        prev_tracer_(obs::Tracer::set_thread_override(&tracer_)) {
    tracer_.enable(true);
  }
  ~ObsOverrideGuard() {
    obs::Registry::set_thread_override(prev_registry_);
    obs::Tracer::set_thread_override(prev_tracer_);
  }
  obs::Registry& registry() { return registry_; }
  obs::Tracer& tracer() { return tracer_; }

 private:
  obs::Registry registry_;
  obs::Tracer tracer_;
  obs::Registry* prev_registry_;
  obs::Tracer* prev_tracer_;
};

TEST(FleetSim, VerifySpansLinkBackToAnnounceAcrossTwoHops) {
  const ThreadGuard threads(1);
  ObsOverrideGuard obs_guard(1 << 12);
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;  // chain 0 -> 1 -> 2: verify at node 2 is two hops out
  fleet::FleetSim sim(spec);
  (void)sim.run();

  const auto spans = obs_guard.tracer().span_snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(obs_guard.tracer().spans_dropped(), 0u);
  std::map<std::uint64_t, const obs::SpanEvent*> by_uid;
  for (const auto& span : spans) by_uid[span.uid] = &span;

  // Every authentic verify span's parent walk must reach the root
  // announce_send; the one at node 2 passes two relay hops on the way.
  bool found_two_hop_chain = false;
  for (const auto& span : spans) {
    if (span.kind != obs::SpanKind::kVerify ||
        span.tag != obs::SpanTag::kAuthOk) {
      continue;
    }
    std::size_t relay_hops = 0;
    const obs::SpanEvent* at = &span;
    while (at->parent != 0) {
      const auto it = by_uid.find(at->parent);
      ASSERT_NE(it, by_uid.end()) << "dangling parent uid " << at->parent;
      at = it->second;
      EXPECT_EQ(at->trace, span.trace) << "parent walk left the trace";
      EXPECT_LE(at->t_begin, span.t_begin);
      if (at->kind == obs::SpanKind::kRelayHop) ++relay_hops;
    }
    EXPECT_EQ(at->kind, obs::SpanKind::kAnnounceSend);
    if (span.node == 2 && relay_hops >= 2) found_two_hop_chain = true;
  }
  EXPECT_TRUE(found_two_hop_chain)
      << "no verify span at node 2 walked back through both relay hops";

  // One trace id per interval, shared across the whole causal chain.
  std::set<std::uint64_t> traces;
  for (const auto& span : spans) traces.insert(span.trace);
  EXPECT_EQ(traces.size(), static_cast<std::size_t>(spec.intervals));
}

/// The unsigned value after `"key":` in one snapshot line (0 if absent).
std::uint64_t snapshot_value(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = line.find(needle);
  if (at == std::string::npos) return 0;
  return std::stoull(line.substr(at + needle.size()));
}

TEST(FleetSim, HopLatencySamplesAreObservedOncePerArrival) {
  // Every drain sweep flushes live telemetry; each authentic announce
  // arrival must reach the hop-latency histogram exactly once however
  // many flushes happen, so at every snapshot the histogram count equals
  // the depth's announces_in counter.
  const ThreadGuard threads(1);
  ObsOverrideGuard obs_guard(1 << 12);
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.intervals = 6;
  fleet::FleetSim sim(spec);
  obs::Snapshotter snap("hop-latency", 1);  // sample at every flush
  sim.set_snapshotter(&snap);
  (void)sim.run();

  std::size_t mid_run_flushes_with_arrivals = 0;
  std::istringstream stream(snap.stream());
  std::string line;
  std::getline(stream, line);  // header
  while (std::getline(stream, line)) {
    bool arrivals = false;
    for (std::uint32_t d = 1; d <= spec.depth; ++d) {
      const std::string prefix = "fleet.d" + std::to_string(d) + ".";
      const std::uint64_t in = snapshot_value(line, prefix + "announces_in");
      const std::uint64_t observed =
          snapshot_value(line, prefix + "hop_latency_us\":{\"count");
      EXPECT_EQ(observed, in) << "depth " << d << " at " << line;
      arrivals = arrivals || in > 0;
    }
    if (arrivals) ++mid_run_flushes_with_arrivals;
  }
  EXPECT_GE(mid_run_flushes_with_arrivals, 2u);

  // After the final flush the registry holds one sample per arrival.
  const obs::Registry& reg = obs_guard.registry();
  for (std::uint32_t d = 1; d <= spec.depth; ++d) {
    const std::string prefix = "fleet.d" + std::to_string(d) + ".";
    const std::uint64_t* in = reg.find_counter(prefix + "announces_in");
    const obs::LatencyHistogram* hops =
        reg.find_histogram(prefix + "hop_latency_us");
    ASSERT_NE(in, nullptr);
    ASSERT_NE(hops, nullptr);
    EXPECT_EQ(hops->count(), *in) << "depth " << d;
    EXPECT_GT(*in, 0u);
  }
}

TEST(FleetSim, ForgedRevealsTagVerifySpansWithRejectReason) {
  const ThreadGuard threads(1);
  ObsOverrideGuard obs_guard(1 << 14);
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.members_per_cohort = 10;
  spec.forged_fraction = 0.9;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  ASSERT_GT(report.forged_reveals_sent, 0u);

  // Reject tags cover two populations: forged reveals (no authentic
  // causal predecessor, so root-parented) and authentic reveals whose
  // records the flood evicted (still linked to their announce chain).
  std::size_t rejects = 0;
  std::size_t forged_rejects = 0;
  for (const auto& span : obs_guard.tracer().span_snapshot()) {
    if (span.kind != obs::SpanKind::kVerify) continue;
    if (span.tag == obs::SpanTag::kWeakAuthFail ||
        span.tag == obs::SpanTag::kNoRecord) {
      ++rejects;
      if (span.parent == 0) ++forged_rejects;
    } else if (span.tag == obs::SpanTag::kAuthOk) {
      // An accepted verify always has an authentic predecessor to link.
      EXPECT_NE(span.parent, 0u);
    }
  }
  EXPECT_GT(rejects, 0u) << "no verify span carries a reject reason";
  EXPECT_GT(forged_rejects, 0u)
      << "no root-parented (forged) verify span was rejected";
}

TEST(FleetSim, SnapshotterSamplesEveryIntervalPlusFinal) {
  const ThreadGuard threads(1);
  ObsOverrideGuard obs_guard(1 << 10);
  fleet::ScenarioSpec spec = small_tree_spec();
  fleet::FleetSim sim(spec);
  obs::Snapshotter snap(spec.id(), spec.interval_us);
  sim.set_snapshotter(&snap);
  (void)sim.run();

  // One sample per interval boundary the drain sweep crosses, plus the
  // unconditional end-of-run sample from rollup.
  EXPECT_GE(snap.samples(), static_cast<std::size_t>(spec.intervals));
  const std::string stream = snap.stream();
  EXPECT_NE(stream.find("\"schema\":\"dap.snapshots.v1\""),
            std::string::npos);
  EXPECT_NE(stream.find("\"fleet.announces_sent\":3"), std::string::npos);
  EXPECT_NE(stream.find("\"fleet.auths\""), std::string::npos);

  // The live-flush deltas must sum to the same totals the old end-only
  // rollup produced: the final sample's counter equals the report's.
  const auto* sent =
      obs_guard.registry().find_counter("fleet.announces_sent");
  ASSERT_NE(sent, nullptr);
  EXPECT_EQ(*sent, 3u);
}

// ------------------------------------------- multi-hop fault composition

TEST(FleetSim, DuplicatesMultiplyAcrossHopsWithoutDedup) {
  // Chain 0 -> 1 -> 2 with every hop duplicating every frame: copies
  // multiply hop over hop (2x then 4x) rather than resetting per hop.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.relay_dedup = false;
  fleet::FleetSim sim(spec);
  sim.set_channel_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::DuplicateChannel>(
        std::make_unique<sim::PerfectChannel>(), 1.0);
  });
  const fleet::FleetReport report = sim.run();
  // 3 announces + 3 reveals leave the root.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 12u);   // 6 x 2
  EXPECT_EQ(sim.node_traffic(1).forwarded, 12u);
  EXPECT_EQ(sim.node_traffic(2).packets_in, 24u);   // 6 x 2 x 2
  EXPECT_EQ(report.dedup_dropped, 0u);
  EXPECT_TRUE(report.zero_forged());
}

TEST(FleetSim, RelayDedupStopsDuplicateAmplification) {
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.relay_dedup = true;
  fleet::FleetSim sim(spec);
  sim.set_channel_factory([](std::uint32_t, std::uint32_t) {
    return std::make_unique<sim::DuplicateChannel>(
        std::make_unique<sim::PerfectChannel>(), 1.0);
  });
  const fleet::FleetReport report = sim.run();
  // Each relay forwards each distinct packet once, so amplification is
  // capped at the per-hop factor instead of compounding.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 12u);
  EXPECT_EQ(sim.node_traffic(1).deduped, 6u);
  EXPECT_EQ(sim.node_traffic(1).forwarded, 6u);
  EXPECT_EQ(sim.node_traffic(2).packets_in, 12u);
  EXPECT_EQ(sim.node_traffic(2).deduped, 6u);
  EXPECT_EQ(report.dedup_dropped, 12u);
  // With duplicates suppressed at relays, every member still
  // authenticates every interval exactly once.
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
}

TEST(FleetSim, BlackoutOnOneHopComposesWithCleanHops) {
  // Chain 0 -> 1 -> 2; hop (0,1) blacks out around interval 2's
  // announce. Both cohorts lose exactly that interval (node 2 sits
  // behind the faulted hop), and every other interval authenticates.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.members_per_cohort = 5;
  fleet::FleetSim sim(spec);
  auto schedule = std::make_shared<sim::FaultSchedule>();
  // Interval 2 spans [200ms, 400ms); its announce leaves at 300ms.
  schedule->add_window(290 * sim::kMillisecond, 310 * sim::kMillisecond);
  sim.set_channel_factory(
      [&sim, schedule](std::uint32_t from, std::uint32_t) {
        std::unique_ptr<sim::Channel> channel =
            std::make_unique<sim::PerfectChannel>();
        if (from == 0) {
          channel = std::make_unique<sim::BlackoutChannel>(
              std::move(channel), schedule, sim.queue());
        }
        return channel;
      });
  const fleet::FleetReport report = sim.run();
  // One of six root broadcasts (3 announces + 3 reveals) was dropped on
  // the first hop; the second hop relays everything that survived.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 5u);
  EXPECT_EQ(sim.node_traffic(2).packets_in, 5u);
  // 2 cohorts x 2 surviving intervals x 4 statistical members.
  EXPECT_EQ(report.member_auths, 2u * 2u * 4u);
  EXPECT_EQ(report.sentinel_auths, 2u * 2u);
  EXPECT_NEAR(report.auth_rate, 2.0 / 3.0, 1e-12);
  EXPECT_TRUE(report.zero_forged());
}

// --------------------------------- bounded guards & relay fault injection

TEST(FleetSim, GuardBoundsRelayMemoryUnderFlood) {
  // A hard flood used to grow every relay's dedup set without bound;
  // with the guard, peak per-relay state is capped at the configured
  // capacity and the overflow surfaces as eviction counts instead.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.intervals = 5;
  spec.members_per_cohort = 10;
  spec.forged_fraction = 0.9;  // 9 forged copies per authentic announce
  spec.guard.capacity = 16;
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(report.guard_capacity, 16u);
  EXPECT_LE(report.guard_peak_entries, 16u);
  EXPECT_GT(report.guard_evicted, 0u);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_GT(report.auth_rate, 0.0);
}

TEST(FleetSim, DegradedRelayBudgetShedsFloodNotForgedAcceptance) {
  // Chain 0 -> 1 -> 2 with a tight bandwidth budget on relay 1: the
  // flood is shed at that hop instead of being forwarded downstream,
  // and integrity is untouched.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 5;
  spec.forged_fraction = 0.9;
  spec.guard.burst_bits = 512.0;  // a couple of frames of headroom
  spec.faults.degraded.push_back({1, 0.001});  // 1 kbit/s
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  EXPECT_GT(sim.node_traffic(1).shed, 0u);
  EXPECT_EQ(sim.node_traffic(2).shed, 0u);  // only node 1 is degraded
  EXPECT_GT(report.guard_shed, 0u);
  // Downstream sees at most what the budget let through.
  EXPECT_LT(sim.node_traffic(2).packets_in, sim.node_traffic(1).packets_in);
  EXPECT_TRUE(report.zero_forged());
}

TEST(FleetSim, RelayCrashMidChainDesyncsAndReconverges) {
  // Chain 0 -> 1 -> 2. Node 1 crashes just before interval 2's
  // announce, stays deaf for two intervals, and reboots with its
  // oscillator 150 ms ahead. Downstream (node 2) recovers as soon as
  // traffic flows again; node 1's own cohort must first detect the
  // desync (streak of unsafe announces), run the resync handshake, and
  // only then resume authenticating — on the SAME chain anchor it held
  // before the crash.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 10;
  spec.members_per_cohort = 5;
  spec.faults.relay_crashes.push_back({1, 2, 2, 150 * sim::kMillisecond});
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();

  EXPECT_EQ(report.relay_restarts, 1u);
  EXPECT_GT(report.dropped_while_down, 0u);
  EXPECT_TRUE(report.zero_forged());

  const fleet::ReceiverCohort* crashed = sim.cohort_at(1);
  ASSERT_NE(crashed, nullptr);
  EXPECT_EQ(crashed->stats().crash_restarts, 1u);
  // The skewed reboot shows up as a streak of unsafe announces. The
  // sentinel counts all three suspects; the cohort's shared check only
  // sees two, because the episode-opening third announce resolves the
  // handshake inside the sentinel before the cohort evaluates it.
  EXPECT_GE(crashed->stats().announces_unsafe, 2u);
  EXPECT_GE(crashed->sentinel().resync_stats().suspect_events, 3u);
  // The streak opens a desync episode and resolves via the handshake.
  EXPECT_GE(crashed->sentinel().resync_stats().desync_episodes, 1u);
  EXPECT_GE(crashed->sentinel().resync_stats().successes, 1u);
  // Chain anchor survived the crash: the sentinel authenticates again
  // after recovery (weak auth still walks back to its stored key).
  EXPECT_GE(crashed->stats().sentinel_auths, 2u);

  // Reconvergence bounds, measured from the fault horizon (interval 4).
  EXPECT_EQ(report.fault_clear_interval, 4u);
  ASSERT_EQ(report.reconverge_intervals.size(), 3u);
  // Depth 2 only had to wait for traffic: immediate reconvergence.
  EXPECT_LE(report.reconverge_intervals[2], 1u);
  // Depth 1 needed the full detect -> handshake -> recalibrate cycle.
  EXPECT_NE(report.reconverge_intervals[1], fleet::kNeverReconverged);
  EXPECT_LE(report.reconverge_intervals[1], 4u);
}

TEST(FleetSim, LinkPartitionHealsAndFleetRecovers) {
  // Chain 0 -> 1 -> 2; the (0,1) edge is partitioned for interval 2 and
  // heals at interval 3. Both cohorts lose the blocked traffic and
  // reconverge immediately once the edge is back.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 5;
  spec.members_per_cohort = 5;
  spec.faults.partitions.push_back({0, 1, 2, 3});
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();
  // Interval 1's reveal (start(2) + interval/8) and interval 2's
  // announce fall inside the window: 10 root broadcasts, 2 blocked.
  EXPECT_EQ(sim.node_traffic(1).packets_in, 8u);
  EXPECT_EQ(report.relay_restarts, 0u);
  EXPECT_EQ(report.fault_clear_interval, 3u);
  ASSERT_EQ(report.reconverge_intervals.size(), 3u);
  EXPECT_EQ(report.reconverge_intervals[1], 0u);
  EXPECT_EQ(report.reconverge_intervals[2], 0u);
  // Intervals 3..5 authenticate fully at both cohorts.
  EXPECT_GE(report.sentinel_auths, 2u * 3u);
  EXPECT_TRUE(report.zero_forged());
}

TEST(FleetSim, ChaosReportIsIdenticalAcrossThreadCounts) {
  // The full fault mix — crash + reboot skew, healing partition,
  // degraded budget, flood — must stay bitwise deterministic at any
  // DAP_THREADS, like the clean fleet.
  const auto run = [](std::size_t threads) {
    ThreadGuard guard(threads);
    fleet::ScenarioSpec spec = small_tree_spec();
    spec.depth = 2;
    spec.fanout = 2;
    spec.intervals = 8;
    spec.members_per_cohort = 25;
    spec.forged_fraction = 0.6;
    spec.guard.capacity = 64;
    spec.guard.burst_bits = 8192.0;
    spec.faults.relay_crashes.push_back({1, 2, 1, 150 * sim::kMillisecond});
    spec.faults.partitions.push_back({0, 2, 3, 4});
    spec.faults.degraded.push_back({2, 0.05});
    fleet::FleetSim sim(spec);
    return sim.run();
  };
  const fleet::FleetReport a = run(1);
  const fleet::FleetReport b = run(4);
  EXPECT_EQ(a.member_auths, b.member_auths);
  EXPECT_EQ(a.sentinel_auths, b.sentinel_auths);
  EXPECT_EQ(a.forged_accepted, b.forged_accepted);
  EXPECT_EQ(a.guard_evicted, b.guard_evicted);
  EXPECT_EQ(a.guard_shed, b.guard_shed);
  EXPECT_EQ(a.guard_false_drops, b.guard_false_drops);
  EXPECT_EQ(a.guard_peak_entries, b.guard_peak_entries);
  EXPECT_EQ(a.relay_restarts, b.relay_restarts);
  EXPECT_EQ(a.dropped_while_down, b.dropped_while_down);
  EXPECT_EQ(a.reconverge_intervals, b.reconverge_intervals);
  EXPECT_EQ(a.total_bits, b.total_bits);
  EXPECT_EQ(a.forged_accepted, 0u);
}

// ---------------------------------------- relay data-plane bit identity

// Every FleetReport field and every node's NodeTraffic, one `name=value`
// per line (doubles at round-trip precision), so a golden comparison
// pins the whole observable outcome of a run.
std::string describe_run(const fleet::FleetReport& r,
                         const fleet::FleetSim& sim) {
  std::ostringstream out;
  out.precision(17);
  out << "total_members=" << r.total_members << '\n'
      << "cohort_count=" << r.cohort_count << '\n'
      << "intervals=" << r.intervals << '\n'
      << "max_depth=" << r.max_depth << '\n'
      << "announces_sent=" << r.announces_sent << '\n'
      << "forged_announces_sent=" << r.forged_announces_sent << '\n'
      << "forged_reveals_sent=" << r.forged_reveals_sent << '\n'
      << "member_auths=" << r.member_auths << '\n'
      << "sentinel_auths=" << r.sentinel_auths << '\n'
      << "forged_accepted=" << r.forged_accepted << '\n'
      << "announces_unsafe=" << r.announces_unsafe << '\n'
      << "weak_auth_failures=" << r.weak_auth_failures << '\n'
      << "dedup_dropped=" << r.dedup_dropped << '\n'
      << "duplicated_frames=" << r.duplicated_frames << '\n'
      << "total_bits=" << r.total_bits << '\n'
      << "guard_evicted=" << r.guard_evicted << '\n'
      << "guard_shed=" << r.guard_shed << '\n'
      << "guard_false_drops=" << r.guard_false_drops << '\n'
      << "guard_peak_entries=" << r.guard_peak_entries << '\n'
      << "guard_capacity=" << r.guard_capacity << '\n'
      << "relay_restarts=" << r.relay_restarts << '\n'
      << "dropped_while_down=" << r.dropped_while_down << '\n'
      << "fault_clear_interval=" << r.fault_clear_interval << '\n'
      << "reconverge_intervals=";
  for (const std::uint32_t v : r.reconverge_intervals) out << v << ',';
  out << '\n'
      << "stored_records_peak=" << r.stored_records_peak << '\n'
      << "auth_rate=" << r.auth_rate << '\n';
  // node=packets_in,deduped,shed,dropped_down,forwarded
  for (std::uint32_t v = 0; v < sim.topology().node_count; ++v) {
    const fleet::NodeTraffic& t = sim.node_traffic(v);
    out << "node" << v << '=' << t.packets_in << ',' << t.deduped << ','
        << t.shed << ',' << t.dropped_down << ',' << t.forwarded << '\n';
  }
  return out.str();
}

// Flooded gossip with relay dedup, a guard bandwidth budget, and links
// that drop, duplicate and jitter (jitter wider than the inter-frame gap
// reorders frames, so delivery order matters).
fleet::ScenarioSpec pinned_gossip_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "pin-gossip";
  spec.seed = 77;
  spec.kind = fleet::TopologyKind::kGossip;
  spec.relays = 8;
  spec.fanin = 2;
  spec.members_per_cohort = 12;
  spec.intervals = 6;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.forged_fraction = 0.9;
  spec.relay_dedup = true;
  spec.guard.capacity = 64;
  spec.guard.budget_mbps = 0.05;
  spec.guard.burst_bits = 1024.0;
  spec.hop.loss = 0.05;
  spec.hop.duplicate_probability = 0.3;
  spec.hop.jitter_us = 3 * sim::kMillisecond;
  return spec;
}

// Flooded grid with a relay crash (plus reboot skew) and a healing
// partition on one root edge.
fleet::ScenarioSpec pinned_grid_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "pin-grid";
  spec.seed = 78;
  spec.kind = fleet::TopologyKind::kGrid;
  spec.rows = 3;
  spec.cols = 3;
  spec.members_per_cohort = 10;
  spec.intervals = 8;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.forged_fraction = 0.6;
  spec.faults.relay_crashes.push_back({4, 2, 2, 150 * sim::kMillisecond});
  spec.faults.partitions.push_back({0, 1, 3, 5});
  return spec;
}

// The goldens pin the relay data plane's observable outcome: a change to
// framing, forwarding or event order that moves any count, RNG draw or
// delivery fails them.
TEST(FleetSim, FloodedGossipRunMatchesPinnedOutcome) {
  fleet::FleetSim sim(pinned_gossip_spec());
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(describe_run(report, sim), R"(total_members=96
cohort_count=8
intervals=6
max_depth=3
announces_sent=6
forged_announces_sent=54
forged_reveals_sent=6
member_auths=280
sentinel_auths=26
forged_accepted=0
announces_unsafe=0
weak_auth_failures=48
dedup_dropped=484
duplicated_frames=243
total_bits=113160
guard_evicted=135
guard_shed=140
guard_false_drops=9
guard_peak_entries=42
guard_capacity=64
relay_restarts=0
dropped_while_down=0
fault_clear_interval=0
reconverge_intervals=
stored_records_peak=992
auth_rate=0.53125
node0=0,0,0,0,0
node1=86,14,21,0,51
node2=149,58,37,0,54
node3=127,57,16,0,54
node4=127,62,10,0,55
node5=139,75,9,0,0
node6=137,69,14,0,54
node7=136,76,6,0,54
node8=162,73,27,0,0
)");
}

TEST(FleetSim, FaultedGridRunMatchesPinnedOutcome) {
  fleet::FleetSim sim(pinned_grid_spec());
  const fleet::FleetReport report = sim.run();
  EXPECT_EQ(describe_run(report, sim), R"(total_members=80
cohort_count=8
intervals=8
max_depth=4
announces_sent=8
forged_announces_sent=8
forged_reveals_sent=8
member_auths=468
sentinel_auths=51
forged_accepted=0
announces_unsafe=2
weak_auth_failures=55
dedup_dropped=94
duplicated_frames=0
total_bits=43344
guard_evicted=0
guard_shed=0
guard_false_drops=0
guard_peak_entries=32
guard_capacity=4096
relay_restarts=1
dropped_while_down=10
fault_clear_interval=5
reconverge_intervals=0,0,1,0,0,
stored_records_peak=279
auth_rate=0.81093749999999998
node0=0,0,0,0,0
node1=24,0,0,0,24
node2=24,0,0,0,24
node3=32,0,0,0,32
node4=56,22,0,10,24
node5=48,22,0,0,26
node6=32,0,0,0,32
node7=56,24,0,0,32
node8=58,26,0,0,0
)");
}

TEST(FleetSim, RelayForwardsTheFrameItReceived) {
  // Chain 0 -> 1 -> 2 under a flood: node 1 forwards the very frame
  // object it received (no copy, no re-encode), and the tag its guard
  // admits is the hash of wire::encode(packet), as when each hop
  // re-encoded the packet itself.
  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.forged_fraction = 0.5;
  fleet::FleetSim sim(spec);
  std::map<std::uint32_t, std::vector<sim::FramePtr>> seen;
  sim.set_ingress_observer(
      [&seen](std::uint32_t node, const sim::FramePtr& frame) {
        seen[node].push_back(frame);
      });
  (void)sim.run();
  ASSERT_EQ(seen[1].size(), sim.node_traffic(1).packets_in);
  ASSERT_EQ(sim.node_traffic(1).forwarded, seen[1].size());
  // Fixed-latency lossless hop: node 2 hears node 1's forwards in order.
  ASSERT_EQ(seen[2].size(), seen[1].size());
  for (std::size_t k = 0; k < seen[1].size(); ++k) {
    EXPECT_EQ(seen[2][k].get(), seen[1][k].get()) << "frame " << k;
  }
  for (const auto& [node, frames] : seen) {
    for (const sim::FramePtr& frame : frames) {
      const common::Bytes encoded = wire::encode(frame->packet());
      EXPECT_TRUE(std::equal(frame->bytes().begin(), frame->bytes().end(),
                             encoded.begin(), encoded.end()));
      EXPECT_EQ(frame->digest(), common::fnv1a64(encoded));
    }
  }
}

TEST(FleetSim, GuardCountersReachRegistry) {
  auto& reg = obs::Registry::global();
  const auto counter_value = [&reg](const char* name) {
    const std::uint64_t* v = reg.find_counter(name);
    return v == nullptr ? 0 : *v;
  };
  const std::uint64_t evicted_before = counter_value("fleet.guard.evicted");
  const std::uint64_t shed_before = counter_value("fleet.guard.shed");
  const std::uint64_t restarts_before = counter_value("fleet.relay_restarts");
  const std::uint64_t d1_shed_before = counter_value("fleet.d1.guard_shed");

  fleet::ScenarioSpec spec = small_tree_spec();
  spec.depth = 2;
  spec.fanout = 1;
  spec.intervals = 5;
  spec.forged_fraction = 0.9;
  spec.guard.capacity = 8;
  spec.guard.burst_bits = 4096.0;
  spec.faults.relay_crashes.push_back({2, 2, 1, 0});
  spec.faults.degraded.push_back({1, 0.01});
  fleet::FleetSim sim(spec);
  const fleet::FleetReport report = sim.run();

  EXPECT_EQ(counter_value("fleet.guard.evicted") - evicted_before,
            report.guard_evicted);
  EXPECT_EQ(counter_value("fleet.guard.shed") - shed_before,
            report.guard_shed);
  EXPECT_EQ(counter_value("fleet.relay_restarts") - restarts_before,
            report.relay_restarts);
  // Per-depth split: the only budgeted relay sits at depth 1, so the
  // whole shed count lands in its bucket.
  EXPECT_EQ(counter_value("fleet.d1.guard_shed") - d1_shed_before,
            report.guard_shed);
  const double* peak = reg.find_gauge("fleet.guard.peak_entries");
  ASSERT_NE(peak, nullptr);
  EXPECT_LE(*peak, static_cast<double>(report.guard_capacity));
}

}  // namespace
}  // namespace dap
