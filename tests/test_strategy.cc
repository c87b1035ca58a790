// Tests for src/strategy: the adaptive replicator adversary, Sybil
// cohorts, cooperative verification, and the MABS batch-signature
// baseline — the pieces that close the evolutionary-game loop online.

#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>

#include "fleet/scenario.h"
#include "strategy/mabs.h"
#include "strategy/runner.h"

namespace dap {
namespace {

// Mirrors bench/game_loop's ESS sweep base: small reservoir (m = 2) and
// a heavy flood so the oracle share sits in the interior.
fleet::ScenarioSpec adaptive_base() {
  fleet::ScenarioSpec spec;
  spec.name = "strategy-test";
  spec.seed = 42;
  spec.buffers = 2;
  spec.members_per_cohort = 12;
  spec.intervals = 32;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.forged_fraction = 0.75;
  spec.strategy.adaptive.enabled = true;
  return spec;
}

fleet::ScenarioSpec tree_spec() {
  auto spec = adaptive_base();
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 1;
  return spec;
}

fleet::ScenarioSpec gossip_spec() {
  auto spec = adaptive_base();
  spec.kind = fleet::TopologyKind::kGossip;
  spec.relays = 4;
  spec.fanin = 2;
  return spec;
}

fleet::ScenarioSpec flood_spec() {
  auto spec = adaptive_base();
  spec.kind = fleet::TopologyKind::kFlood;
  spec.receivers = 3;
  return spec;
}

fleet::ScenarioSpec sybil_spec() {
  fleet::ScenarioSpec spec;
  spec.name = "strategy-test";
  spec.seed = 7;
  spec.kind = fleet::TopologyKind::kGossip;
  spec.relays = 3;
  spec.fanin = 2;
  spec.members_per_cohort = 6;
  spec.intervals = 16;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.strategy.sybil.enabled = true;
  spec.strategy.sybil.cohort = 4;
  return spec;
}

fleet::ScenarioSpec coop_spec(bool enabled, bool poisoned) {
  fleet::ScenarioSpec spec;
  spec.name = "strategy-test";
  spec.seed = 11;
  spec.kind = fleet::TopologyKind::kTree;
  spec.depth = 2;
  spec.fanout = 2;
  spec.members_per_cohort = 8;
  spec.intervals = 16;
  spec.interval_us = 200 * sim::kMillisecond;
  spec.forged_fraction = 0.5;
  spec.strategy.coop.enabled = enabled;
  spec.strategy.coop.audit_fraction = 0.5;
  spec.strategy.coop.poisoned = poisoned;
  return spec;
}

// ---------------------------------------------------- adaptive adversary

// Acceptance criterion of the PR: the online learner's empirical attack
// share lands within tolerance of the offline ESS oracle on at least
// three distinct scenario kinds. Tolerance matches bench/game_loop's
// gate (the sentinel feedback bias is documented there).
TEST(Strategy, AdaptiveAttackerTracksOracleAcrossTopologies) {
  const fleet::ScenarioSpec specs[] = {tree_spec(), gossip_spec(),
                                       flood_spec()};
  for (const auto& spec : specs) {
    const auto outcome = strategy::run_scenario(spec);
    EXPECT_GT(outcome.attacks_launched, 0u) << spec.id();
    EXPECT_EQ(outcome.report.forged_accepted, 0u) << spec.id();
    EXPECT_GT(outcome.oracle_share, 0.0) << spec.id();
    EXPECT_DOUBLE_EQ(outcome.oracle_share,
                     strategy::oracle_attack_share(spec))
        << spec.id();
    EXPECT_LE(outcome.ess_gap, 0.2)
        << spec.id() << " measured=" << outcome.attacker_share
        << " oracle=" << outcome.oracle_share;
  }
}

TEST(Strategy, OracleAttackShareRequiresAdaptiveSpec) {
  fleet::ScenarioSpec plain;
  EXPECT_THROW((void)strategy::oracle_attack_share(plain),
               std::invalid_argument);
}

TEST(Strategy, AdaptiveRunIsDeterministicInTheSeed) {
  const auto spec = tree_spec();
  const auto a = strategy::run_scenario(spec);
  const auto b = strategy::run_scenario(spec);
  EXPECT_DOUBLE_EQ(a.attacker_share, b.attacker_share);
  EXPECT_EQ(a.attacks_launched, b.attacks_launched);
  EXPECT_EQ(a.report.member_auths, b.report.member_auths);
}

// ------------------------------------------------------------ sybil

// The coordinated cohort floods announces and staggered reveals built on
// a forged chain; the ingress guards and chain-anchor checks must hold
// the line — zero forged authentications while the cohort is active.
TEST(Strategy, SybilCohortNeverAuthenticates) {
  const auto outcome = strategy::run_scenario(sybil_spec());
  EXPECT_GT(outcome.sybil_announces, 0u);
  EXPECT_GT(outcome.sybil_reveals, 0u);
  EXPECT_EQ(outcome.report.forged_accepted, 0u);
  // Authentic traffic still flows under the Sybil flood.
  EXPECT_GT(outcome.report.member_auths, 0u);
}

// ----------------------------------------------------- cooperative

TEST(Strategy, CoopSharingSkipsWalksWithoutChangingOutcomes) {
  const auto baseline = strategy::run_scenario(coop_spec(false, false));
  const auto coop = strategy::run_scenario(coop_spec(true, false));
  // Honest verdict sharing is an optimization, not a behavior change.
  EXPECT_EQ(coop.report.member_auths, baseline.report.member_auths);
  EXPECT_EQ(coop.report.sentinel_auths, baseline.report.sentinel_auths);
  EXPECT_EQ(coop.report.forged_accepted, 0u);
  EXPECT_GT(coop.coop_verdicts_shared, 0u);
  EXPECT_GT(coop.coop_walks_skipped, 0u);
  EXPECT_EQ(baseline.coop_verdicts_shared, 0u);
}

TEST(Strategy, PoisonedVerdictsAreAuditedAndNeverAdmitForgeries) {
  const auto outcome = strategy::run_scenario(coop_spec(true, true));
  // The audits catch the liar; invalid-verdicts-only trust means the
  // worst case is lost work, never a forged acceptance.
  EXPECT_GT(outcome.coop_poisoned_rejected, 0u);
  EXPECT_GT(outcome.coop_hint_audits, 0u);
  EXPECT_EQ(outcome.report.forged_accepted, 0u);
}

// ------------------------------------------------------------- MABS

TEST(Strategy, MabsAuthenticatesImmediatelyWithZeroStoredState) {
  strategy::MabsConfig config;
  config.seed = 42;
  config.intervals = 12;
  config.packets_per_interval = 8;
  config.forged_per_interval = 16;
  config.signer_height = 6;
  const auto report = strategy::run_mabs(config);
  EXPECT_TRUE(report.zero_forged());
  EXPECT_EQ(report.forged_sent, 12u * 16u);
  EXPECT_EQ(report.authenticated, report.packets_sent);
  EXPECT_DOUBLE_EQ(report.auth_rate, 1.0);
  // The headline structural property: no buffering window at all.
  EXPECT_EQ(report.stored_records, 0u);
  // Root signatures verify once per batch, not once per packet.
  EXPECT_EQ(report.signature_verifications, 12u);
  EXPECT_GE(report.path_verifications, report.packets_sent);
  EXPECT_GT(report.bits_sent, 0u);
}

TEST(Strategy, MabsRejectsInvalidConfigs) {
  strategy::MabsConfig zero_batch;
  zero_batch.packets_per_interval = 0;
  EXPECT_THROW((void)strategy::run_mabs(zero_batch), std::invalid_argument);

  strategy::MabsConfig exhausted;
  exhausted.intervals = 64;
  exhausted.signer_height = 3;  // 2^3 = 8 roots < 64 intervals
  EXPECT_THROW((void)strategy::run_mabs(exhausted), std::invalid_argument);
}

// ---------------------------------------------------- scenario plumbing

TEST(Strategy, StrategyBlockRoundTripsThroughJson) {
  auto spec = tree_spec();
  spec.strategy.adaptive.learning_rate = 0.4;
  spec.strategy.sybil.enabled = true;
  spec.strategy.sybil.cohort = 5;
  spec.strategy.coop.enabled = true;
  spec.strategy.coop.audit_fraction = 0.75;
  spec.strategy.coop.poisoned = true;
  const auto parsed = fleet::ScenarioSpec::parse(spec.to_json());
  EXPECT_EQ(parsed.to_json(), spec.to_json());
  EXPECT_TRUE(parsed.strategy.adaptive.enabled);
  EXPECT_DOUBLE_EQ(parsed.strategy.adaptive.learning_rate, 0.4);
  EXPECT_EQ(parsed.strategy.sybil.cohort, 5u);
  EXPECT_TRUE(parsed.strategy.coop.poisoned);
}

TEST(Strategy, DisengagedStrategyBlockIsOmittedFromJson) {
  fleet::ScenarioSpec plain;
  EXPECT_EQ(plain.to_json().find("strategy"), std::string::npos);
}

// Satellite of this PR: strict-parse errors must name the full JSON key
// path so a typo deep in the strategy block is diagnosable.
TEST(Strategy, ParseErrorsNameTheFullStrategyKeyPath) {
  auto spec = tree_spec();
  auto json = spec.to_json();
  const std::string needle = "\"learning_rate\": 0.25";
  const auto at = json.find(needle);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, needle.size(), "\"learning_rate\": \"fast\"");
  try {
    (void)fleet::ScenarioSpec::parse(json);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("strategy.adaptive.learning_rate"),
              std::string::npos)
        << e.what();
  }
}

TEST(Strategy, UnknownStrategyKeysAreRejectedWithTheirPath) {
  auto spec = coop_spec(true, false);
  spec.forged_fraction = 0.0;
  auto json = spec.to_json();
  const std::string needle = "\"audit_fraction\"";
  const auto at = json.find(needle);
  ASSERT_NE(at, std::string::npos) << json;
  json.replace(at, needle.size(), "\"audit_fractino\"");
  try {
    (void)fleet::ScenarioSpec::parse(json);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("strategy.coop"), std::string::npos) << what;
    EXPECT_NE(what.find("audit_fractino"), std::string::npos) << what;
  }
}

TEST(Strategy, ValidateRejectsAdaptiveWithoutFlood) {
  auto spec = tree_spec();
  spec.forged_fraction = 0.0;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  // NaN is not a flood intensity, and not an initial share either.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  spec.forged_fraction = nan;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
  spec = tree_spec();
  spec.strategy.adaptive.initial_share = nan;
  EXPECT_THROW(spec.validate(), std::invalid_argument);
}

}  // namespace
}  // namespace dap
