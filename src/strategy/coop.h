#pragma once
// Cooperative verification: gossiping reveal verdicts between cohorts.
//
// Within one drain sweep, FleetSim drains cohorts in node-id order —
// root-ward relays before the leaves behind them. This coordinator
// rides that order as a fleet::DrainParticipant: verdicts harvested
// from already-drained cohorts are installed as hints into each later
// cohort, so followers skip the redundant weak-auth chain walks the
// leaders already performed (ReceiverCohort::install_hints; each
// skipped walk is one ChainAuthenticator::accept the follower saves).
//
// The trust boundary: only *invalid* verdicts are ever acted on, and a
// deterministic audit fraction of skips is re-walked locally. A
// poisoned peer (poisoned mode: the first-drained cohort lies,
// claiming the authentic reveal failed) can therefore suppress
// liveness at un-audited followers but can never cause a forged key to
// authenticate — audits expose the contradiction and the lying source
// (CohortStats::poisoned_hints, strategy.coop.poisoned_rejected).

#include <cstdint>
#include <set>
#include <utility>
#include <vector>

#include "common/bytes.h"
#include "fleet/fleet.h"
#include "fleet/scenario.h"

namespace dap::strategy {

class CoopCoordinator final : public fleet::DrainParticipant {
 public:
  /// Requires spec.strategy.coop.enabled. Install on the sim with
  /// sim.set_drain_participant(&coordinator) before run().
  explicit CoopCoordinator(const fleet::ScenarioSpec& spec);

  void before_drain(std::uint32_t node,
                    fleet::ReceiverCohort& cohort) override;
  void after_drain(std::uint32_t node, fleet::ReceiverCohort& cohort,
                   const std::vector<fleet::RevealOutcome>& outcomes) override;

  /// Hints gossiped across the whole run (honest and poisoned both).
  [[nodiscard]] std::uint64_t verdicts_shared() const noexcept {
    return verdicts_shared_;
  }
  /// Deliberately-false hints the poisoned source emitted.
  [[nodiscard]] std::uint64_t lies_told() const noexcept { return lies_; }

 private:
  double audit_fraction_;
  bool poisoned_;
  std::uint64_t seed_;
  std::uint64_t install_counter_ = 0;
  std::uint64_t verdicts_shared_ = 0;
  std::uint64_t lies_ = 0;
  /// The poisoned identity: the first cohort drained (its lies reach
  /// every follower in the sweep).
  std::uint32_t poison_source_ = 0;
  bool poison_source_set_ = false;
  /// Sweep detection: node ids within a sweep are strictly increasing,
  /// so a non-increasing id starts a new sweep (stale hints dropped).
  std::uint32_t last_node_ = 0;
  bool in_sweep_ = false;
  std::vector<fleet::RevealHint> hints_;
  std::set<std::pair<std::uint32_t, common::Bytes>> seen_;
};

}  // namespace dap::strategy
