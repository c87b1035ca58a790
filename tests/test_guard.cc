// Tests for the bounded-resource relay ingress guard: fixed-capacity
// dedup with deterministic eviction, token-bucket budget shedding, and
// the crash-volatility semantics FleetSim's fault injection relies on.

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "fleet/guard.h"
#include "sim/time.h"

namespace dap {
namespace {

using fleet::GuardConfig;
using fleet::IngressGuard;
using Verdict = fleet::IngressGuard::Verdict;

TEST(IngressGuard, DedupDetectsRepeatsAndSkipsDistinctTags) {
  GuardConfig config;
  config.capacity = 64;
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(0xabcdu, 100, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.admit(0xabcdu, 100, 0), Verdict::kDuplicate);
  EXPECT_EQ(guard.admit(0xef01u, 100, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.stats().admitted, 2u);
  EXPECT_EQ(guard.stats().deduped, 1u);
  EXPECT_EQ(guard.occupancy(), 2u);
}

TEST(IngressGuard, OccupancyNeverExceedsCapacityUnderFlood) {
  GuardConfig config;
  config.capacity = 64;
  IngressGuard guard(config);
  for (std::uint64_t tag = 1; tag <= 10'000; ++tag) {
    (void)guard.admit(tag, 200, 0);
  }
  EXPECT_LE(guard.occupancy(), guard.capacity());
  EXPECT_LE(guard.peak_occupancy(), guard.capacity());
  // Conservation: every admitted tag either filled an empty slot (still
  // occupied) or overwrote a tenant (counted as evicted).
  EXPECT_EQ(guard.stats().admitted, guard.occupancy() + guard.stats().evicted);
  EXPECT_GE(guard.stats().evicted, 10'000u - guard.capacity());
}

TEST(IngressGuard, EvictionIsDeterministic) {
  GuardConfig config;
  config.capacity = 8;
  IngressGuard a(config);
  IngressGuard b(config);
  for (std::uint64_t tag = 1; tag <= 1'000; ++tag) {
    EXPECT_EQ(a.admit(tag * 0x9e37u, 64, 0), b.admit(tag * 0x9e37u, 64, 0));
  }
  EXPECT_EQ(a.stats().evicted, b.stats().evicted);
  EXPECT_EQ(a.occupancy(), b.occupancy());
}

TEST(IngressGuard, SingleSlotStoreWorks) {
  GuardConfig config;
  config.capacity = 1;
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(7, 64, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.admit(7, 64, 0), Verdict::kDuplicate);
  EXPECT_EQ(guard.admit(9, 64, 0), Verdict::kAdmit);  // evicts 7
  EXPECT_EQ(guard.admit(7, 64, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.stats().evicted, 2u);
  EXPECT_EQ(guard.peak_occupancy(), 1u);
}

TEST(IngressGuard, ZeroTagIsRemappedNotTreatedAsEmpty) {
  GuardConfig config;
  config.capacity = 16;
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(0, 64, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.admit(0, 64, 0), Verdict::kDuplicate);
  // Tag 0 and tag 1 share the remapped identity by design.
  EXPECT_EQ(guard.admit(1, 64, 0), Verdict::kDuplicate);
}

TEST(IngressGuard, BudgetShedsExcessThenRefills) {
  GuardConfig config;
  config.capacity = 64;
  config.budget_mbps = 1.0;    // 1e6 bits/s
  config.burst_bits = 1'000;   // ~1 ms of budget in the bucket
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(1, 800, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.admit(2, 800, 0), Verdict::kShed);  // bucket exhausted
  EXPECT_EQ(guard.stats().shed, 1u);
  // 1 ms later the bucket holds another 1000 bits.
  EXPECT_EQ(guard.admit(2, 800, 1 * sim::kMillisecond), Verdict::kAdmit);
}

TEST(IngressGuard, ShedPacketsAreNotRemembered) {
  GuardConfig config;
  config.capacity = 64;
  config.budget_mbps = 1.0;
  config.burst_bits = 1'000;
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(1, 900, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.admit(2, 900, 0), Verdict::kShed);
  // The retransmission arrives within budget: it must be ADMITTED (not
  // treated as a duplicate of the shed copy).
  EXPECT_EQ(guard.admit(2, 900, 2 * sim::kMillisecond), Verdict::kAdmit);
}

TEST(IngressGuard, DuplicatesDoNotConsumeBudget) {
  GuardConfig config;
  config.capacity = 64;
  config.budget_mbps = 1.0;
  config.burst_bits = 1'000;
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(1, 900, 0), Verdict::kAdmit);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(guard.admit(1, 900, 0), Verdict::kDuplicate);
  }
  // The bucket only paid for the single admitted copy.
  EXPECT_EQ(guard.admit(2, 900, 1 * sim::kMillisecond), Verdict::kAdmit);
}

TEST(IngressGuard, DedupDisabledStillEnforcesBudget) {
  GuardConfig config;
  config.capacity = 16;
  config.dedup = false;
  config.budget_mbps = 1.0;
  config.burst_bits = 1'000;
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(1, 600, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.admit(1, 600, 0), Verdict::kShed);  // no dedup, over budget
  EXPECT_EQ(guard.occupancy(), 0u);  // tag store bypassed entirely
}

TEST(IngressGuard, ResetClearsStoreAndRestartsBudgetFull) {
  GuardConfig config;
  config.capacity = 32;
  config.budget_mbps = 1.0;
  config.burst_bits = 1'000;
  IngressGuard guard(config);
  EXPECT_EQ(guard.admit(1, 900, 0), Verdict::kAdmit);
  EXPECT_EQ(guard.admit(2, 900, 0), Verdict::kShed);
  guard.reset(100);
  EXPECT_EQ(guard.occupancy(), 0u);
  // Volatile state is gone: the old tag re-admits, and the bucket is
  // full again at the restart instant.
  EXPECT_EQ(guard.admit(1, 900, 100), Verdict::kAdmit);
  // Cumulative accounting survives the crash.
  EXPECT_EQ(guard.stats().shed, 1u);
  EXPECT_EQ(guard.stats().admitted, 2u);
  EXPECT_EQ(guard.peak_occupancy(), 1u);
}

TEST(IngressGuard, FalseDropsAreCallerClassified) {
  GuardConfig config;
  config.capacity = 8;
  IngressGuard guard(config);
  EXPECT_EQ(guard.stats().false_drops, 0u);
  guard.note_false_drop();
  guard.note_false_drop();
  EXPECT_EQ(guard.stats().false_drops, 2u);
}

}  // namespace
}  // namespace dap
