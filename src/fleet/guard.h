#pragma once
// Bounded-resource relay ingress guard.
//
// A relay under flood must not spend memory or forwarding bandwidth in
// proportion to what the adversary sends — that would hand the flooding
// game to the attacker by construction. IngressGuard bounds both:
//
//  * Dedup is a fixed-capacity, power-of-two, hash-slotted tag store
//    (direct-mapped: slot = mix(tag) >> (64 - log2(capacity))). A tag
//    landing on an occupied slot deterministically evicts the previous
//    tenant, so the store never grows past `capacity` entries no matter
//    how many distinct packets a flood generates. The price is that an
//    evicted tag's duplicates are forwarded again (amplification creeps
//    back in, counted as `evicted`), never that the store inflates.
//
//  * Forwarding work is metered by a token bucket (`budget_mbps` -> bits
//    per second per hop, bounded burst). Ingress beyond the budget is
//    shed before it is stored or forwarded, so one hop's worst-case
//    egress is rate-limited regardless of flood intensity. The caller
//    classifies collateral damage: a shed packet it knows to be part of
//    the authentic stream is recorded via note_false_drop().
//
// Everything is deterministic — no RNG, no wall clock, no iteration over
// hash-ordered state — so fleet runs stay bitwise identical at any
// thread count.

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/shaper.h"
#include "sim/time.h"

namespace dap::fleet {

struct GuardConfig {
  /// Tag-store slots; must be a power of two >= 1.
  std::size_t capacity = 4096;
  /// Ingress budget in megabits per second; 0 disables shedding.
  double budget_mbps = 0.0;
  /// Token-bucket depth in bits; <= 0 derives 50 ms worth of budget.
  double burst_bits = 0.0;
  /// When false the tag store is bypassed (budget still applies).
  bool dedup = true;
};

struct GuardStats {
  std::uint64_t admitted = 0;
  std::uint64_t deduped = 0;
  /// Occupied slots overwritten by a different tag (bounded-memory
  /// price: that tag's duplicates would be forwarded again).
  std::uint64_t evicted = 0;
  /// Packets dropped by the bandwidth budget.
  std::uint64_t shed = 0;
  /// Caller-classified authentic packets among the shed (collateral
  /// damage of the bounded defense; see note_false_drop()).
  std::uint64_t false_drops = 0;
};

class IngressGuard {
 public:
  enum class Verdict : std::uint8_t { kAdmit, kDuplicate, kShed };

  /// Contracts (library misuse, not attacker-reachable): capacity must
  /// be a power of two >= 1, budget_mbps and burst_bits finite >= 0.
  explicit IngressGuard(const GuardConfig& config);

  /// Admission decision for one ingress packet identified by `tag`
  /// (e.g. a 64-bit hash of the encoded frame) of `bits` wire bits at
  /// sim time `now`. Order: dedup first (duplicates are dropped without
  /// consuming budget), then the token bucket, then the tag insert —
  /// a shed packet is NOT remembered, so a later retransmission within
  /// budget passes.
  Verdict admit(std::uint64_t tag, std::size_t bits, sim::SimTime now);

  /// Records that a packet this guard shed belonged to the authentic
  /// stream (the caller knows; the guard cannot).
  void note_false_drop() noexcept { ++stats_.false_drops; }

  /// Crash semantics: the tag store and the bucket's debt are volatile —
  /// a restarted relay remembers nothing and starts with a full budget.
  void reset(sim::SimTime now);

  [[nodiscard]] const GuardStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_.size();
  }
  /// Live occupied slots (<= capacity() by construction).
  [[nodiscard]] std::size_t occupancy() const noexcept { return occupancy_; }
  /// High-water mark of occupancy() — the bounded-relay-memory claim is
  /// peak_occupancy() <= capacity(), which holds by construction.
  [[nodiscard]] std::size_t peak_occupancy() const noexcept {
    return peak_occupancy_;
  }

 private:
  [[nodiscard]] std::size_t slot_of(std::uint64_t tag) const noexcept;
  void rebuild_bucket(sim::SimTime now);

  GuardConfig config_;
  /// Direct-mapped tag store; 0 = empty (tag 0 is remapped to 1).
  std::vector<std::uint64_t> slots_;
  std::size_t occupancy_ = 0;
  std::size_t peak_occupancy_ = 0;
  unsigned shift_ = 0;  // 64 - log2(capacity)
  /// Engaged only when budget_mbps > 0.
  std::optional<sim::TokenBucket> bucket_;
  GuardStats stats_;
};

}  // namespace dap::fleet
