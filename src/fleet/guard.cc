#include "fleet/guard.h"

#include <cmath>

#include "common/contracts.h"

namespace dap::fleet {

namespace {

constexpr double kBitsPerMegabit = 1.0e6;
/// Auto-derived bucket depth: 50 ms worth of the configured rate.
constexpr double kAutoBurstSeconds = 0.05;

bool is_pow2(std::size_t n) noexcept { return n != 0 && (n & (n - 1)) == 0; }

unsigned log2_of_pow2(std::size_t n) noexcept {
  unsigned bits = 0;
  while (n > 1) {
    n >>= 1U;
    ++bits;
  }
  return bits;
}

}  // namespace

IngressGuard::IngressGuard(const GuardConfig& config) : config_(config) {
  DAP_REQUIRE(is_pow2(config.capacity),
              "IngressGuard: capacity must be a power of two >= 1");
  DAP_REQUIRE(std::isfinite(config.budget_mbps) && config.budget_mbps >= 0.0,
              "IngressGuard: budget_mbps must be finite and >= 0");
  DAP_REQUIRE(std::isfinite(config.burst_bits),
              "IngressGuard: burst_bits must be finite");
  slots_.assign(config.capacity, 0);
  shift_ = 64U - log2_of_pow2(config.capacity);
  rebuild_bucket(0);
}

std::size_t IngressGuard::slot_of(std::uint64_t tag) const noexcept {
  // Fibonacci multiply-shift: the tag is already a hash, but taking the
  // TOP bits of a multiply keeps slot choice well mixed even for inputs
  // whose low bits cluster. shift_ == 64 (capacity 1) would be UB on the
  // shift, so special-case the single-slot store.
  if (slots_.size() == 1) return 0;
  return static_cast<std::size_t>((tag * 0x9e3779b97f4a7c15ULL) >> shift_);
}

IngressGuard::Verdict IngressGuard::admit(std::uint64_t tag, std::size_t bits,
                                          sim::SimTime now) {
  if (tag == 0) tag = 1;  // 0 marks an empty slot
  std::uint64_t* slot = nullptr;
  if (config_.dedup) {
    slot = &slots_[slot_of(tag)];
    if (*slot == tag) {
      ++stats_.deduped;
      return Verdict::kDuplicate;
    }
  }
  if (bucket_.has_value() && !bucket_->try_consume(bits, now)) {
    // Shed WITHOUT remembering the tag: a retransmission that arrives
    // once the bucket refills must be admissible.
    ++stats_.shed;
    return Verdict::kShed;
  }
  if (slot != nullptr) {
    if (*slot == 0) {
      ++occupancy_;
      if (occupancy_ > peak_occupancy_) peak_occupancy_ = occupancy_;
    } else {
      ++stats_.evicted;
    }
    *slot = tag;
  }
  ++stats_.admitted;
  return Verdict::kAdmit;
}

void IngressGuard::reset(sim::SimTime now) {
  slots_.assign(slots_.size(), 0);
  occupancy_ = 0;
  rebuild_bucket(now);
}

void IngressGuard::rebuild_bucket(sim::SimTime now) {
  bucket_.reset();
  if (config_.budget_mbps <= 0.0) return;
  const double rate = config_.budget_mbps * kBitsPerMegabit;
  const double burst = config_.burst_bits > 0.0
                           ? config_.burst_bits
                           : rate * kAutoBurstSeconds;
  bucket_.emplace(rate, burst);
  // The bucket starts its clock at 0; advance it to `now` so a guard
  // rebuilt mid-run (crash restart, degraded budget) starts full at the
  // rebuild instant instead of over-refilled.
  (void)bucket_->available(now);
}

}  // namespace dap::fleet
