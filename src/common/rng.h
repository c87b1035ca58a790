#pragma once
// Deterministic random number generation.
//
// Every stochastic component in the library (channels, adversaries,
// reservoir buffer selection, Monte-Carlo experiments) draws from an
// explicitly seeded `Rng` so that every experiment is reproducible
// bit-for-bit. The generator is Xoshiro256** seeded via SplitMix64,
// which is both fast and statistically strong for simulation use.
// This is NOT a cryptographic RNG; key material in tests/examples is
// derived from it only for reproducibility of scenarios, never as a
// security claim.

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace dap::common {

/// SplitMix64 step; used for seeding and as a cheap stateless mixer.
/// Inline: the cohort replay draws two per reservoir offer.
inline std::uint64_t splitmix64(std::uint64_t& state) noexcept {
  std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

class Rng {
 public:
  /// Seeds the four 64-bit lanes from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed) noexcept;

  /// Uniform 64-bit word.
  std::uint64_t next_u64() noexcept;

  /// Uniform in [0, 1).
  double next_double() noexcept;

  /// Uniform integer in [lo, hi] inclusive; throws if lo > hi.
  std::uint64_t uniform(std::uint64_t lo, std::uint64_t hi);

  /// True with probability `p` (clamped to [0,1]).
  bool bernoulli(double p) noexcept;

  /// `n` pseudo-random bytes (test/scenario material, not cryptographic).
  Bytes bytes(std::size_t n);

  /// Derives an independent child generator; children with distinct tags
  /// produce independent streams (used to give each node its own RNG).
  [[nodiscard]] Rng fork(std::uint64_t tag) noexcept;

 private:
  std::array<std::uint64_t, 4> s_{};
};

}  // namespace dap::common
