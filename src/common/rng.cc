#include "common/rng.h"

#include <bit>
#include <cmath>
#include <stdexcept>

namespace dap::common {

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t sm = seed;
  for (auto& lane : s_) lane = splitmix64(sm);
}

std::uint64_t Rng::next_u64() noexcept {
  const std::uint64_t result = std::rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = std::rotl(s_[3], 45);
  return result;
}

double Rng::next_double() noexcept {
  // 53 uniform mantissa bits -> [0, 1).
  return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

std::uint64_t Rng::uniform(std::uint64_t lo, std::uint64_t hi) {
  if (lo > hi) throw std::invalid_argument("Rng::uniform: lo > hi");
  const std::uint64_t range = hi - lo + 1;  // range==0 means full 2^64 span
  if (range == 0) return next_u64();
  // Rejection sampling to avoid modulo bias.
  const std::uint64_t limit = range * ((~std::uint64_t{0}) / range);
  std::uint64_t v = next_u64();
  while (v >= limit) v = next_u64();
  return lo + (v % range);
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return next_double() < p;
}

Bytes Rng::bytes(std::size_t n) {
  Bytes out;
  out.reserve(n);
  while (out.size() < n) {
    std::uint64_t word = next_u64();
    for (int i = 0; i < 8 && out.size() < n; ++i) {
      out.push_back(static_cast<std::uint8_t>(word >> (8 * i)));
    }
  }
  return out;
}

Rng Rng::fork(std::uint64_t tag) noexcept {
  // Mix the tag into a fresh seed derived from this generator's stream.
  std::uint64_t sm = next_u64() ^ (tag * 0x9e3779b97f4a7c15ULL);
  return Rng(splitmix64(sm));
}

}  // namespace dap::common
