#pragma once
// SHA-256 (FIPS 180-4), implemented from scratch.
//
// This is the single cryptographic hash underlying every primitive in the
// library: HMAC, one-way key chains, the pseudorandom function H used by
// EDRP, and the WOTS one-time signature. The streaming interface supports
// incremental input; `sha256()` is the one-shot convenience. There is one
// compression path, sha256_compress, backed by a SHA-NI kernel where the
// CPU has one and by the portable scalar kernel otherwise.

#include <array>
#include <cstdint>

#include "common/bytes.h"

namespace dap::crypto {

inline constexpr std::size_t kSha256DigestSize = 32;
inline constexpr std::size_t kSha256BlockSize = 64;

using Digest = std::array<std::uint8_t, kSha256DigestSize>;

/// Compression-function state captured after absorbing a whole number of
/// 64-byte blocks. A midstate is resumable: restoring it and absorbing
/// the rest of the stream yields the same digest as hashing the whole
/// stream from scratch. HMAC keys cache the ipad/opad midstates so each
/// MAC costs 2 compressions instead of 4 (see crypto/hmac.h).
struct Sha256Midstate {
  std::array<std::uint32_t, 8> state{};
  std::uint64_t bytes = 0;  // absorbed so far; always a multiple of 64
};

/// The FIPS 180-4 initial chaining value (H^(0)) as a midstate.
[[nodiscard]] Sha256Midstate sha256_initial_midstate() noexcept;

/// One application of the SHA-256 compression function: folds a 64-byte
/// block into `state` in place. HMAC keys use it to precompute their
/// ipad/opad midstates, and Sha256 runs every block through it. The
/// kernel is chosen once from CPUID: the SHA-NI instructions where the
/// host has them, else sha256_compress_portable.
void sha256_compress(std::uint32_t state[8],
                     const std::uint8_t* block) noexcept;

/// The scalar FIPS 180-4 compression function: the fallback kernel on
/// hosts without SHA-NI, and the oracle the dispatched kernel is tested
/// against. Everything else calls sha256_compress.
void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* block) noexcept;

/// The kernel sha256_compress dispatches to: "sha-ni" or "portable".
/// Benches record it in their run manifest.
[[nodiscard]] const char* sha256_kernel_name() noexcept;

class Sha256 {
 public:
  Sha256() noexcept;

  /// Absorbs more input; may be called any number of times.
  void update(common::ByteView data) noexcept;

  /// Finalizes and returns the digest. The object must not be reused
  /// afterwards except via reset().
  Digest finalize() noexcept;

  /// Returns the object to its freshly-constructed state.
  void reset() noexcept;

  /// Captures the current compression state. Only valid on block
  /// boundaries (no partial input buffered) — the buffered tail would be
  /// lost. Checked by contract in the implementation.
  [[nodiscard]] Sha256Midstate midstate() const noexcept;

  /// Restores a previously captured midstate: the object behaves as if
  /// it had just absorbed `ms.bytes` bytes of the original stream.
  void restore(const Sha256Midstate& ms) noexcept;

 private:
  void process_block(const std::uint8_t* block) noexcept;

  std::array<std::uint32_t, 8> state_{};
  std::array<std::uint8_t, 64> buffer_{};
  std::size_t buffered_ = 0;
  std::uint64_t total_bytes_ = 0;
};

/// One-shot SHA-256 of `data`.
Digest sha256(common::ByteView data) noexcept;

/// One-shot SHA-256 returned as a Bytes buffer (for APIs that splice it).
common::Bytes sha256_bytes(common::ByteView data);

}  // namespace dap::crypto
