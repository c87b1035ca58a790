#pragma once
// Domain-separated pseudorandom functions.
//
// TESLA-family protocols need several *independent* one-way functions from
// the same primitive: F0 (high-level chain step), F1 (low-level chain
// step), F01 (level-connecting function; re-targeted by EFTP), F' (MAC-key
// derivation, so the chain key itself is never used directly as a MAC
// key), and H (the CDM image function of EDRP). Independence is obtained
// by HMAC with a fixed per-domain label, which is the standard PRF
// construction.

#include <cstdint>
#include <string_view>

#include "common/bytes.h"
#include "crypto/hmac.h"
#include "crypto/sha256.h"

namespace dap::crypto {

/// The distinct one-way function domains used across the protocol family.
enum class PrfDomain : std::uint8_t {
  kChainStep = 0,       // F  : TESLA / μTESLA single-level chain
  kHighChainStep = 1,   // F0 : multi-level high-level chain
  kLowChainStep = 2,    // F1 : multi-level low-level chain
  kLevelConnect = 3,    // F01: connects high-level key to a low-level chain
  kMacKey = 4,          // F' : derives the MAC key from a chain key
  kCdmImage = 5,        // H  : EDRP's CDM commitment image
  kReceiverLocal = 6,   // derives per-receiver local secrets (K_recv)
};

/// Human-readable label for a domain (used in traces/tests).
std::string_view domain_label(PrfDomain domain) noexcept;

/// The precomputed HMAC key for `domain`. Domain labels are compile-time
/// constants, so the ipad/opad midstates are computed once per process and
/// every PRF evaluation (chain steps, key derivation, CDM images) pays 2
/// compressions instead of 4.
const HmacKey& prf_key(PrfDomain domain) noexcept;

/// PRF_domain(input): 32-byte one-way image of `input` under `domain`.
Digest prf(PrfDomain domain, common::ByteView input) noexcept;

/// Same, as a Bytes buffer truncated/kept at `out_len` bytes (<= 32).
/// Throws std::invalid_argument if out_len > 32 or 0.
common::Bytes prf_bytes(PrfDomain domain, common::ByteView input,
                        std::size_t out_len = kSha256DigestSize);

}  // namespace dap::crypto
