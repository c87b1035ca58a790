#include "crypto/sha256.h"

#include <bit>
#include <cstring>

#include "common/contracts.h"

#if defined(__x86_64__) && defined(__GNUC__)  // GCC and clang
#define DAP_SHA256_HAVE_SHA_NI 1
#include <cpuid.h>
#include <immintrin.h>
#else
#define DAP_SHA256_HAVE_SHA_NI 0
#endif

namespace dap::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRoundConstants = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

constexpr std::array<std::uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

}  // namespace

Sha256::Sha256() noexcept { reset(); }

void Sha256::reset() noexcept {
  state_ = kInitialState;
  buffered_ = 0;
  total_bytes_ = 0;
}

Sha256Midstate sha256_initial_midstate() noexcept {
  return Sha256Midstate{kInitialState, 0};
}

Sha256Midstate Sha256::midstate() const noexcept {
  DAP_REQUIRE(buffered_ == 0,
              "Sha256::midstate: only valid on a block boundary");
  return Sha256Midstate{state_, total_bytes_};
}

void Sha256::restore(const Sha256Midstate& ms) noexcept {
  state_ = ms.state;
  buffered_ = 0;
  total_bytes_ = ms.bytes;
}

void sha256_compress_portable(std::uint32_t state[8],
                              const std::uint8_t* block) noexcept {
  std::array<std::uint32_t, 64> w;
  for (int i = 0; i < 16; ++i) {
    w[static_cast<std::size_t>(i)] = load_be32(block + 4 * i);
  }
  for (std::size_t i = 16; i < 64; ++i) {
    const std::uint32_t s0 = std::rotr(w[i - 15], 7) ^ std::rotr(w[i - 15], 18) ^
                             (w[i - 15] >> 3);
    const std::uint32_t s1 = std::rotr(w[i - 2], 17) ^ std::rotr(w[i - 2], 19) ^
                             (w[i - 2] >> 10);
    w[i] = w[i - 16] + s0 + w[i - 7] + s1;
  }

  std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
  std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

  for (std::size_t i = 0; i < 64; ++i) {
    const std::uint32_t s1 =
        std::rotr(e, 6) ^ std::rotr(e, 11) ^ std::rotr(e, 25);
    const std::uint32_t ch = (e & f) ^ (~e & g);
    const std::uint32_t temp1 = h + s1 + ch + kRoundConstants[i] + w[i];
    const std::uint32_t s0 =
        std::rotr(a, 2) ^ std::rotr(a, 13) ^ std::rotr(a, 22);
    const std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
    const std::uint32_t temp2 = s0 + maj;
    h = g;
    g = f;
    f = e;
    e = d + temp1;
    d = c;
    c = b;
    b = a;
    a = temp1 + temp2;
  }

  state[0] += a;
  state[1] += b;
  state[2] += c;
  state[3] += d;
  state[4] += e;
  state[5] += f;
  state[6] += g;
  state[7] += h;
}

namespace {

#if DAP_SHA256_HAVE_SHA_NI

// The SHA-NI kernel. The instructions keep the working variables as two
// vectors, ABEF and CDGH (a in the top lane); each sha256rnds2 runs two
// rounds, and sha256msg1/msg2 extend the message schedule four words at
// a time. Compiled for the extension with a function-level target, so
// the rest of the build needs no -m flag; only called when CPUID says
// the host has it.
#define DAP_SHA_NI_TARGET __attribute__((target("sha,sse4.1,ssse3")))

// Four big-endian message words.
DAP_SHA_NI_TARGET inline __m128i sha_ni_load(const std::uint8_t* p,
                                             __m128i byte_swap) noexcept {
  return _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)), byte_swap);
}

// Rounds i..i+3 on message words w = W[i..i+3].
DAP_SHA_NI_TARGET inline void sha_ni_rounds4(__m128i& abef, __m128i& cdgh,
                                             __m128i w,
                                             std::size_t i) noexcept {
  const __m128i wk = _mm_add_epi32(
      w, _mm_loadu_si128(
             reinterpret_cast<const __m128i*>(kRoundConstants.data() + i)));
  cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
  abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
}

// W[t..t+3] from the previous sixteen words, oldest group first.
DAP_SHA_NI_TARGET inline __m128i sha_ni_schedule(__m128i w0, __m128i w1,
                                                 __m128i w2,
                                                 __m128i w3) noexcept {
  const __m128i x = _mm_add_epi32(_mm_sha256msg1_epu32(w0, w1),
                                  _mm_alignr_epi8(w3, w2, 4));
  return _mm_sha256msg2_epu32(x, w3);
}

DAP_SHA_NI_TARGET void sha256_compress_sha_ni(
    std::uint32_t state[8], const std::uint8_t* block) noexcept {
  const __m128i byte_swap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // {a,b,c,d}, {e,f,g,h} -> ABEF, CDGH.
  const __m128i badc = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  const __m128i hgfe = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(badc, hgfe, 8);
  __m128i cdgh = _mm_blend_epi16(hgfe, badc, 0xF0);
  const __m128i abef_in = abef;
  const __m128i cdgh_in = cdgh;

  __m128i w0 = sha_ni_load(block, byte_swap);
  __m128i w1 = sha_ni_load(block + 16, byte_swap);
  __m128i w2 = sha_ni_load(block + 32, byte_swap);
  __m128i w3 = sha_ni_load(block + 48, byte_swap);
  for (std::size_t i = 0; i < 48; i += 16) {
    sha_ni_rounds4(abef, cdgh, w0, i);
    w0 = sha_ni_schedule(w0, w1, w2, w3);
    sha_ni_rounds4(abef, cdgh, w1, i + 4);
    w1 = sha_ni_schedule(w1, w2, w3, w0);
    sha_ni_rounds4(abef, cdgh, w2, i + 8);
    w2 = sha_ni_schedule(w2, w3, w0, w1);
    sha_ni_rounds4(abef, cdgh, w3, i + 12);
    w3 = sha_ni_schedule(w3, w0, w1, w2);
  }
  sha_ni_rounds4(abef, cdgh, w0, 48);
  sha_ni_rounds4(abef, cdgh, w1, 52);
  sha_ni_rounds4(abef, cdgh, w2, 56);
  sha_ni_rounds4(abef, cdgh, w3, 60);
  abef = _mm_add_epi32(abef, abef_in);
  cdgh = _mm_add_epi32(cdgh, cdgh_in);

  // ABEF, CDGH -> {a,b,c,d}, {e,f,g,h}.
  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}

// CPUID leaf 7 EBX bit 29 is SHA; the kernel also uses SSSE3 (leaf 1
// ECX bit 9) and SSE4.1 (bit 19).
bool host_has_sha_ni() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx) == 0) return false;
  const bool sse = (ecx & (1u << 9)) != 0 && (ecx & (1u << 19)) != 0;
  if (!sse || __get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (ebx & (1u << 29)) != 0;
}

#endif  // DAP_SHA256_HAVE_SHA_NI

struct Kernel {
  void (*compress)(std::uint32_t*, const std::uint8_t*) noexcept;
  const char* name;
};

// Chosen once, on first use, from CPUID.
const Kernel& kernel() noexcept {
  static const Kernel chosen = [] {
#if DAP_SHA256_HAVE_SHA_NI
    if (host_has_sha_ni()) return Kernel{sha256_compress_sha_ni, "sha-ni"};
#endif
    return Kernel{sha256_compress_portable, "portable"};
  }();
  return chosen;
}

}  // namespace

void sha256_compress(std::uint32_t state[8],
                     const std::uint8_t* block) noexcept {
  kernel().compress(state, block);
}

const char* sha256_kernel_name() noexcept { return kernel().name; }

void Sha256::process_block(const std::uint8_t* block) noexcept {
  sha256_compress(state_.data(), block);
}

void Sha256::update(common::ByteView data) noexcept {
  total_bytes_ += data.size();
  std::size_t offset = 0;
  if (buffered_ > 0) {
    const std::size_t need = 64 - buffered_;
    const std::size_t take = data.size() < need ? data.size() : need;
    std::memcpy(buffer_.data() + buffered_, data.data(), take);
    buffered_ += take;
    offset = take;
    if (buffered_ == 64) {
      process_block(buffer_.data());
      buffered_ = 0;
    }
  }
  while (offset + 64 <= data.size()) {
    process_block(data.data() + offset);
    offset += 64;
  }
  if (offset < data.size()) {
    std::memcpy(buffer_.data(), data.data() + offset, data.size() - offset);
    buffered_ = data.size() - offset;
  }
}

Digest Sha256::finalize() noexcept {
  const std::uint64_t bit_length = total_bytes_ * 8;
  // Padding: 0x80, zeros up to 56 mod 64, then the 64-bit big-endian bit
  // length. A tail longer than 55 bytes leaves no room for the length,
  // so it spills into a second block.
  buffer_[buffered_++] = 0x80;
  if (buffered_ > 56) {
    std::memset(buffer_.data() + buffered_, 0, 64 - buffered_);
    process_block(buffer_.data());
    buffered_ = 0;
  }
  std::memset(buffer_.data() + buffered_, 0, 56 - buffered_);
  store_be32(buffer_.data() + 56,
             static_cast<std::uint32_t>(bit_length >> 32));
  store_be32(buffer_.data() + 60, static_cast<std::uint32_t>(bit_length));
  process_block(buffer_.data());

  Digest out;
  for (std::size_t i = 0; i < 8; ++i) {
    store_be32(out.data() + 4 * i, state_[i]);
  }
  return out;
}

Digest sha256(common::ByteView data) noexcept {
  Sha256 h;
  h.update(data);
  return h.finalize();
}

common::Bytes sha256_bytes(common::ByteView data) {
  const Digest d = sha256(data);
  return common::Bytes(d.begin(), d.end());
}

}  // namespace dap::crypto
