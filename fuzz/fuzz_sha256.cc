// Differential fuzz harness for SHA-256 streaming.
//
// The input's first byte picks how many of the following bytes are
// update() chunk lengths; the rest is the message. The message is
// streamed through Sha256 in chunks whose lengths cycle through those
// bytes (a zero is an empty update()), so the fuzzer steers every
// buffered-tail and padding boundary in update() and finalize().
//
// Properties checked on every input:
//   1. The streamed digest equals the one-shot sha256() digest.
//   2. Both equal a reference that pads one byte at a time and runs
//      only the portable compress kernel, so a fault in the dispatched
//      kernel or in block-wise padding shows up as a mismatch.

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "common/bytes.h"
#include "crypto/sha256.h"
#include "fuzz_util.h"

namespace {

using dap::common::ByteView;
using dap::crypto::Digest;

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_sha256: %s\n", what);
  std::abort();
}

Digest reference_sha256(ByteView data) {
  std::vector<std::uint8_t> msg(data.begin(), data.end());
  const std::uint64_t bit_length = std::uint64_t{msg.size()} * 8;
  msg.push_back(0x80);
  while (msg.size() % dap::crypto::kSha256BlockSize != 56) msg.push_back(0);
  for (int shift = 56; shift >= 0; shift -= 8) {
    msg.push_back(static_cast<std::uint8_t>(bit_length >> shift));
  }
  std::array<std::uint32_t, 8> state =
      dap::crypto::sha256_initial_midstate().state;
  for (std::size_t off = 0; off < msg.size();
       off += dap::crypto::kSha256BlockSize) {
    dap::crypto::sha256_compress_portable(state.data(), msg.data() + off);
  }
  Digest out;
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = static_cast<std::uint8_t>(state[i / 4] >> (24 - 8 * (i % 4)));
  }
  return out;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  dap::fuzz::ByteStream in(data, size);
  const std::vector<std::uint8_t> chunks = in.bytes(in.u8() % 32);
  const std::vector<std::uint8_t> message = in.bytes(in.remaining());
  const ByteView msg(message.data(), message.size());

  dap::crypto::Sha256 streamed;
  std::size_t pos = 0;
  const bool advances = std::any_of(chunks.begin(), chunks.end(),
                                    [](std::uint8_t c) { return c != 0; });
  for (std::size_t i = 0; advances && pos < msg.size(); ++i) {
    const std::size_t take = std::min<std::size_t>(
        chunks[i % chunks.size()], msg.size() - pos);
    streamed.update(msg.subspan(pos, take));
    pos += take;
  }
  streamed.update(msg.subspan(pos));
  const Digest digest = streamed.finalize();

  if (digest != dap::crypto::sha256(msg)) {
    fail("streamed digest differs from the one-shot digest");
  }
  if (digest != reference_sha256(msg)) {
    fail("digest differs from the portable-kernel reference");
  }
  return 0;
}
