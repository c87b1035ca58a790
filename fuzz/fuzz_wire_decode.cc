// Fuzz harness for the wire codec — the first code that touches
// attacker-controlled bytes.
//
// Properties checked on every input:
//   1. decode() never crashes, whatever the bytes.
//   2. Any accepted packet re-encodes to *exactly* the input bytes
//      (decode is the inverse of encode, so there is a single canonical
//      wire form and no parser differential).
//   3. wire_bits() accounting agrees with the encoded size.
//   4. deframe() is equally total and only ever accepts CRC-consistent
//      frames.
//   5. frame() of any accepted packet deframes back to that packet.

#include <cstdio>
#include <cstdlib>

#include "common/bytes.h"
#include "fuzz_util.h"
#include "wire/crc32.h"
#include "wire/frame.h"
#include "wire/packet.h"

namespace {

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "fuzz_wire_decode: %s\n", what);
  std::abort();
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const dap::common::ByteView view(data, size);

  if (const auto packet = dap::wire::decode(view)) {
    const dap::common::Bytes reencoded = dap::wire::encode(*packet);
    if (reencoded.size() != size ||
        !dap::common::equal(reencoded, view)) {
      fail("decode/encode round-trip is not the identity");
    }
    if (reencoded.size() * 8 != dap::wire::wire_bits(*packet)) {
      fail("wire_bits disagrees with encoded size");
    }
    (void)dap::wire::sender_of(*packet);
    const auto unframed = dap::wire::deframe(dap::wire::frame(*packet));
    if (!unframed || !(*unframed == *packet)) {
      fail("frame/deframe round-trip is not the identity");
    }
  }

  if (const auto framed = dap::wire::deframe(view)) {
    // An accepted frame implies a valid CRC trailer over the payload.
    const dap::common::ByteView payload = view.first(view.size() - 4);
    dap::common::Bytes reencoded = dap::wire::encode(*framed);
    if (!dap::common::equal(reencoded, payload)) {
      fail("deframe accepted a payload that does not re-encode identically");
    }
  }

  return 0;
}
