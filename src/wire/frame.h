#pragma once
// Link-layer framing: packet bytes + CRC-32 trailer.
//
// `deframe` drops a frame whose CRC does not match the way real link
// hardware would, so the protocol layer sees only intact packets or
// losses.

#include <optional>

#include "common/bytes.h"
#include "wire/packet.h"

namespace dap::wire {

/// encode(packet) + 32-bit CRC trailer.
common::Bytes frame(const Packet& packet);

/// Verifies CRC and decodes; nullopt on CRC mismatch or malformed payload.
std::optional<Packet> deframe(common::ByteView bytes);

}  // namespace dap::wire
