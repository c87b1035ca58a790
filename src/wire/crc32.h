#pragma once
// CRC-32 (IEEE 802.3 polynomial, reflected) for link-layer framing.
//
// CRC catches corrupted frames the way a real link layer would, so
// protocol code above only ever sees whole, uncorrupted packets (or
// nothing). CRC is NOT a security mechanism — authenticity comes from
// the MACs.

#include <cstdint>

#include "common/bytes.h"

namespace dap::wire {

std::uint32_t crc32(common::ByteView data) noexcept;

}  // namespace dap::wire
