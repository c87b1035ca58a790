#include "wire/frame.h"

#include "common/codec.h"
#include "common/contracts.h"
#include "wire/crc32.h"

namespace dap::wire {

common::Bytes frame(const Packet& packet) {
  common::Bytes payload = encode(packet);
  const std::uint32_t crc = crc32(payload);
  common::Writer w;
  w.raw(payload);
  w.u32(crc);
  common::Bytes out = std::move(w).take();
  DAP_ENSURE(out.size() == payload.size() + 4,
             "frame: trailer must be exactly the 32-bit CRC");
  return out;
}

std::optional<Packet> deframe(common::ByteView bytes) {
  if (bytes.size() < 4) return std::nullopt;
  const common::ByteView payload = bytes.first(bytes.size() - 4);
  common::Reader trailer(bytes.subspan(bytes.size() - 4));
  const auto crc = trailer.u32();
  if (!crc || *crc != crc32(payload)) return std::nullopt;
  return decode(payload);
}

}  // namespace dap::wire
