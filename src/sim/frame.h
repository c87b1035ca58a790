#pragma once
// One transmitted packet, as it travels the simulated network.
//
// A frame is built once, where the packet originates (a sender, an
// attacker, or a fleet injection), and is immutable from then on. Every
// link, every duplicate copy and every downstream relay hop carries the
// same shared object, so no hop re-encodes, copies or re-parses the
// packet. The encoded bytes are exactly wire::encode(packet): what the
// bandwidth model counts, and what the digest a relay dedups on hashes.
//
// wire::frame / wire::deframe (CRC trailer) remain the protocol's wire
// format; the simulated medium never corrupts a frame, so it does not
// run them.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

#include "common/bytes.h"
#include "wire/packet.h"

namespace dap::sim {

class Frame {
 public:
  explicit Frame(wire::Packet packet)
      : packet_(std::move(packet)),
        bytes_(wire::encode(packet_)),
        digest_(common::fnv1a64(bytes_)) {}

  [[nodiscard]] const wire::Packet& packet() const noexcept { return packet_; }
  /// wire::encode(packet()).
  [[nodiscard]] common::ByteView bytes() const noexcept { return bytes_; }
  /// common::fnv1a64(bytes()), computed once: the relay dedup tag.
  [[nodiscard]] std::uint64_t digest() const noexcept { return digest_; }
  /// On-wire size; equals wire::wire_bits(packet()).
  [[nodiscard]] std::size_t bits() const noexcept { return bytes_.size() * 8; }

 private:
  wire::Packet packet_;
  common::Bytes bytes_;
  std::uint64_t digest_;
};

using FramePtr = std::shared_ptr<const Frame>;

[[nodiscard]] inline FramePtr make_frame(wire::Packet packet) {
  return std::make_shared<const Frame>(std::move(packet));
}

}  // namespace dap::sim
