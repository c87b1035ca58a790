#include "wire/packet.h"

#include "common/codec.h"
#include "common/contracts.h"

namespace dap::wire {

namespace {

// Fixed header: type tag (8) + sender (32).
constexpr std::size_t kHeaderBits = 8 + 32;

// Tags are fixed on the wire; 4 and 6 are retired and decode as unknown.
enum class Tag : std::uint8_t {
  kTesla = 1,
  kMacAnnounce = 2,
  kMessageReveal = 3,
  kCdm = 5,
};

std::size_t blob_bits(const common::Bytes& b) noexcept {
  return 16 + b.size() * 8;  // u16 length prefix + payload
}

}  // namespace

std::size_t TeslaPacket::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(message) + blob_bits(mac) + 32 +
         blob_bits(disclosed_key);
}

std::size_t MacAnnounce::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(mac);
}

std::size_t MessageReveal::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(message) + blob_bits(key);
}

common::Bytes CdmPacket::mac_payload() const {
  common::Writer w;
  w.u32(high_interval);
  w.blob(low_commitment);
  w.blob(next_cdm_image);
  return std::move(w).take();
}

std::size_t CdmPacket::wire_bits() const noexcept {
  return kHeaderBits + 32 + blob_bits(low_commitment) +
         blob_bits(next_cdm_image) + blob_bits(mac) +
         blob_bits(disclosed_high_key);
}

std::size_t wire_bits(const Packet& packet) noexcept {
  return std::visit([](const auto& p) { return p.wire_bits(); }, packet);
}

NodeId sender_of(const Packet& packet) noexcept {
  return std::visit([](const auto& p) { return p.sender; }, packet);
}

common::Bytes encode(const Packet& packet) {
  common::Writer w;
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, TeslaPacket>) {
          w.u8(static_cast<std::uint8_t>(Tag::kTesla));
          w.u32(p.sender);
          w.u32(p.interval);
          w.blob(p.message);
          w.blob(p.mac);
          w.u32(p.disclosed_interval);
          w.blob(p.disclosed_key);
        } else if constexpr (std::is_same_v<T, MacAnnounce>) {
          w.u8(static_cast<std::uint8_t>(Tag::kMacAnnounce));
          w.u32(p.sender);
          w.u32(p.interval);
          w.blob(p.mac);
        } else if constexpr (std::is_same_v<T, MessageReveal>) {
          w.u8(static_cast<std::uint8_t>(Tag::kMessageReveal));
          w.u32(p.sender);
          w.u32(p.interval);
          w.blob(p.message);
          w.blob(p.key);
        } else if constexpr (std::is_same_v<T, CdmPacket>) {
          w.u8(static_cast<std::uint8_t>(Tag::kCdm));
          w.u32(p.sender);
          w.u32(p.high_interval);
          w.blob(p.low_commitment);
          w.blob(p.next_cdm_image);
          w.blob(p.mac);
          w.blob(p.disclosed_high_key);
        }
      },
      packet);
  common::Bytes out = std::move(w).take();
  DAP_ENSURE(out.size() * 8 == wire_bits(packet),
             "encode: serialized size disagrees with wire_bits accounting");
  return out;
}

std::optional<Packet> decode(common::ByteView data) {
  // The bytes themselves are adversarial and must only ever be
  // *rejected* (nullopt), never asserted on; the view's shape is the
  // caller's contract.
  DAP_REQUIRE(data.data() != nullptr || data.empty(),
              "decode: null view with nonzero length");
  common::Reader r(data);
  const auto tag = r.u8();
  if (!tag) return std::nullopt;
  const auto sender = r.u32();
  if (!sender) return std::nullopt;

  switch (static_cast<Tag>(*tag)) {
    case Tag::kTesla: {
      TeslaPacket p;
      p.sender = *sender;
      const auto interval = r.u32();
      auto message = r.blob();
      auto mac = r.blob();
      const auto disclosed_interval = r.u32();
      auto key = r.blob();
      if (!interval || !message || !mac || !disclosed_interval || !key ||
          !r.exhausted()) {
        return std::nullopt;
      }
      p.interval = *interval;
      p.message = std::move(*message);
      p.mac = std::move(*mac);
      p.disclosed_interval = *disclosed_interval;
      p.disclosed_key = std::move(*key);
      return Packet{std::move(p)};
    }
    case Tag::kMacAnnounce: {
      MacAnnounce p;
      p.sender = *sender;
      const auto interval = r.u32();
      auto mac = r.blob();
      if (!interval || !mac || !r.exhausted()) return std::nullopt;
      p.interval = *interval;
      p.mac = std::move(*mac);
      return Packet{std::move(p)};
    }
    case Tag::kMessageReveal: {
      MessageReveal p;
      p.sender = *sender;
      const auto interval = r.u32();
      auto message = r.blob();
      auto key = r.blob();
      if (!interval || !message || !key || !r.exhausted()) return std::nullopt;
      p.interval = *interval;
      p.message = std::move(*message);
      p.key = std::move(*key);
      return Packet{std::move(p)};
    }
    case Tag::kCdm: {
      CdmPacket p;
      p.sender = *sender;
      const auto high = r.u32();
      auto low_commitment = r.blob();
      auto image = r.blob();
      auto mac = r.blob();
      auto disclosed = r.blob();
      if (!high || !low_commitment || !image || !mac || !disclosed ||
          !r.exhausted()) {
        return std::nullopt;
      }
      p.high_interval = *high;
      p.low_commitment = std::move(*low_commitment);
      p.next_cdm_image = std::move(*image);
      p.mac = std::move(*mac);
      p.disclosed_high_key = std::move(*disclosed);
      return Packet{std::move(p)};
    }
  }
  return std::nullopt;
}

}  // namespace dap::wire
