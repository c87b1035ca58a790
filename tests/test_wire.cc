// Unit tests for src/wire: CRC-32, packet encode/decode round-trips,
// framing, corruption detection, and wire-size accounting.

#include <gtest/gtest.h>

#include <string_view>

#include "common/rng.h"
#include "wire/crc32.h"
#include "wire/frame.h"
#include "wire/packet.h"

namespace dap::wire {
namespace {

using common::Bytes;
using common::bytes_of;

// ----------------------------------------------------------------- CRC32

TEST(Crc32, KnownVectors) {
  // Standard check value for "123456789".
  EXPECT_EQ(crc32(bytes_of("123456789")), 0xcbf43926u);
  EXPECT_EQ(crc32({}), 0x00000000u);
  EXPECT_EQ(crc32(bytes_of("a")), 0xe8b7be43u);
}

TEST(Crc32, DetectsSingleBitFlip) {
  Bytes data = bytes_of("some payload data");
  const std::uint32_t original = crc32(data);
  data[3] ^= 0x10;
  EXPECT_NE(crc32(data), original);
}

// --------------------------------------------------------------- packets

TeslaPacket sample_tesla() {
  TeslaPacket p;
  p.sender = 7;
  p.interval = 42;
  p.message = bytes_of("hello sensors");
  p.mac = Bytes(10, 0xab);
  p.disclosed_interval = 40;
  p.disclosed_key = Bytes(10, 0xcd);
  return p;
}

TEST(Packet, TeslaRoundTrip) {
  const Packet original{sample_tesla()};
  const auto decoded = decode(encode(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), sample_tesla());
}

TEST(Packet, MacAnnounceRoundTrip) {
  MacAnnounce p;
  p.sender = 3;
  p.interval = 9;
  p.mac = Bytes(10, 0x55);
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MacAnnounce>(*decoded), p);
}

TEST(Packet, MessageRevealRoundTrip) {
  MessageReveal p;
  p.sender = 3;
  p.interval = 9;
  p.message = bytes_of("reading=42");
  p.key = Bytes(10, 0x66);
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<MessageReveal>(*decoded), p);
}

TEST(Packet, CdmRoundTrip) {
  CdmPacket p;
  p.sender = 2;
  p.high_interval = 6;
  p.low_commitment = Bytes(10, 0x88);
  p.next_cdm_image = Bytes(32, 0x99);
  p.mac = Bytes(10, 0xaa);
  p.disclosed_high_key = Bytes(10, 0xbb);
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<CdmPacket>(*decoded), p);
}

TEST(Packet, EmptyFieldsRoundTrip) {
  TeslaPacket p;
  p.sender = 1;
  p.interval = 1;
  // message, mac, disclosed_key all empty
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), p);
}

TEST(Packet, DecodeRejectsEmptyAndUnknownTag) {
  EXPECT_FALSE(decode({}).has_value());
  const Bytes unknown = {0xee, 1, 0, 0, 0};
  EXPECT_FALSE(decode(unknown).has_value());
}

TEST(Packet, DecodeRejectsTruncation) {
  const Bytes full = encode(Packet{sample_tesla()});
  for (std::size_t cut = 1; cut < full.size(); ++cut) {
    const common::ByteView prefix(full.data(), full.size() - cut);
    EXPECT_FALSE(decode(prefix).has_value()) << "cut " << cut;
  }
}

TEST(Packet, DecodeRejectsTrailingGarbage) {
  Bytes data = encode(Packet{sample_tesla()});
  data.push_back(0x00);
  EXPECT_FALSE(decode(data).has_value());
}

TEST(Packet, SenderOfAllKinds) {
  EXPECT_EQ(sender_of(Packet{sample_tesla()}), 7u);
  MacAnnounce a;
  a.sender = 9;
  EXPECT_EQ(sender_of(Packet{a}), 9u);
}

TEST(Packet, WireBitsAccounting) {
  // MacAnnounce: header (8+32) + interval 32 + mac blob (16 + 80) = 168.
  MacAnnounce a;
  a.mac = Bytes(10, 0);
  EXPECT_EQ(a.wire_bits(), 8u + 32 + 32 + 16 + 80);
  // A MAC-only announce must be much smaller than a full TESLA packet.
  EXPECT_LT(wire_bits(Packet{a}), wire_bits(Packet{sample_tesla()}));
}

TEST(Packet, WireBitsMatchesEncodedSizeOrder) {
  // encode() length in bits should track wire_bits (same fields).
  const Packet p{sample_tesla()};
  EXPECT_EQ(encode(p).size() * 8, wire_bits(p));
}

// ----------------------------------------------------------------- frame

TEST(Frame, RoundTrip) {
  const Packet p{sample_tesla()};
  const auto decoded = deframe(frame(p));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), sample_tesla());
}

TEST(Frame, DetectsCorruptionAnywhere) {
  const Bytes framed = frame(Packet{sample_tesla()});
  common::Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    Bytes copy = framed;
    const auto pos = static_cast<std::size_t>(
        rng.uniform(0, copy.size() - 1));
    const auto bit = static_cast<int>(rng.uniform(0, 7));
    copy[pos] = static_cast<std::uint8_t>(copy[pos] ^ (1u << bit));
    EXPECT_FALSE(deframe(copy).has_value());
  }
}

TEST(Frame, RejectsTooShort) {
  EXPECT_FALSE(deframe(Bytes{1, 2, 3}).has_value());
  EXPECT_FALSE(deframe({}).has_value());
}

}  // namespace
}  // namespace dap::wire

// ------------------------------------------- malformed-input decode table
//
// One canonical instance per wire message kind, run through the same set
// of adversarial shapes: truncation at every byte, oversized input
// (trailing garbage), a length prefix claiming more bytes than remain
// ("bad index" into the payload), and single-bit flips at every position.
// Decode must never crash; where rejection is guaranteed it must return
// nullopt, and any accepted mutation must still be a canonical encoding.

namespace dap::wire {
namespace {

using common::Bytes;
using common::bytes_of;

struct MalformedCase {
  const char* name;
  Packet packet;
  // Offset of the first u16 blob length prefix in the encoding (after the
  // tag, sender, and any fixed-width integer fields).
  std::size_t first_blob_offset;
};

std::vector<MalformedCase> malformed_cases() {
  TeslaPacket tesla;
  tesla.sender = 7;
  tesla.interval = 42;
  tesla.message = bytes_of("hello sensors");
  tesla.mac = Bytes(10, 0xab);
  tesla.disclosed_interval = 40;
  tesla.disclosed_key = Bytes(10, 0xcd);

  MacAnnounce announce;
  announce.sender = 3;
  announce.interval = 9;
  announce.mac = Bytes(10, 0x55);

  MessageReveal reveal;
  reveal.sender = 3;
  reveal.interval = 9;
  reveal.message = bytes_of("reading=42");
  reveal.key = Bytes(10, 0x66);

  CdmPacket cdm;
  cdm.sender = 2;
  cdm.high_interval = 6;
  cdm.low_commitment = Bytes(10, 0x88);
  cdm.next_cdm_image = Bytes(32, 0x99);
  cdm.mac = Bytes(10, 0xaa);
  cdm.disclosed_high_key = Bytes(10, 0xbb);

  // tag(1) + sender(4) + one u32(4) = 9 for every kind.
  return {
      {"tesla", Packet{tesla}, 9},
      {"mac_announce", Packet{announce}, 9},
      {"message_reveal", Packet{reveal}, 9},
      {"cdm", Packet{cdm}, 9},
  };
}

TEST(PacketMalformed, TruncationRejectedForEveryKind) {
  for (const auto& c : malformed_cases()) {
    const Bytes full = encode(c.packet);
    for (std::size_t len = 0; len < full.size(); ++len) {
      const common::ByteView prefix(full.data(), len);
      EXPECT_FALSE(decode(prefix).has_value())
          << c.name << " accepted a " << len << "-byte prefix";
    }
  }
}

TEST(PacketMalformed, OversizedInputRejectedForEveryKind) {
  for (const auto& c : malformed_cases()) {
    Bytes data = encode(c.packet);
    data.push_back(0x00);
    EXPECT_FALSE(decode(data).has_value())
        << c.name << " accepted one trailing byte";
    data.insert(data.end(), 64, 0xff);
    EXPECT_FALSE(decode(data).has_value())
        << c.name << " accepted 65 trailing bytes";
  }
}

TEST(PacketMalformed, OversizedLengthPrefixRejectedForEveryKind) {
  for (const auto& c : malformed_cases()) {
    Bytes data = encode(c.packet);
    ASSERT_GT(data.size(), c.first_blob_offset + 1) << c.name;
    // Claim 0xffff bytes in the first blob: far more than remain.
    data[c.first_blob_offset] = 0xff;
    data[c.first_blob_offset + 1] = 0xff;
    EXPECT_FALSE(decode(data).has_value())
        << c.name << " accepted an oversized length prefix";
    // Off-by-one: claim exactly one byte more than the blob carries.
    Bytes one_more = encode(c.packet);
    one_more[c.first_blob_offset] =
        static_cast<std::uint8_t>(one_more[c.first_blob_offset] + 1);
    EXPECT_FALSE(decode(one_more).has_value())
        << c.name << " accepted a length prefix one past the payload";
  }
}

TEST(PacketMalformed, BitFlipsNeverCrashAndStayCanonical) {
  for (const auto& c : malformed_cases()) {
    const Bytes original = encode(c.packet);
    for (std::size_t pos = 0; pos < original.size(); ++pos) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes copy = original;
        copy[pos] = static_cast<std::uint8_t>(copy[pos] ^ (1u << bit));
        const auto decoded = decode(copy);
        if (decoded.has_value()) {
          // A flip inside a content field can still parse; it must then
          // re-encode to exactly the mutated bytes (canonical form) and
          // never silently equal the original packet.
          EXPECT_EQ(encode(*decoded), copy)
              << c.name << " byte " << pos << " bit " << bit;
          EXPECT_NE(encode(*decoded), original)
              << c.name << " byte " << pos << " bit " << bit;
        }
      }
    }
  }
}

TEST(PacketMalformed, FramedBitFlipsRejectedByCrc) {
  for (const auto& c : malformed_cases()) {
    const Bytes framed = frame(c.packet);
    common::Rng rng(11);
    for (int trial = 0; trial < 32; ++trial) {
      Bytes copy = framed;
      const auto pos =
          static_cast<std::size_t>(rng.uniform(0, copy.size() - 1));
      const auto bit = static_cast<int>(rng.uniform(0, 7));
      copy[pos] = static_cast<std::uint8_t>(copy[pos] ^ (1u << bit));
      EXPECT_FALSE(deframe(copy).has_value())
          << c.name << " framed flip at byte " << pos << " bit " << bit;
    }
  }
}

TEST(PacketMalformed, ExtremeIndexValuesDecodeCleanly) {
  // Interval/index fields are plain u32s: an attacker can put any value
  // there. The codec must accept them (semantic validation is the
  // receiver's job) without crashing and round-trip them exactly.
  TeslaPacket p;
  p.sender = 0xffffffffu;
  p.interval = 0xffffffffu;
  p.disclosed_interval = 0xffffffffu;
  p.mac = Bytes(10, 0x01);
  const auto decoded = decode(encode(Packet{p}));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(std::get<TeslaPacket>(*decoded), p);
}

}  // namespace
}  // namespace dap::wire

// --------------------------------------------------- CDM MAC payload scope

namespace dap::wire {
namespace {

TEST(Packet, CdmMacPayloadCoversCommitmentAndImage) {
  CdmPacket p;
  p.sender = 1;
  p.high_interval = 7;
  p.low_commitment = Bytes(10, 0x01);
  p.next_cdm_image = Bytes(32, 0x02);
  p.mac = Bytes(10, 0x03);
  p.disclosed_high_key = Bytes(10, 0x04);
  const Bytes payload = p.mac_payload();
  // Changing any covered field changes the payload...
  CdmPacket q = p;
  q.low_commitment[0] ^= 1;
  EXPECT_NE(q.mac_payload(), payload);
  q = p;
  q.next_cdm_image[0] ^= 1;
  EXPECT_NE(q.mac_payload(), payload);
  q = p;
  q.high_interval = 8;
  EXPECT_NE(q.mac_payload(), payload);
  // ...while the MAC itself and the disclosed key are excluded (the key
  // authenticates via the chain; the MAC cannot cover itself).
  q = p;
  q.mac[0] ^= 1;
  q.disclosed_high_key[0] ^= 1;
  EXPECT_EQ(q.mac_payload(), payload);
}

TEST(Packet, WireBitsMatchesEncodedSizeForAllKinds) {
  common::Rng rng(77);
  MacAnnounce a;
  a.sender = 1;
  a.mac = rng.bytes(10);
  MessageReveal r;
  r.sender = 1;
  r.message = rng.bytes(25);
  r.key = rng.bytes(10);
  CdmPacket c;
  c.sender = 1;
  c.low_commitment = rng.bytes(10);
  c.mac = rng.bytes(10);
  c.disclosed_high_key = rng.bytes(10);
  for (const Packet& packet : {Packet{a}, Packet{r}, Packet{c}}) {
    EXPECT_EQ(encode(packet).size() * 8, wire_bits(packet));
  }
}

}  // namespace
}  // namespace dap::wire

// ------------------------------------------------ tag stability (golden)
//
// Frame bytes for one instance of each kind, recorded before the μTESLA
// key disclosure (tag 4) and the signed bootstrap (tag 6) were retired.
// The surviving kinds keep their explicit tag numbers, so their frames
// must not change by a single byte, and the retired tags must now decode
// as unknown.

namespace dap::wire {
namespace {

using common::Bytes;
using common::bytes_of;

TEST(Packet, GoldenFrameBytesAreStable) {
  MacAnnounce announce;
  announce.sender = 3;
  announce.interval = 9;
  announce.mac = Bytes(10, 0x55);
  MessageReveal reveal;
  reveal.sender = 3;
  reveal.interval = 9;
  reveal.message = bytes_of("reading=42");
  reveal.key = Bytes(10, 0x66);
  CdmPacket cdm;
  cdm.sender = 2;
  cdm.high_interval = 6;
  cdm.low_commitment = Bytes(10, 0x88);
  cdm.next_cdm_image = Bytes(32, 0x99);
  cdm.mac = Bytes(10, 0xaa);
  cdm.disclosed_high_key = Bytes(10, 0xbb);

  const struct {
    Packet packet;
    std::string_view frame_hex;
  } golden[] = {
      {Packet{sample_tesla()},
       "01070000002a0000000d0068656c6c6f2073656e736f72730a00abababababababab"
       "abab280000000a00cdcdcdcdcdcdcdcdcdcd43ffc313"},
      {Packet{announce}, "0203000000090000000a00555555555555555555555adb2fd0"},
      {Packet{reveal},
       "0303000000090000000a0072656164696e673d34320a0066666666666666666666de"
       "600fea"},
      {Packet{cdm},
       "0502000000060000000a008888888888888888888820009999999999999999999999"
       "9999999999999999999999999999999999999999990a00aaaaaaaaaaaaaaaaaaaa0a"
       "00bbbbbbbbbbbbbbbbbbbb5f4cfa3c"},
  };
  for (const auto& g : golden) {
    const Bytes expected = common::from_hex(g.frame_hex);
    EXPECT_EQ(frame(g.packet), expected) << "tag " << int{expected[0]};
    const auto decoded = deframe(expected);
    ASSERT_TRUE(decoded.has_value()) << "tag " << int{expected[0]};
    EXPECT_EQ(*decoded, g.packet);
  }
}

TEST(Packet, KeyDisclosureTagIsRetired) {
  // A former KeyDisclosure{sender 1, interval 5, key 0x77 x 10}.
  const Bytes encoded =
      common::from_hex("0401000000050000000a0077777777777777777777");
  EXPECT_FALSE(decode(encoded).has_value());
  EXPECT_FALSE(deframe(common::from_hex(
                   "0401000000050000000a0077777777777777777777286565fd"))
                   .has_value());
}

TEST(Packet, BootstrapTagIsRetired) {
  // A former BootstrapPacket{sender 1, start 1, 1 s intervals, ...}.
  const Bytes encoded = common::from_hex(
      "06010000000100000040420f00000000000a00111111111111111111110800222222"
      "222222222204003333333359919cb9");
  EXPECT_FALSE(deframe(encoded).has_value());
  EXPECT_FALSE(
      decode(common::ByteView(encoded).first(encoded.size() - 4)).has_value());
}

}  // namespace
}  // namespace dap::wire
