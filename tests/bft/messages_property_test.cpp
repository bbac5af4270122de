// Wire-format property suite for the BFT codecs in bft/messages.cpp:
// seeded random BftRequests and BftMessages of every BftMsgType must
// survive encode -> decode -> encode bit-identically, every strict prefix
// and any trailing garbage must be rejected, and single-bit corruption
// must never crash the decoder — it either rejects the frame or accepts
// one that is itself canonical (re-encodes to exactly the bytes read).
//
// Canonical acceptance matters for the atomic broadcast: replicas sign
// and compare encoded bodies, so two different byte strings must never
// decode to the same message.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <vector>

#include "bft/messages.hpp"
#include "util/rng.hpp"

namespace cicero::bft {
namespace {

constexpr int kCasesPerSeed = 40;
constexpr std::uint64_t kSeeds[] = {1, 0xBF7, 0xDEADBEEF};
constexpr std::uint8_t kTypes = static_cast<std::uint8_t>(BftMsgType::kFetchReply) + 1;

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes b(static_cast<std::size_t>(rng.next_below(max_len + 1)));
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

BftRequest random_request(util::Rng& rng) {
  BftRequest r;
  r.submitter = static_cast<ReplicaId>(rng.next_u64());
  r.local_seq = rng.next_u64();
  r.payload = random_bytes(rng, 48);
  return r;
}

BftMessage random_message(util::Rng& rng, BftMsgType type) {
  BftMessage m;
  m.type = type;
  m.sender = static_cast<ReplicaId>(rng.next_u64());
  m.view = rng.next_u64();
  m.seq = rng.next_u64();
  for (auto& c : m.digest) c = static_cast<std::uint8_t>(rng.next_u64());
  if (rng.next_below(2) == 0) m.request = random_request(rng);
  m.last_delivered = rng.next_u64();
  for (std::uint64_t i = 0, n = rng.next_below(3); i < n; ++i) {
    m.prepared.push_back(PreparedEntry{rng.next_u64(), random_request(rng)});
  }
  // Small keys make neighbouring entries likely, so bit flips can reorder
  // or merge them.
  for (std::uint64_t i = 0, n = rng.next_below(4); i < n; ++i) {
    m.new_view_entries[rng.next_below(64)] = random_request(rng);
  }
  m.new_view_next_seq = rng.next_u64();
  return m;
}

// One random wire encoding per BftMsgType, then one bare BftRequest.
std::vector<util::Bytes> random_encodings(util::Rng& rng) {
  std::vector<util::Bytes> out;
  for (std::uint8_t t = 0; t < kTypes; ++t) {
    out.push_back(random_message(rng, static_cast<BftMsgType>(t)).encode(random_bytes(rng, 64)));
  }
  out.push_back(random_request(rng).encode());
  return out;
}

std::optional<util::Bytes> reencode_message(const util::Bytes& wire) {
  const auto m = BftMessage::decode(wire);
  return m ? std::optional(m->first.encode(m->second)) : std::nullopt;
}

std::optional<util::Bytes> reencode_request(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    const BftRequest req = BftRequest::decode(r);
    r.expect_end();
    return req.encode();
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

// The last encoding of a batch is the bare request; the rest are framed
// messages.
std::optional<util::Bytes> reencode(const util::Bytes& wire, std::size_t index) {
  return index == kTypes ? reencode_request(wire) : reencode_message(wire);
}

TEST(BftMessagesProperty, RoundTripIsCanonical) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      const auto encodings = random_encodings(rng);
      for (std::size_t i = 0; i < encodings.size(); ++i) {
        const auto again = reencode(encodings[i], i);
        ASSERT_TRUE(again.has_value()) << "seed " << seed << " case " << c << " index " << i;
        EXPECT_EQ(*again, encodings[i]) << "seed " << seed << " case " << c << " index " << i;
      }
    }
  }
}

TEST(BftMessagesProperty, EncodingsAreExactlySized) {
  // Capacity equals size only when the size-only pass matched the bytes
  // written (see MessagesProperty.EncodingsAreExactlySized).
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      const auto encodings = random_encodings(rng);
      for (std::size_t i = 0; i < encodings.size(); ++i) {
        EXPECT_EQ(encodings[i].capacity(), encodings[i].size())
            << "seed " << seed << " case " << c << " index " << i;
      }
    }
  }
}

TEST(BftMessagesProperty, EveryStrictPrefixRejected) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < 4; ++c) {
      const auto encodings = random_encodings(rng);
      for (std::size_t i = 0; i < encodings.size(); ++i) {
        const util::Bytes& wire = encodings[i];
        for (std::size_t len = 0; len < wire.size(); ++len) {
          const util::Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
          EXPECT_FALSE(reencode(prefix, i).has_value())
              << "index " << i << " decoded a " << len << "/" << wire.size() << "-byte prefix";
        }
      }
    }
  }
}

TEST(BftMessagesProperty, TrailingGarbageRejected) {
  util::Rng rng(99);
  for (int c = 0; c < 10; ++c) {
    auto encodings = random_encodings(rng);
    for (std::size_t i = 0; i < encodings.size(); ++i) {
      encodings[i].push_back(static_cast<std::uint8_t>(rng.next_u64()));
      EXPECT_FALSE(reencode(encodings[i], i).has_value()) << "index " << i;
    }
  }
}

TEST(BftMessagesProperty, BitFlipsNeverCrashAndStayCanonical) {
  // A flipped length prefix is the classic over-read (DeserializeError
  // must contain it); a flipped map key the classic non-canonical
  // acceptance (entries out of order or merged).
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed ^ 0xB17F11F5);
    for (int c = 0; c < 60; ++c) {
      const auto encodings = random_encodings(rng);
      for (std::size_t i = 0; i < encodings.size(); ++i) {
        util::Bytes corrupt = encodings[i];
        const std::size_t byte = static_cast<std::size_t>(rng.next_below(corrupt.size()));
        corrupt[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        const auto out = reencode(corrupt, i);  // must not crash or throw
        if (out.has_value()) {
          EXPECT_EQ(*out, corrupt) << "seed " << seed << " case " << c << " index " << i
                                   << " accepted a non-canonical frame";
        }
      }
    }
  }
}

}  // namespace
}  // namespace cicero::bft
