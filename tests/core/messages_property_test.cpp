// Wire-format property suite for EVERY message codec in
// core/messages.cpp: seeded random instances must survive
// encode -> decode -> encode bit-identically, every strict prefix of a
// valid encoding must be rejected (no partial reads ever "succeed"),
// and single-bit corruption must never crash a decoder — it either
// rejects or yields a message that re-encodes cleanly.
//
// The canonical-bytes property (encode(decode(encode(m))) == encode(m))
// sidesteps per-field comparisons AND pins the stronger contract the
// retransmission/idempotence machinery relies on: a decoded message
// re-encodes to exactly the bytes that were on the wire, so caches,
// digests and dedup keys agree across hops.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <vector>

#include "core/messages.hpp"
#include "util/rng.hpp"

namespace cicero::core {
namespace {

constexpr int kCasesPerSeed = 40;
constexpr std::uint64_t kSeeds[] = {1, 0xC1CE50, 0xDEADBEEF};

util::Bytes random_bytes(util::Rng& rng, std::size_t max_len) {
  util::Bytes b(static_cast<std::size_t>(rng.next_below(max_len + 1)));
  for (auto& c : b) c = static_cast<std::uint8_t>(rng.next_u64());
  return b;
}

EventId random_event_id(util::Rng& rng) {
  return EventId{static_cast<std::uint32_t>(rng.next_u64()), rng.next_u64()};
}

net::FlowMatch random_match(util::Rng& rng) {
  net::FlowMatch m;
  m.src_host = static_cast<net::NodeIndex>(rng.next_u64());
  m.dst_host = static_cast<net::NodeIndex>(rng.next_u64());
  return m;
}

sched::Update random_update(util::Rng& rng) {
  sched::Update u;
  u.id = rng.next_u64();
  u.switch_node = static_cast<net::NodeIndex>(rng.next_u64());
  u.op = rng.next_below(2) == 0 ? sched::UpdateOp::kInstall : sched::UpdateOp::kRemove;
  u.rule.match = random_match(rng);
  u.rule.next_hop = static_cast<net::NodeIndex>(rng.next_u64());
  u.rule.reserved_bps = rng.uniform(0.0, 1e9);
  return u;
}

crypto::PartialSignature random_partial(util::Rng& rng, bool maybe_empty = true) {
  crypto::PartialSignature p;
  if (maybe_empty && rng.next_below(4) == 0) return p;  // baseline: no partial
  p.signer = static_cast<crypto::ShareIndex>(rng.uniform_int(1, 64));
  p.payload = random_bytes(rng, 48);
  return p;
}

SegmentPeer random_peer(util::Rng& rng) {
  SegmentPeer p;
  p.update_id = rng.next_u64();
  p.switch_node = static_cast<std::uint32_t>(rng.next_u64());
  p.node = static_cast<sim::NodeId>(rng.next_u64());
  return p;
}

// One random valid encoding per message type, exercised by every
// property below.  Index i cycles through the types so each seed covers
// all of them.
std::vector<util::Bytes> random_encodings(util::Rng& rng) {
  std::vector<util::Bytes> out;

  Event e;
  e.id = random_event_id(rng);
  e.kind = static_cast<EventKind>(rng.next_below(5));
  e.match = random_match(rng);
  e.reserved_bps = rng.uniform(0.0, 1e9);
  e.member = static_cast<std::uint32_t>(rng.next_u64());
  e.forwarded = rng.next_below(2) == 0;
  e.sig = random_bytes(rng, 64);
  out.push_back(e.encode());

  UpdateMsg um;
  um.update = random_update(rng);
  um.cause = random_event_id(rng);
  um.partial = random_partial(rng);
  um.frost_commitment = random_bytes(rng, 64);
  out.push_back(um.encode());

  AggUpdateMsg am;
  am.update = random_update(rng);
  am.cause = random_event_id(rng);
  am.agg_sig = random_bytes(rng, 64);
  out.push_back(am.encode());

  PartialShareMsg ps;
  ps.update_id = rng.next_u64();
  ps.digest = rng.next_u64();
  ps.partial = random_partial(rng, /*maybe_empty=*/false);
  out.push_back(ps.encode());

  AggregatedUpdateMsg au;
  au.update = random_update(rng);
  au.cause = random_event_id(rng);
  au.agg_sig = random_bytes(rng, 64);
  out.push_back(au.encode());

  AckMsg ack;
  ack.update_id = rng.next_u64();
  ack.switch_node = static_cast<std::uint32_t>(rng.next_u64());
  ack.sig = random_bytes(rng, 64);
  out.push_back(ack.encode());

  FrostSessionMsg fs;
  fs.update_id = rng.next_u64();
  for (std::uint64_t i = 0, n = rng.next_below(4); i < n; ++i) {
    fs.commitments.push_back(random_bytes(rng, 64));
  }
  out.push_back(fs.encode());

  FrostPartialMsg fp;
  fp.update_id = rng.next_u64();
  fp.signer_index = static_cast<std::uint32_t>(rng.next_u64());
  fp.z = random_bytes(rng, 32);
  out.push_back(fp.encode());

  AggregatorNotifyMsg an;
  an.phase = rng.next_u64();
  an.aggregator = static_cast<sim::NodeId>(rng.next_u64());
  an.quorum = static_cast<std::uint32_t>(rng.next_u64());
  for (std::uint64_t i = 0, n = rng.next_below(8); i < n; ++i) {
    an.controllers.push_back(static_cast<sim::NodeId>(rng.next_u64()));
  }
  out.push_back(an.encode());

  ManifestMsg mm;
  mm.manifest.update = random_update(rng);
  for (std::uint64_t i = 0, n = rng.next_below(3); i < n; ++i) {
    mm.manifest.preds.push_back(random_peer(rng));
  }
  for (std::uint64_t i = 0, n = rng.next_below(3); i < n; ++i) {
    mm.manifest.succs.push_back(random_peer(rng));
  }
  mm.manifest.sink = rng.next_below(2) == 0;
  mm.cause = random_event_id(rng);
  mm.epoch = rng.next_u64();
  mm.partial = random_partial(rng);
  out.push_back(mm.encode());

  SegmentDoneMsg sd;
  sd.for_update = rng.next_u64();
  sd.done_update = rng.next_u64();
  sd.switch_node = static_cast<std::uint32_t>(rng.next_u64());
  sd.epoch = rng.next_u64();
  sd.sig = random_bytes(rng, 64);
  out.push_back(sd.encode());

  return out;
}

// Decodes `wire` with the decoder its tag selects; returns the
// re-encoded bytes, or nullopt when the decoder rejected it.  Covers
// every CoreMsgTag — a new message type without a case here fails the
// AllTagsCovered test below.
std::optional<util::Bytes> decode_reencode(const util::Bytes& wire) {
  const auto tag = peek_tag(wire);
  if (!tag) return std::nullopt;
  switch (static_cast<CoreMsgTag>(*tag)) {
    case CoreMsgTag::kEvent: {
      const auto m = Event::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kUpdate: {
      const auto m = UpdateMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kAck: {
      const auto m = AckMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kAggUpdate: {
      const auto m = AggUpdateMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kAggregatorNotify: {
      const auto m = AggregatorNotifyMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kFrostSession: {
      const auto m = FrostSessionMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kFrostPartial: {
      const auto m = FrostPartialMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kManifest: {
      const auto m = ManifestMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kSegmentDone: {
      const auto m = SegmentDoneMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kPartialShare: {
      const auto m = PartialShareMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
    case CoreMsgTag::kAggregatedUpdate: {
      const auto m = AggregatedUpdateMsg::decode(wire);
      return m ? std::optional(m->encode()) : std::nullopt;
    }
  }
  return std::nullopt;
}

TEST(MessagesProperty, CauseOfInvertsUpdateIdBase) {
  // Over the domain of events that produce updates — switch origins
  // (< kControllerOriginBase), 32-bit sequence numbers — every update of
  // a schedule (index < 256) names its causing event.
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int i = 0; i < kCasesPerSeed; ++i) {
      const EventId e{static_cast<std::uint32_t>(rng.next_below(kControllerOriginBase)),
                      rng.next_below(1ULL << 32)};
      const sched::UpdateId k = rng.next_below(256);
      EXPECT_EQ(cause_of(update_id_base(e) + k), e)
          << "origin " << e.origin << " seq " << e.seq << " k " << k;
    }
  }
}

TEST(MessagesProperty, AllTagsCovered) {
  // Every tag appears exactly once per random_encodings() batch; if a
  // message type is added without extending this suite, this count
  // breaks first (11 = every CoreMsgTag value).
  util::Rng rng(1);
  const auto encodings = random_encodings(rng);
  EXPECT_EQ(encodings.size(), 11u);
  std::set<std::uint8_t> tags;
  for (const auto& wire : encodings) {
    const auto tag = peek_tag(wire);
    ASSERT_TRUE(tag.has_value());
    tags.insert(*tag);
  }
  EXPECT_EQ(tags.size(), encodings.size());
}

TEST(MessagesProperty, RoundTripIsCanonical) {
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      for (const auto& wire : random_encodings(rng)) {
        const auto again = decode_reencode(wire);
        ASSERT_TRUE(again.has_value())
            << "seed " << seed << " case " << c << " tag " << int(wire[0]);
        EXPECT_EQ(*again, wire)
            << "seed " << seed << " case " << c << " tag " << int(wire[0]);
      }
    }
  }
}

TEST(MessagesProperty, EncodingsAreExactlySized) {
  // An encoder reserves what its size-only pass counted and then writes;
  // capacity equals size only when the two agree (a short count would
  // reallocate and double, a long one would leave slack).
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < kCasesPerSeed; ++c) {
      for (const auto& wire : random_encodings(rng)) {
        EXPECT_EQ(wire.capacity(), wire.size())
            << "seed " << seed << " case " << c << " tag " << int(wire[0]);
      }
    }
  }
}

TEST(MessagesProperty, EveryStrictPrefixRejected) {
  // A truncated message must never decode: decoders read to the end and
  // expect_end() catches short *and* long frames.
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed);
    for (int c = 0; c < 6; ++c) {
      for (const auto& wire : random_encodings(rng)) {
        for (std::size_t len = 0; len < wire.size(); ++len) {
          util::Bytes prefix(wire.begin(), wire.begin() + static_cast<std::ptrdiff_t>(len));
          EXPECT_FALSE(decode_reencode(prefix).has_value())
              << "tag " << int(wire[0]) << " decoded a " << len << "/" << wire.size()
              << "-byte prefix";
        }
      }
    }
  }
}

TEST(MessagesProperty, TrailingGarbageRejected) {
  util::Rng rng(99);
  for (int c = 0; c < 10; ++c) {
    for (auto wire : random_encodings(rng)) {
      wire.push_back(static_cast<std::uint8_t>(rng.next_u64()));
      EXPECT_FALSE(decode_reencode(wire).has_value()) << "tag " << int(wire[0]);
    }
  }
}

TEST(MessagesProperty, BitFlipsNeverCrashAndStayCanonical) {
  // Corruption anywhere in the frame must be rejected or decode to a
  // message that still re-encodes without throwing.  (A flipped length
  // byte is the classic over-read; DeserializeError must contain it.)
  for (const std::uint64_t seed : kSeeds) {
    util::Rng rng(seed ^ 0xB17F11F5);
    for (int c = 0; c < 10; ++c) {
      for (const auto& wire : random_encodings(rng)) {
        util::Bytes corrupt = wire;
        const std::size_t byte = static_cast<std::size_t>(rng.next_below(corrupt.size()));
        corrupt[byte] ^= static_cast<std::uint8_t>(1u << rng.next_below(8));
        const auto out = decode_reencode(corrupt);  // must not crash/throw
        if (out.has_value()) {
          // Accepted corruption must at least be self-consistent.
          EXPECT_EQ(decode_reencode(*out), out);
        }
      }
    }
  }
}

}  // namespace
}  // namespace cicero::core
