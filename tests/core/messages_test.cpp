#include "core/messages.hpp"

#include "core/pki.hpp"

#include <gtest/gtest.h>

#include "crypto/drbg.hpp"

namespace cicero::core {
namespace {

Event sample_event() {
  Event e;
  e.id = EventId{7, 42};
  e.kind = EventKind::kFlowRequest;
  e.match = {100, 200};
  e.reserved_bps = 5e6;
  e.member = 0;
  e.forwarded = false;
  e.sig = {1, 2, 3};
  return e;
}

sched::Update sample_update() {
  sched::Update u;
  u.id = 1234;
  u.switch_node = 9;
  u.op = sched::UpdateOp::kInstall;
  u.rule = {{100, 200}, 10, 5e6};
  return u;
}

TEST(CoreMessages, EventRoundTrip) {
  const Event e = sample_event();
  const auto back = Event::decode(e.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->id, e.id);
  EXPECT_EQ(back->kind, e.kind);
  EXPECT_EQ(back->match, e.match);
  EXPECT_DOUBLE_EQ(back->reserved_bps, e.reserved_bps);
  EXPECT_EQ(back->forwarded, e.forwarded);
  EXPECT_EQ(back->sig, e.sig);
}

TEST(CoreMessages, ForwardFlagOutsideSignedBody) {
  // §4.1: the forwarded tag must be mutable without invalidating the
  // origin signature.
  Event e = sample_event();
  const util::Bytes body_before = e.body();
  e.forwarded = true;
  EXPECT_EQ(e.body(), body_before);
}

TEST(CoreMessages, SignedEventVerifies) {
  crypto::Drbg d(1);
  const auto kp = crypto::SchnorrKeyPair::generate(d);
  Event e = sample_event();
  e.sig = crypto::schnorr_sign(kp.sk, e.body()).to_bytes();
  PkiDirectory pki;
  pki.register_origin(e.id.origin, kp.pk);
  EXPECT_TRUE(pki.verify_event(e));
  // Tampering with the match invalidates it.
  Event bad = e;
  bad.match.dst_host = 201;
  EXPECT_FALSE(pki.verify_event(bad));
  // Unknown origin fails.
  Event unknown = e;
  unknown.id.origin = 1000;
  EXPECT_FALSE(pki.verify_event(unknown));
}

TEST(CoreMessages, EventDecodeRejectsGarbage) {
  EXPECT_FALSE(Event::decode({}).has_value());
  EXPECT_FALSE(Event::decode({0x55, 0x01}).has_value());
  util::Bytes truncated = sample_event().encode();
  truncated.resize(truncated.size() / 2);
  EXPECT_FALSE(Event::decode(truncated).has_value());
}

TEST(CoreMessages, UpdateIdBaseUniquePerEvent) {
  const auto a = update_id_base(EventId{1, 1});
  const auto b = update_id_base(EventId{1, 2});
  const auto c = update_id_base(EventId{2, 1});
  EXPECT_NE(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(b, c);
  // 256 update slots per event never collide with the next event.
  EXPECT_LT(a + 255, b);
}

TEST(CoreMessages, UpdateMsgRoundTripWithPartial) {
  UpdateMsg m;
  m.update = sample_update();
  m.cause = EventId{7, 42};
  m.partial.signer = 3;
  m.partial.payload = {0xAA, 0xBB};
  const auto back = UpdateMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->update, m.update);
  EXPECT_EQ(back->cause, m.cause);
  EXPECT_EQ(back->partial, m.partial);
}

TEST(CoreMessages, UpdateMsgRoundTripWithoutPartial) {
  UpdateMsg m;
  m.update = sample_update();
  m.cause = EventId{7, 42};
  const auto back = UpdateMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->partial.signer, 0u);
  EXPECT_TRUE(back->partial.payload.empty());
}

TEST(CoreMessages, AggUpdateRoundTrip) {
  AggUpdateMsg m;
  m.update = sample_update();
  m.cause = EventId{1, 2};
  m.agg_sig = {5, 6, 7};
  const auto back = AggUpdateMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->update, m.update);
  EXPECT_EQ(back->agg_sig, m.agg_sig);
}

TEST(CoreMessages, AckRoundTripAndVerification) {
  crypto::Drbg d(2);
  const auto kp = crypto::SchnorrKeyPair::generate(d);
  AckMsg a;
  a.update_id = 77;
  a.switch_node = 5;
  a.sig = crypto::schnorr_sign(kp.sk, a.body()).to_bytes();
  const auto back = AckMsg::decode(a.encode());
  ASSERT_TRUE(back.has_value());
  PkiDirectory pki;
  pki.register_origin(5, kp.pk);
  EXPECT_TRUE(pki.verify_ack(*back));
  AckMsg forged = *back;
  forged.update_id = 78;
  EXPECT_FALSE(pki.verify_ack(forged));
}

TEST(CoreMessages, AggregatorNotifyRoundTrip) {
  AggregatorNotifyMsg m;
  m.phase = 3;
  m.aggregator = 12;
  m.quorum = 2;
  m.controllers = {10, 11, 12};
  const auto back = AggregatorNotifyMsg::decode(m.encode());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->aggregator, 12u);
  EXPECT_EQ(back->quorum, 2u);
  EXPECT_EQ(back->controllers, (std::vector<sim::NodeId>{10, 11, 12}));
}

TEST(CoreMessages, TagsAreDistinct) {
  EXPECT_EQ(peek_tag(sample_event().encode()),
            static_cast<std::uint8_t>(CoreMsgTag::kEvent));
  UpdateMsg u;
  u.update = sample_update();
  EXPECT_EQ(peek_tag(u.encode()), static_cast<std::uint8_t>(CoreMsgTag::kUpdate));
  EXPECT_FALSE(peek_tag({}).has_value());
}

TEST(CoreMessages, ManifestWithHugePeerCountRejected) {
  // A corrupt u32 peer count must be rejected, never reserved.
  ManifestMsg m;
  m.manifest.update = sample_update();
  m.manifest.preds = {SegmentPeer{1, 2, 3}};
  util::Bytes wire = m.encode();
  util::Writer w;
  m.manifest.update.serialize(w);
  const std::size_t count_at = 1 + w.size();  // tag, update, then the preds count
  ASSERT_EQ(wire[count_at], 1u);
  for (std::size_t i = 0; i < 4; ++i) wire[count_at + i] = 0xFF;
  std::optional<ManifestMsg> decoded;
  EXPECT_NO_THROW(decoded = ManifestMsg::decode(wire));
  EXPECT_FALSE(decoded.has_value());
}

TEST(CoreMessages, UpdateSigningBytesCoverRule) {
  auto u = sample_update();
  const auto bytes1 = update_signing_bytes(u);
  u.rule.next_hop = 11;
  EXPECT_NE(update_signing_bytes(u), bytes1);
}

}  // namespace
}  // namespace cicero::core
