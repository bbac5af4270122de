// Wire-layout pins: one fixed instance per core message tag, per BFT
// message shape and for sched::Update, plus the five signed-byte
// functions, each compared with the exact bytes it must produce.
//
// The property suites check encode -> decode -> encode, which cannot see
// a field that moved on both sides at once.  Switches count quorums over
// identical signed bytes and digests of those bytes, so the layout itself
// is protocol: a change here is a wire-format change, not a refactor.
#include <gtest/gtest.h>

#include <string>

#include "bft/messages.hpp"
#include "core/messages.hpp"
#include "sched/update.hpp"

namespace cicero {
namespace {

using util::to_hex;

sched::Update pinned_update() {
  sched::Update u;
  u.id = 0x0102030405060708ULL;
  u.switch_node = 9;
  u.op = sched::UpdateOp::kRemove;
  u.rule = {{100, 200}, 10, 5e6};
  return u;
}

crypto::PartialSignature pinned_partial() {
  crypto::PartialSignature p;
  p.signer = 3;
  p.payload = {0xAA, 0xBB};
  return p;
}

core::SegmentManifest pinned_manifest() {
  core::SegmentManifest m;
  m.update = pinned_update();
  m.preds = {{11, 4, 40}};
  m.succs = {{12, 5, 50}, {13, 6, 60}};
  m.sink = true;
  return m;
}

core::Event pinned_event() {
  core::Event e;
  e.id = {7, 42};
  e.kind = core::EventKind::kRemoveController;
  e.match = {100, 200};
  e.reserved_bps = 1.5;
  e.member = 6;
  e.forwarded = true;
  e.sig = {1, 2, 3};
  return e;
}

core::AckMsg pinned_ack() {
  core::AckMsg m;
  m.update_id = 77;
  m.switch_node = 8;
  m.sig = {4, 5};
  return m;
}

core::SegmentDoneMsg pinned_segment_done() {
  core::SegmentDoneMsg m;
  m.for_update = 21;
  m.done_update = 22;
  m.switch_node = 23;
  m.epoch = 24;
  m.sig = {6};
  return m;
}

TEST(WireLayout, Update) {
  util::Writer w;
  pinned_update().serialize(w);
  EXPECT_EQ(to_hex(w.data()),
            "0807060504030201090000000164000000c80000000a00000000000000d0125341");
}

TEST(WireLayout, SignedBytes) {
  EXPECT_EQ(to_hex(pinned_event().body()),
            "0c00000063696365726f2f6576656e74070000002a000000000000000364000000c8000000000000"
            "000000f83f06000000");
  EXPECT_EQ(to_hex(pinned_ack().body()),
            "0a00000063696365726f2f61636b4d0000000000000008000000");
  EXPECT_EQ(to_hex(pinned_segment_done().body()),
            "0e00000063696365726f2f736567646f6e6515000000000000001600000000000000170000001800"
            "000000000000");
  EXPECT_EQ(to_hex(core::update_signing_bytes(pinned_update())),
            "0d00000063696365726f2f7570646174650807060504030201090000000164000000c80000000a00"
            "000000000000d0125341");
  EXPECT_EQ(to_hex(core::manifest_signing_bytes(pinned_manifest(), 5)),
            "0f00000063696365726f2f6d616e69666573740807060504030201090000000164000000c8000000"
            "0a00000000000000d0125341010000000b000000000000000400000028000000020000000c000000"
            "0000000005000000320000000d00000000000000060000003c000000010500000000000000");
}

TEST(WireLayout, CoreMessages) {
  EXPECT_EQ(to_hex(pinned_event().encode()),
            "02070000002a000000000000000364000000c8000000000000000000f83f06000000010300000001"
            "0203");

  core::UpdateMsg um;
  um.update = pinned_update();
  um.cause = {7, 42};
  um.partial = pinned_partial();
  um.frost_commitment = {0xCC};
  EXPECT_EQ(to_hex(um.encode()),
            "030807060504030201090000000164000000c80000000a00000000000000d0125341070000002a00"
            "0000000000000a0000000300000002000000aabb01000000cc");
  um.partial = {};
  um.frost_commitment = {};
  EXPECT_EQ(to_hex(um.encode()),
            "030807060504030201090000000164000000c80000000a00000000000000d0125341070000002a00"
            "0000000000000000000000000000");

  EXPECT_EQ(to_hex(pinned_ack().encode()), "044d0000000000000008000000020000000405");

  core::AggUpdateMsg am;
  am.update = pinned_update();
  am.cause = {7, 42};
  am.agg_sig = {0xDD, 0xEE};
  EXPECT_EQ(to_hex(am.encode()),
            "050807060504030201090000000164000000c80000000a00000000000000d0125341070000002a00"
            "00000000000002000000ddee");

  core::AggregatorNotifyMsg an;
  an.phase = 3;
  an.aggregator = 17;
  an.quorum = 2;
  an.controllers = {30, 31, 32};
  EXPECT_EQ(to_hex(an.encode()),
            "0703000000000000001100000002000000030000001e0000001f00000020000000");

  core::FrostSessionMsg fs;
  fs.update_id = 88;
  fs.commitments = {{1, 2}, {}, {3}};
  EXPECT_EQ(to_hex(fs.encode()),
            "08580000000000000003000000020000000102000000000100000003");

  core::FrostPartialMsg fp;
  fp.update_id = 89;
  fp.signer_index = 2;
  fp.z = {9, 8, 7};
  EXPECT_EQ(to_hex(fp.encode()), "0959000000000000000200000003000000090807");

  core::ManifestMsg mm;
  mm.manifest = pinned_manifest();
  mm.cause = {7, 42};
  mm.epoch = 5;
  mm.partial = pinned_partial();
  EXPECT_EQ(to_hex(mm.encode()),
            "0a0807060504030201090000000164000000c80000000a00000000000000d0125341010000000b00"
            "0000000000000400000028000000020000000c0000000000000005000000320000000d0000000000"
            "0000060000003c00000001070000002a0000000000000005000000000000000a0000000300000002"
            "000000aabb");

  EXPECT_EQ(to_hex(pinned_segment_done().encode()),
            "0b150000000000000016000000000000001700000018000000000000000100000006");

  core::PartialShareMsg ps;
  ps.update_id = 90;
  ps.digest = 0xFEDCBA9876543210ULL;
  ps.partial = pinned_partial();
  EXPECT_EQ(to_hex(ps.encode()),
            "0c5a000000000000001032547698badcfe0a0000000300000002000000aabb");

  core::AggregatedUpdateMsg au;
  au.update = pinned_update();
  au.cause = {7, 42};
  au.agg_sig = {0xDD, 0xEE};
  EXPECT_EQ(to_hex(au.encode()),
            "0d0807060504030201090000000164000000c80000000a00000000000000d0125341070000002a00"
            "00000000000002000000ddee");
}

bft::BftRequest pinned_request(std::uint64_t local_seq) {
  bft::BftRequest r;
  r.submitter = 3;
  r.local_seq = local_seq;
  r.payload = {1, 2, 3, 4};
  return r;
}

// One message per BftMsgType, each carrying the fields its type uses.
TEST(WireLayout, BftMessages) {
  EXPECT_EQ(to_hex(pinned_request(99).encode()), "0300000063000000000000000400000001020304");

  const util::Bytes sig = {9, 9};
  bft::BftMessage m;
  m.sender = 2;
  m.view = 7;
  m.seq = 41;

  m.type = bft::BftMsgType::kRequest;
  m.request = pinned_request(99);
  EXPECT_EQ(to_hex(m.encode(sig)),
            "bf660000000002000000070000000000000029000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000001140000000300000063000000000000000400000001"
            "020304000000000000000000000000000000000000000000000000020000000909");

  m.type = bft::BftMsgType::kPrePrepare;
  m.digest = m.request->digest();
  EXPECT_EQ(to_hex(m.encode(sig)),
            "bf66000000010200000007000000000000002900000000000000786518edcdd5d0453e44b29752c4"
            "b60ae948dc2f300cde6804aa017b93a103c601140000000300000063000000000000000400000001"
            "020304000000000000000000000000000000000000000000000000020000000909");
  m.request.reset();

  m.type = bft::BftMsgType::kPrepare;
  EXPECT_EQ(to_hex(m.encode(sig)),
            "bf4e000000020200000007000000000000002900000000000000786518edcdd5d0453e44b29752c4"
            "b60ae948dc2f300cde6804aa017b93a103c600000000000000000000000000000000000000000000"
            "000000020000000909");

  m.type = bft::BftMsgType::kCommit;
  EXPECT_EQ(to_hex(m.encode({})),
            "bf4e000000030200000007000000000000002900000000000000786518edcdd5d0453e44b29752c4"
            "b60ae948dc2f300cde6804aa017b93a103c600000000000000000000000000000000000000000000"
            "00000000000000");
  m.digest = {};

  m.type = bft::BftMsgType::kViewChange;
  m.last_delivered = 40;
  m.prepared = {{41, pinned_request(99)}, {42, pinned_request(100)}};
  EXPECT_EQ(to_hex(m.encode(sig)),
            "bf8e0000000402000000070000000000000029000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000280000000000000002000000290000000000000014"
            "00000003000000630000000000000004000000010203042a00000000000000140000000300000064"
            "000000000000000400000001020304000000000000000000000000020000000909");
  m.prepared.clear();

  m.type = bft::BftMsgType::kNewView;
  m.new_view_entries = {{41, pinned_request(99)}, {43, pinned_request(101)}};
  m.new_view_next_seq = 44;
  EXPECT_EQ(to_hex(m.encode(sig)),
            "bf8e0000000502000000070000000000000029000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000280000000000000000000000020000002900000000"
            "0000001400000003000000630000000000000004000000010203042b000000000000001400000003"
            "000000650000000000000004000000010203042c00000000000000020000000909");

  m.type = bft::BftMsgType::kFetchReply;
  EXPECT_EQ(to_hex(m.encode(sig)),
            "bf8e0000000802000000070000000000000029000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000280000000000000000000000020000002900000000"
            "0000001400000003000000630000000000000004000000010203042b000000000000001400000003"
            "000000650000000000000004000000010203042c00000000000000020000000909");
  m.new_view_entries.clear();
  m.new_view_next_seq = 0;

  m.type = bft::BftMsgType::kFetch;
  EXPECT_EQ(to_hex(m.encode(sig)),
            "bf4e0000000702000000070000000000000029000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000280000000000000000000000000000000000000000"
            "000000020000000909");

  m.type = bft::BftMsgType::kHeartbeat;
  m.last_delivered = 0;
  EXPECT_EQ(to_hex(m.encode({})),
            "bf4e0000000602000000070000000000000029000000000000000000000000000000000000000000"
            "00000000000000000000000000000000000000000000000000000000000000000000000000000000"
            "00000000000000");
}

}  // namespace
}  // namespace cicero
