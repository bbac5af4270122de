#include "core/messages.hpp"

#include "crypto/sha256.hpp"

namespace cicero::core {

std::optional<std::uint8_t> peek_tag(const util::Bytes& wire) {
  if (wire.empty()) return std::nullopt;
  return wire.front();
}

// ---------------------------------------------------------------------------
// Event
// ---------------------------------------------------------------------------

util::Bytes Event::body() const {
  util::Writer w;
  w.str("cicero/event");
  w.u32(id.origin);
  w.u64(id.seq);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(match.src_host);
  w.u32(match.dst_host);
  w.f64(reserved_bps);
  w.u32(member);
  return w.take();
}

util::Bytes Event::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kEvent));
  w.u32(id.origin);
  w.u64(id.seq);
  w.u8(static_cast<std::uint8_t>(kind));
  w.u32(match.src_host);
  w.u32(match.dst_host);
  w.f64(reserved_bps);
  w.u32(member);
  w.boolean(forwarded);
  w.bytes(sig);
  return w.take();
}

std::optional<Event> Event::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kEvent)) return std::nullopt;
    Event e;
    e.id.origin = r.u32();
    e.id.seq = r.u64();
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(EventKind::kAggMismatch)) return std::nullopt;
    e.kind = static_cast<EventKind>(kind);
    e.match.src_host = r.u32();
    e.match.dst_host = r.u32();
    e.reserved_bps = r.f64();
    e.member = r.u32();
    e.forwarded = r.boolean();
    e.sig = r.bytes();
    r.expect_end();
    return e;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Updates
// ---------------------------------------------------------------------------

sched::UpdateId update_id_base(const EventId& cause) {
  // 24 bits of origin, 32 bits of per-origin sequence, 8 bits of update
  // index within the schedule — unique as long as a schedule stays under
  // 256 updates (one per path switch; ample).
  return (static_cast<sched::UpdateId>(cause.origin & 0xFFFFFF) << 40) |
         ((cause.seq & 0xFFFFFFFFULL) << 8);
}

util::Bytes update_signing_bytes(const sched::Update& update) {
  util::Writer w;
  w.str("cicero/update");
  update.serialize(w);
  return w.take();
}

std::uint64_t signing_digest64(const util::Bytes& signing_bytes) {
  const crypto::Digest d = crypto::Sha256::hash(signing_bytes);
  std::uint64_t dig = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    dig |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  }
  return dig;
}

util::Bytes UpdateMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kUpdate));
  update.serialize(w);
  w.u32(cause.origin);
  w.u64(cause.seq);
  // No partial (centralized / crash-tolerant) encodes as an empty string.
  w.bytes(partial.signer == 0 ? util::Bytes{} : partial.to_bytes());
  w.bytes(frost_commitment);
  return w.take();
}

std::optional<UpdateMsg> UpdateMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kUpdate)) return std::nullopt;
    UpdateMsg m;
    m.update = sched::Update::deserialize(r);
    m.cause.origin = r.u32();
    m.cause.seq = r.u64();
    const util::Bytes pb = r.bytes();
    m.frost_commitment = r.bytes();
    r.expect_end();
    if (!pb.empty()) {
      auto p = crypto::PartialSignature::from_bytes(pb);
      if (!p) return std::nullopt;
      m.partial = std::move(*p);
    }
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

util::Bytes AggUpdateMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kAggUpdate));
  update.serialize(w);
  w.u32(cause.origin);
  w.u64(cause.seq);
  w.bytes(agg_sig);
  return w.take();
}

std::optional<AggUpdateMsg> AggUpdateMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kAggUpdate)) return std::nullopt;
    AggUpdateMsg m;
    m.update = sched::Update::deserialize(r);
    m.cause.origin = r.u32();
    m.cause.seq = r.u64();
    m.agg_sig = r.bytes();
    r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// In-network aggregation (P4BFT-style offload)
// ---------------------------------------------------------------------------

util::Bytes PartialShareMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kPartialShare));
  w.u64(update_id);
  w.u64(digest);
  // No partial (defensive: never sent by the unauthenticated baselines)
  // encodes as an empty string, same as UpdateMsg.
  w.bytes(partial.signer == 0 ? util::Bytes{} : partial.to_bytes());
  return w.take();
}

std::optional<PartialShareMsg> PartialShareMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kPartialShare)) return std::nullopt;
    PartialShareMsg m;
    m.update_id = r.u64();
    m.digest = r.u64();
    const util::Bytes pb = r.bytes();
    r.expect_end();
    if (!pb.empty()) {
      auto p = crypto::PartialSignature::from_bytes(pb);
      if (!p) return std::nullopt;
      m.partial = std::move(*p);
    }
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

util::Bytes AggregatedUpdateMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kAggregatedUpdate));
  update.serialize(w);
  w.u32(cause.origin);
  w.u64(cause.seq);
  w.bytes(agg_sig);
  return w.take();
}

std::optional<AggregatedUpdateMsg> AggregatedUpdateMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kAggregatedUpdate)) return std::nullopt;
    AggregatedUpdateMsg m;
    m.update = sched::Update::deserialize(r);
    m.cause.origin = r.u32();
    m.cause.seq = r.u64();
    m.agg_sig = r.bytes();
    r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Acks
// ---------------------------------------------------------------------------

util::Bytes AckMsg::body() const {
  util::Writer w;
  w.str("cicero/ack");
  w.u64(update_id);
  w.u32(switch_node);
  return w.take();
}

util::Bytes AckMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kAck));
  w.u64(update_id);
  w.u32(switch_node);
  w.bytes(sig);
  return w.take();
}

std::optional<AckMsg> AckMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kAck)) return std::nullopt;
    AckMsg m;
    m.update_id = r.u64();
    m.switch_node = r.u32();
    m.sig = r.bytes();
    r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// FROST signing round (controller aggregation with the kFrost backend)
// ---------------------------------------------------------------------------

util::Bytes FrostSessionMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kFrostSession));
  w.u64(update_id);
  w.u32(static_cast<std::uint32_t>(commitments.size()));
  for (const auto& c : commitments) w.bytes(c);
  return w.take();
}

std::optional<FrostSessionMsg> FrostSessionMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kFrostSession)) return std::nullopt;
    FrostSessionMsg m;
    m.update_id = r.u64();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) m.commitments.push_back(r.bytes());
    r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

util::Bytes FrostPartialMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kFrostPartial));
  w.u64(update_id);
  w.u32(signer_index);
  w.bytes(z);
  return w.take();
}

std::optional<FrostPartialMsg> FrostPartialMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kFrostPartial)) return std::nullopt;
    FrostPartialMsg m;
    m.update_id = r.u64();
    m.signer_index = r.u32();
    m.z = r.bytes();
    r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Membership
// ---------------------------------------------------------------------------

util::Bytes AggregatorNotifyMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kAggregatorNotify));
  w.u64(phase);
  w.u32(aggregator);
  w.u32(quorum);
  w.u32(static_cast<std::uint32_t>(controllers.size()));
  for (const auto c : controllers) w.u32(c);
  return w.take();
}

std::optional<AggregatorNotifyMsg> AggregatorNotifyMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kAggregatorNotify)) return std::nullopt;
    AggregatorNotifyMsg m;
    m.phase = r.u64();
    m.aggregator = r.u32();
    m.quorum = r.u32();
    const std::uint32_t n = r.u32();
    for (std::uint32_t i = 0; i < n; ++i) m.controllers.push_back(r.u32());
    r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Decentralized execution (segment manifests and in-band completion)
// ---------------------------------------------------------------------------

namespace {

void serialize_peers(util::Writer& w, const std::vector<SegmentPeer>& peers) {
  w.u32(static_cast<std::uint32_t>(peers.size()));
  for (const SegmentPeer& p : peers) {
    w.u64(p.update_id);
    w.u32(p.switch_node);
    w.u32(p.node);
  }
}

std::vector<SegmentPeer> deserialize_peers(util::Reader& r) {
  const std::uint32_t n = r.u32();
  // Each peer is 16 wire bytes: bound the count before reserving, so a
  // corrupt count cannot ask for gigabytes.
  if (n > r.remaining() / 16) throw util::DeserializeError("peer count exceeds message");
  std::vector<SegmentPeer> peers;
  peers.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    SegmentPeer p;
    p.update_id = r.u64();
    p.switch_node = r.u32();
    p.node = r.u32();
    peers.push_back(p);
  }
  return peers;
}

void serialize_manifest(util::Writer& w, const SegmentManifest& m) {
  m.update.serialize(w);
  serialize_peers(w, m.preds);
  serialize_peers(w, m.succs);
  w.boolean(m.sink);
}

SegmentManifest deserialize_manifest(util::Reader& r) {
  SegmentManifest m;
  m.update = sched::Update::deserialize(r);
  m.preds = deserialize_peers(r);
  m.succs = deserialize_peers(r);
  m.sink = r.boolean();
  return m;
}

}  // namespace

util::Bytes manifest_signing_bytes(const SegmentManifest& manifest, std::uint64_t epoch) {
  util::Writer w;
  w.str("cicero/manifest");
  serialize_manifest(w, manifest);
  w.u64(epoch);
  return w.take();
}

util::Bytes ManifestMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kManifest));
  serialize_manifest(w, manifest);
  w.u32(cause.origin);
  w.u64(cause.seq);
  w.u64(epoch);
  // No partial (centralized / crash-tolerant) encodes as an empty string.
  w.bytes(partial.signer == 0 ? util::Bytes{} : partial.to_bytes());
  return w.take();
}

std::optional<ManifestMsg> ManifestMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kManifest)) return std::nullopt;
    ManifestMsg m;
    m.manifest = deserialize_manifest(r);
    m.cause.origin = r.u32();
    m.cause.seq = r.u64();
    m.epoch = r.u64();
    const util::Bytes pb = r.bytes();
    r.expect_end();
    if (!pb.empty()) {
      auto p = crypto::PartialSignature::from_bytes(pb);
      if (!p) return std::nullopt;
      m.partial = std::move(*p);
    }
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

util::Bytes SegmentDoneMsg::body() const {
  util::Writer w;
  w.str("cicero/segdone");
  w.u64(for_update);
  w.u64(done_update);
  w.u32(switch_node);
  w.u64(epoch);
  return w.take();
}

util::Bytes SegmentDoneMsg::encode() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(CoreMsgTag::kSegmentDone));
  w.u64(for_update);
  w.u64(done_update);
  w.u32(switch_node);
  w.u64(epoch);
  w.bytes(sig);
  return w.take();
}

std::optional<SegmentDoneMsg> SegmentDoneMsg::decode(const util::Bytes& wire) {
  try {
    util::Reader r(wire);
    if (r.u8() != static_cast<std::uint8_t>(CoreMsgTag::kSegmentDone)) return std::nullopt;
    SegmentDoneMsg m;
    m.for_update = r.u64();
    m.done_update = r.u64();
    m.switch_node = r.u32();
    m.epoch = r.u64();
    m.sig = r.bytes();
    r.expect_end();
    return m;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

}  // namespace cicero::core
