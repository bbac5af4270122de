#include "core/messages.hpp"

#include "crypto/sha256.hpp"

/// A threshold partial travels as u32-length bytes; "no partial"
/// (signer 0, the unauthenticated baselines) is the empty string and
/// nothing else is.
template <>
struct cicero::util::Wire<cicero::crypto::PartialSignature> {
  template <class Enc> static void put(Enc& e, const crypto::PartialSignature& p) {
    // The frame holds p.to_bytes(), written in place.
    const std::size_t at = e.w.begin_frame();
    if (p.signer != 0) {
      e.w.u32(p.signer);
      e.w.bytes(p.payload);
    }
    e.w.end_frame(at);
  }
  static void get(Reader& r, crypto::PartialSignature& p) {
    const Bytes b = r.bytes();
    if (b.empty()) return;  // p stays default: no partial
    auto parsed = crypto::PartialSignature::from_bytes(b);
    if (!parsed) throw DeserializeError("bad partial signature");
    p = std::move(*parsed);
  }
};

namespace cicero::core {

// Field lists: the one statement of each layout (util/codec.hpp).  Fields
// before util::kSignedEnd are also what the message's body() signs.

template <class IO, util::Of<EventId> M>
void fields(IO& io, M& m) { io(m.origin, m.seq); }
template <class IO, util::Of<Event> M>
void fields(IO& io, M& m) {
  io(m.id, m.kind, m.match.src_host, m.match.dst_host, m.reserved_bps, m.member, util::kSignedEnd,
     m.forwarded, m.sig);
}
template <class IO, util::Of<UpdateMsg> M>
void fields(IO& io, M& m) { io(m.update, m.cause, m.partial, m.frost_commitment); }
template <class IO, class M>
  requires util::Of<M, AggUpdateMsg> || util::Of<M, AggregatedUpdateMsg>
void fields(IO& io, M& m) { io(m.update, m.cause, m.agg_sig); }
template <class IO, util::Of<PartialShareMsg> M>
void fields(IO& io, M& m) { io(m.update_id, m.digest, m.partial); }
template <class IO, util::Of<AckMsg> M>
void fields(IO& io, M& m) { io(m.update_id, m.switch_node, util::kSignedEnd, m.sig); }
template <class IO, util::Of<FrostSessionMsg> M>
void fields(IO& io, M& m) { io(m.update_id, m.commitments); }
template <class IO, util::Of<FrostPartialMsg> M>
void fields(IO& io, M& m) { io(m.update_id, m.signer_index, m.z); }
template <class IO, util::Of<AggregatorNotifyMsg> M>
void fields(IO& io, M& m) { io(m.phase, m.aggregator, m.quorum, m.controllers); }
template <class IO, util::Of<SegmentPeer> M>
void fields(IO& io, M& m) { io(m.update_id, m.switch_node, m.node); }
template <class IO, util::Of<SegmentManifest> M>
void fields(IO& io, M& m) { io(m.update, m.preds, m.succs, m.sink); }
template <class IO, util::Of<ManifestMsg> M>
void fields(IO& io, M& m) { io(m.manifest, m.cause, m.epoch, m.partial); }
template <class IO, util::Of<SegmentDoneMsg> M>
void fields(IO& io, M& m) {
  io(m.for_update, m.done_update, m.switch_node, m.epoch, util::kSignedEnd, m.sig);
}

namespace {

// The one tag of each message.
template <class M> extern const CoreMsgTag kTag;
template <> constexpr CoreMsgTag kTag<Event> = CoreMsgTag::kEvent;
template <> constexpr CoreMsgTag kTag<UpdateMsg> = CoreMsgTag::kUpdate;
template <CoreMsgTag T> constexpr CoreMsgTag kTag<SignedUpdateMsg<T>> = T;
template <> constexpr CoreMsgTag kTag<PartialShareMsg> = CoreMsgTag::kPartialShare;
template <> constexpr CoreMsgTag kTag<AckMsg> = CoreMsgTag::kAck;
template <> constexpr CoreMsgTag kTag<FrostSessionMsg> = CoreMsgTag::kFrostSession;
template <> constexpr CoreMsgTag kTag<FrostPartialMsg> = CoreMsgTag::kFrostPartial;
template <> constexpr CoreMsgTag kTag<AggregatorNotifyMsg> = CoreMsgTag::kAggregatorNotify;
template <> constexpr CoreMsgTag kTag<ManifestMsg> = CoreMsgTag::kManifest;
template <> constexpr CoreMsgTag kTag<SegmentDoneMsg> = CoreMsgTag::kSegmentDone;

// Every message: its tag, then its field list.
template <class M>
util::Bytes encode_as(const M& m) { return util::encode(kTag<M>, m); }
template <class M>
std::optional<M> decode_as(const util::Bytes& wire) { return util::decode<M>(kTag<M>, wire); }

}  // namespace

std::optional<std::uint8_t> peek_tag(const util::Bytes& wire) {
  if (wire.empty()) return std::nullopt;
  return wire.front();
}

sched::UpdateId update_id_base(const EventId& cause) {
  // 24 bits of origin, 32 bits of per-origin sequence, 8 bits of update
  // index within the schedule — unique as long as a schedule stays under
  // 256 updates (one per path switch; ample).
  return (static_cast<sched::UpdateId>(cause.origin & 0xFFFFFF) << 40) |
         ((cause.seq & 0xFFFFFFFFULL) << 8);
}

EventId cause_of(sched::UpdateId id) {
  return EventId{static_cast<std::uint32_t>(id >> 40), (id >> 8) & 0xFFFFFFFFULL};
}

std::uint64_t signing_digest64(const util::Bytes& signing_bytes) {
  const crypto::Digest d = crypto::Sha256::hash(signing_bytes);
  std::uint64_t dig = 0;
  for (std::size_t i = 0; i < 8; ++i) {
    dig |= static_cast<std::uint64_t>(d[i]) << (8 * i);
  }
  return dig;
}

// Signed bytes: a domain string, then the signed part of the field lists.
util::Bytes Event::body() const { return util::signed_bytes("cicero/event", *this); }
util::Bytes AckMsg::body() const { return util::signed_bytes("cicero/ack", *this); }
util::Bytes SegmentDoneMsg::body() const { return util::signed_bytes("cicero/segdone", *this); }
util::Bytes update_signing_bytes(const sched::Update& update) {
  return util::signed_bytes("cicero/update", update);
}
util::Bytes manifest_signing_bytes(const SegmentManifest& manifest, std::uint64_t epoch) {
  return util::signed_bytes("cicero/manifest", manifest, epoch);
}

util::Bytes Event::encode() const { return encode_as(*this); }
std::optional<Event> Event::decode(const util::Bytes& w) { return decode_as<Event>(w); }
util::Bytes UpdateMsg::encode() const { return encode_as(*this); }
std::optional<UpdateMsg> UpdateMsg::decode(const util::Bytes& w) { return decode_as<UpdateMsg>(w); }
template <CoreMsgTag T>
util::Bytes SignedUpdateMsg<T>::encode() const { return encode_as(*this); }
template <CoreMsgTag T>
std::optional<SignedUpdateMsg<T>> SignedUpdateMsg<T>::decode(const util::Bytes& w) {
  return decode_as<SignedUpdateMsg>(w);
}
template struct SignedUpdateMsg<CoreMsgTag::kAggUpdate>;
template struct SignedUpdateMsg<CoreMsgTag::kAggregatedUpdate>;
util::Bytes PartialShareMsg::encode() const { return encode_as(*this); }
std::optional<PartialShareMsg> PartialShareMsg::decode(const util::Bytes& w) {
  return decode_as<PartialShareMsg>(w);
}
util::Bytes AckMsg::encode() const { return encode_as(*this); }
std::optional<AckMsg> AckMsg::decode(const util::Bytes& w) { return decode_as<AckMsg>(w); }
util::Bytes FrostSessionMsg::encode() const { return encode_as(*this); }
std::optional<FrostSessionMsg> FrostSessionMsg::decode(const util::Bytes& w) {
  return decode_as<FrostSessionMsg>(w);
}
util::Bytes FrostPartialMsg::encode() const { return encode_as(*this); }
std::optional<FrostPartialMsg> FrostPartialMsg::decode(const util::Bytes& w) {
  return decode_as<FrostPartialMsg>(w);
}
util::Bytes AggregatorNotifyMsg::encode() const { return encode_as(*this); }
std::optional<AggregatorNotifyMsg> AggregatorNotifyMsg::decode(const util::Bytes& w) {
  return decode_as<AggregatorNotifyMsg>(w);
}
util::Bytes ManifestMsg::encode() const { return encode_as(*this); }
std::optional<ManifestMsg> ManifestMsg::decode(const util::Bytes& w) {
  return decode_as<ManifestMsg>(w);
}
util::Bytes SegmentDoneMsg::encode() const { return encode_as(*this); }
std::optional<SegmentDoneMsg> SegmentDoneMsg::decode(const util::Bytes& w) {
  return decode_as<SegmentDoneMsg>(w);
}

}  // namespace cicero::core
