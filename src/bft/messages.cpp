#include "bft/messages.hpp"

namespace cicero::bft {

util::Bytes BftRequest::encode() const {
  util::Writer w;
  w.u32(submitter);
  w.u64(local_seq);
  w.bytes(payload);
  return w.take();
}

BftRequest BftRequest::decode(util::Reader& r) {
  BftRequest req;
  req.submitter = r.u32();
  req.local_seq = r.u64();
  req.payload = r.bytes();
  return req;
}

crypto::Digest BftRequest::digest() const {
  crypto::Sha256 h;
  h.update("cicero/bft/req").update(encode());
  return h.finish();
}

util::Bytes BftMessage::encode_body() const {
  util::Writer w;
  w.u8(static_cast<std::uint8_t>(type));
  w.u32(sender);
  w.u64(view);
  w.u64(seq);
  w.raw(digest.data(), digest.size());
  w.boolean(request.has_value());
  if (request) w.bytes(request->encode());
  w.u64(last_delivered);
  w.u32(static_cast<std::uint32_t>(prepared.size()));
  for (const auto& p : prepared) {
    w.u64(p.seq);
    w.bytes(p.request.encode());
  }
  w.u32(static_cast<std::uint32_t>(new_view_entries.size()));
  for (const auto& [s, req] : new_view_entries) {
    w.u64(s);
    w.bytes(req.encode());
  }
  w.u64(new_view_next_seq);
  return w.take();
}

util::Bytes BftMessage::encode(const util::Bytes& signature) const {
  util::Writer w;
  w.u8(kBftWireTag);
  w.bytes(encode_body());
  w.bytes(signature);
  return w.take();
}

std::optional<std::pair<BftMessage, util::Bytes>> BftMessage::decode(const util::Bytes& wire) {
  try {
    util::Reader outer(wire);
    if (outer.u8() != kBftWireTag) return std::nullopt;
    const util::Bytes body = outer.bytes();
    util::Bytes sig = outer.bytes();
    outer.expect_end();

    util::Reader r(body);
    BftMessage m;
    const std::uint8_t type = r.u8();
    if (type > static_cast<std::uint8_t>(BftMsgType::kFetchReply)) return std::nullopt;
    m.type = static_cast<BftMsgType>(type);
    m.sender = r.u32();
    m.view = r.u64();
    m.seq = r.u64();
    const util::Bytes d = r.raw(m.digest.size());
    std::copy(d.begin(), d.end(), m.digest.begin());
    if (r.boolean()) {
      const util::Bytes req_bytes = r.bytes();  // named: Reader borrows its buffer
      util::Reader rr(req_bytes);
      m.request = BftRequest::decode(rr);
      rr.expect_end();
    }
    m.last_delivered = r.u64();
    const std::uint32_t n_prepared = r.u32();
    for (std::uint32_t i = 0; i < n_prepared; ++i) {
      PreparedEntry e;
      e.seq = r.u64();
      const util::Bytes req_bytes = r.bytes();
      util::Reader rr(req_bytes);
      e.request = BftRequest::decode(rr);
      rr.expect_end();
      m.prepared.push_back(std::move(e));
    }
    const std::uint32_t n_entries = r.u32();
    for (std::uint32_t i = 0; i < n_entries; ++i) {
      const SeqNum s = r.u64();
      // encode_body writes the map in ascending order; anything else (a
      // repeated or out-of-order seq) would decode to a message whose
      // encoding differs from the bytes received.
      if (!m.new_view_entries.empty() && s <= m.new_view_entries.rbegin()->first) {
        return std::nullopt;
      }
      const util::Bytes req_bytes = r.bytes();
      util::Reader rr(req_bytes);
      m.new_view_entries.emplace_hint(m.new_view_entries.end(), s, BftRequest::decode(rr));
      rr.expect_end();
    }
    m.new_view_next_seq = r.u64();
    r.expect_end();
    return std::make_pair(std::move(m), std::move(sig));
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

}  // namespace cicero::bft
