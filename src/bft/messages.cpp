#include "bft/messages.hpp"

namespace cicero::bft {

template <class IO, util::Of<BftRequest> M>
void fields(IO& io, M& m) { io(m.submitter, m.local_seq, m.payload); }

template <class IO, util::Of<PreparedEntry> M>
void fields(IO& io, M& m) { io(m.seq, m.request); }

template <class IO, util::Of<BftMessage> M>
void fields(IO& io, M& m) {
  io(m.type, m.sender, m.view, m.seq, m.digest, m.request, m.last_delivered, m.prepared,
     m.new_view_entries, m.new_view_next_seq);
}

util::Bytes BftRequest::encode() const { return util::encode_fields(*this); }

BftRequest BftRequest::decode(util::Reader& r) {
  BftRequest req;
  util::Decoder{r}.list(req);
  return req;
}

crypto::Digest BftRequest::digest() const {
  crypto::Sha256 h;
  h.update("cicero/bft/req").update(encode());
  return h.finish();
}

util::Bytes BftMessage::encode_body() const { return util::encode_fields(*this); }

util::Bytes BftMessage::encode(const util::Bytes& signature) const {
  using Wire = std::pair<const BftMessage&, const util::Bytes&>;
  return util::encode(kBftWireTag, Wire(*this, signature));
}

std::optional<std::pair<BftMessage, util::Bytes>> BftMessage::decode(const util::Bytes& wire) {
  return util::decode<std::pair<BftMessage, util::Bytes>>(kBftWireTag, wire);
}

}  // namespace cicero::bft
