// PKI directory: public keys of every event source (paper §3.2: "each
// event source is assigned a public/private key pair").
//
// Switches are keyed by topology node index; controllers by
// kControllerOriginBase + controller id (controller ids are never reused
// across membership changes, §4.2, so directory entries are append-only).
#pragma once

#include <map>

#include "core/messages.hpp"
#include "crypto/group.hpp"

namespace cicero::core {

class PkiDirectory {
 public:
  void register_origin(std::uint32_t origin, const crypto::Point& pk) { pks_[origin] = pk; }

  /// Verify a signature over body() against the sender's registered key.
  bool verify_event(const Event& e) const { return verify(e.id.origin, e); }
  bool verify_ack(const AckMsg& a) const { return verify(a.switch_node, a); }
  bool verify_segment_done(const SegmentDoneMsg& d) const { return verify(d.switch_node, d); }

 private:
  template <typename Msg>
  bool verify(std::uint32_t origin, const Msg& msg) const {
    const auto it = pks_.find(origin);
    if (it == pks_.end()) return false;
    const auto sig = crypto::SchnorrSignature::from_bytes(msg.sig);
    return sig && crypto::schnorr_verify(it->second, msg.body(), *sig);
  }

  std::map<std::uint32_t, crypto::Point> pks_;
};

}  // namespace cicero::core
