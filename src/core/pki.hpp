// PKI directory: public keys of every event source (paper §3.2: "each
// event source is assigned a public/private key pair").
//
// Switches are keyed by topology node index; controllers by
// kControllerOriginBase + controller id (controller ids are never reused
// across membership changes, §4.2, so directory entries are append-only).
//
// Every member of a control plane checks the same switch-signed bytes
// against the same key, so the directory remembers the last
// kVerifyMemoWindow (origin, signature, body) triples that verified and
// answers a repeat without redoing the Schnorr check (DESIGN.md §4.2a).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>

#include "core/messages.hpp"
#include "crypto/group.hpp"
#include "util/flat_hash.hpp"
#include "util/thread_annotations.hpp"

namespace cicero::core {

class PkiDirectory {
 public:
  /// Triples the verification memo holds at most; the oldest goes first.
  static constexpr std::size_t kVerifyMemoWindow = 256;

  /// Registers or replaces an origin's key.  Clears the verification memo,
  /// so no success remembered under a replaced key outlives it.
  void register_origin(std::uint32_t origin, const crypto::Point& pk);

  /// Verify a signature over body() against the sender's registered key.
  bool verify_event(const Event& e) const { return verify(e.id.origin, e.body(), e.sig); }
  bool verify_ack(const AckMsg& a) const { return verify(a.switch_node, a.body(), a.sig); }
  bool verify_segment_done(const SegmentDoneMsg& d) const {
    return verify(d.switch_node, d.body(), d.sig);
  }

  /// Verifications answered from the memo since construction, and the
  /// triples it holds now.  Host-side bookkeeping only: neither feeds any
  /// simulated quantity.
  std::uint64_t verify_memo_hits() const;
  std::size_t verify_memo_entries() const;

 private:
  bool verify(std::uint32_t origin, const util::Bytes& body, const util::Bytes& sig) const;

  std::map<std::uint32_t, crypto::Point> pks_;

  // Successes only, keyed by the exact bytes checked: a forged or altered
  // copy of a remembered message misses and is verified for real.  The
  // parallel engine's shards share one directory, so the memo is locked;
  // the Schnorr check itself runs outside the lock.
  mutable util::Mutex memo_mu_;
  mutable util::FlatHashSet<std::string, util::StringHash> memo_ CICERO_GUARDED_BY(memo_mu_);
  mutable std::deque<std::string> memo_order_ CICERO_GUARDED_BY(memo_mu_);
  mutable std::uint64_t memo_hits_ CICERO_GUARDED_BY(memo_mu_) = 0;
};

}  // namespace cicero::core
