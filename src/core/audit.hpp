// Auditable controller-decision log (paper §7 future work).
//
// The paper's conclusions propose coupling the control-plane state with a
// distributed ledger "to help detect (potentially transient and
// malicious) controller failures thanks to the auditability of their
// decisions".  This module implements the per-controller half of that
// idea: every update a controller emits is appended to a hash-chained
// decision log whose head is Schnorr-signed every `kCheckpointEvery` (64)
// entries and on `seal`.  A signed head commits to every earlier entry
// through the chain, so one checkpoint signature gives the same
// non-repudiable evidence as signing each entry, at 1/64 of the cost.
// Checkpoints are always real Schnorr signatures (whatever the
// deployment's crypto mode), so any log can be checked by `verify_chain`.
// Because honest controllers decide deterministically from the same
// delivered event sequence, any two honest logs contain the SAME
// update-digest set per event; a mutating controller's log either (a)
// records its corrupted updates — signed, non-repudiable evidence once
// sealed — or (b) diverges from what switches received, which the
// threshold scheme already exposes.
//
// Auditing primitives:
//   * `verify_chain` — integrity + checkpoint-signature check of one
//     sealed log (an unsealed tail is not evidence and is rejected);
//   * `first_divergence` — earliest event where two logs' decision sets
//     differ (order-independent), pinpointing the disagreeing event.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/messages.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"

namespace cicero::core {

struct AuditEntry {
  std::uint64_t index = 0;
  crypto::Digest prev{};           ///< digest of the previous entry (chain)
  EventId cause;                   ///< event the decision responds to
  crypto::Digest update_digest{};  ///< digest of the emitted update's signed bytes
  util::Bytes sig;                 ///< controller signature over digest(); checkpoints only

  /// Digest of this entry (covers index, prev, cause and decision).
  crypto::Digest digest() const;
};

class AuditLog {
 public:
  /// Appends a decision: `update_bytes` are the exact bytes the controller
  /// (threshold-)signed for the update it emitted in response to `cause`.
  /// Every `kCheckpointEvery`-th entry is signed with `key`.
  void append(const EventId& cause, const util::Bytes& update_bytes,
              const crypto::SchnorrKeyPair& key);

  /// Signs the head if it is not signed yet, so the whole log verifies.
  /// A no-op on an empty or already-sealed log.
  void seal(const crypto::SchnorrKeyPair& key);

  const std::vector<AuditEntry>& entries() const { return entries_; }
  std::size_t size() const { return entries_.size(); }

  /// Full integrity check: indices contiguous, hash chain unbroken, every
  /// present signature valid under `pk`, and the last entry signed.
  static bool verify_chain(const std::vector<AuditEntry>& entries, const crypto::Point& pk);

  /// Decision sets grouped by event (order-independent view of the log).
  static std::map<EventId, std::multiset<std::string>> decisions(
      const std::vector<AuditEntry>& entries);

  /// Earliest event (by EventId order) whose decision sets differ between
  /// the two logs; nullopt if they agree on every event both have seen.
  /// Events present in only one log are NOT divergence (logs are compared
  /// while the system runs, so one controller may simply be ahead).
  static std::optional<EventId> first_divergence(const std::vector<AuditEntry>& a,
                                                 const std::vector<AuditEntry>& b);

 private:
  static constexpr std::size_t kCheckpointEvery = 64;

  void sign_head(const crypto::SchnorrKeyPair& key);

  std::vector<AuditEntry> entries_;
  crypto::Digest head_{};  ///< digest of entries_.back(); zero when empty
};

}  // namespace cicero::core
