#include "core/audit.hpp"

#include <algorithm>
#include <array>

namespace cicero::core {

crypto::Digest AuditEntry::digest() const {
  // Fixed layout, little-endian: index, prev, cause origin, cause seq,
  // update digest (8 + 32 + 4 + 8 + 32 bytes).
  std::array<std::uint8_t, 84> buf;
  std::uint8_t* p = buf.data();
  const auto put_le = [&p](std::uint64_t v, int n) {
    for (int i = 0; i < n; ++i) *p++ = static_cast<std::uint8_t>(v >> (8 * i));
  };
  put_le(index, 8);
  p = std::copy(prev.begin(), prev.end(), p);
  put_le(cause.origin, 4);
  put_le(cause.seq, 8);
  std::copy(update_digest.begin(), update_digest.end(), p);
  crypto::Sha256 h;
  h.update("cicero/audit");
  h.update(buf.data(), buf.size());
  return h.finish();
}

void AuditLog::append(const EventId& cause, const util::Bytes& update_bytes,
                      const crypto::SchnorrKeyPair& key) {
  AuditEntry e;
  e.index = entries_.size();
  e.prev = head_;
  e.cause = cause;
  e.update_digest = crypto::Sha256::hash(update_bytes);
  head_ = e.digest();
  entries_.push_back(std::move(e));
  if (entries_.size() % kCheckpointEvery == 0) sign_head(key);
}

void AuditLog::seal(const crypto::SchnorrKeyPair& key) {
  if (!entries_.empty() && entries_.back().sig.empty()) sign_head(key);
}

void AuditLog::sign_head(const crypto::SchnorrKeyPair& key) {
  entries_.back().sig = crypto::schnorr_sign(key, crypto::digest_bytes(head_)).to_bytes();
}

bool AuditLog::verify_chain(const std::vector<AuditEntry>& entries, const crypto::Point& pk) {
  crypto::Digest prev{};
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const AuditEntry& e = entries[i];
    if (e.index != i) return false;
    if (!std::equal(e.prev.begin(), e.prev.end(), prev.begin())) return false;
    prev = e.digest();
    if (e.sig.empty()) continue;
    const auto sig = crypto::SchnorrSignature::from_bytes(e.sig);
    if (!sig || !crypto::schnorr_verify(pk, crypto::digest_bytes(prev), *sig)) return false;
  }
  // An unsigned tail is not covered by any signature, so it is not evidence.
  return entries.empty() || !entries.back().sig.empty();
}

std::map<EventId, std::multiset<std::string>> AuditLog::decisions(
    const std::vector<AuditEntry>& entries) {
  std::map<EventId, std::multiset<std::string>> out;
  for (const AuditEntry& e : entries) {
    out[e.cause].insert(std::string(e.update_digest.begin(), e.update_digest.end()));
  }
  return out;
}

std::optional<EventId> AuditLog::first_divergence(const std::vector<AuditEntry>& a,
                                                  const std::vector<AuditEntry>& b) {
  const auto da = decisions(a);
  const auto db = decisions(b);
  for (const auto& [event, set_a] : da) {
    const auto it = db.find(event);
    if (it == db.end()) continue;  // only one side has seen it (yet)
    if (it->second != set_a) return event;
  }
  return std::nullopt;
}

}  // namespace cicero::core
