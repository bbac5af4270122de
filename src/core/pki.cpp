#include "core/pki.hpp"

#include <utility>

namespace cicero::core {
namespace {

void append_u32(std::string& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
}

/// The exact bytes a verification checks: origin, signature length,
/// signature, body.  The length prefix keeps the split unambiguous.
std::string memo_key(std::uint32_t origin, const util::Bytes& body, const util::Bytes& sig) {
  std::string key;
  key.reserve(8 + sig.size() + body.size());
  append_u32(key, origin);
  append_u32(key, static_cast<std::uint32_t>(sig.size()));
  key.append(sig.begin(), sig.end());
  key.append(body.begin(), body.end());
  return key;
}

}  // namespace

void PkiDirectory::register_origin(std::uint32_t origin, const crypto::Point& pk) {
  pks_[origin] = pk;
  util::MutexLock lock(memo_mu_);
  memo_.clear();
  memo_order_.clear();
}

bool PkiDirectory::verify(std::uint32_t origin, const util::Bytes& body,
                          const util::Bytes& sig) const {
  const auto it = pks_.find(origin);
  if (it == pks_.end()) return false;
  std::string key = memo_key(origin, body, sig);
  {
    util::MutexLock lock(memo_mu_);
    if (memo_.contains(key)) {
      ++memo_hits_;
      return true;
    }
  }
  const auto parsed = crypto::SchnorrSignature::from_bytes(sig);
  if (!parsed || !crypto::schnorr_verify(it->second, body, *parsed)) return false;
  util::MutexLock lock(memo_mu_);
  // Another shard may have verified the same triple meanwhile.
  if (!memo_.insert(key)) return true;
  if (memo_order_.size() == kVerifyMemoWindow) {
    memo_.erase(memo_order_.front());
    memo_order_.pop_front();
  }
  memo_order_.push_back(std::move(key));
  return true;
}

std::uint64_t PkiDirectory::verify_memo_hits() const {
  util::MutexLock lock(memo_mu_);
  return memo_hits_;
}

std::size_t PkiDirectory::verify_memo_entries() const {
  util::MutexLock lock(memo_mu_);
  return memo_.size();
}

}  // namespace cicero::core
