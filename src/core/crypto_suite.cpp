#include "core/crypto_suite.hpp"

#include <stdexcept>

#include "crypto/dkg.hpp"
#include "crypto/simbls.hpp"

namespace cicero::core {

crypto::PartialSignature CryptoSuite::partial_sign(const crypto::SecretShare& share,
                                                   const util::Bytes& msg) const {
  if (!real_) return crypto::PartialSignature{share.index, {0x00}};
  return crypto::SimBlsScheme::instance().partial_sign(share, msg);
}

bool CryptoSuite::verify_partial(const VerificationShares& vshares, const util::Bytes& msg,
                                 const crypto::PartialSignature& partial) const {
  if (!real_) return true;
  const auto vs = vshares.find(partial.signer);
  return vs != vshares.end() &&
         crypto::SimBlsScheme::instance().verify_partial(vs->second, msg, partial);
}

std::optional<util::Bytes> CryptoSuite::aggregate(const util::Bytes& msg,
                                                  const Partials& partials,
                                                  std::uint32_t quorum) const {
  if (!real_) return util::Bytes{0x00};
  std::vector<crypto::PartialSignature> parts;
  for (const auto& [idx, part] : partials) parts.push_back(part);
  return crypto::SimBlsScheme::instance().aggregate(msg, parts, quorum);
}

std::optional<util::Bytes> CryptoSuite::combine(const crypto::Point& group_pk,
                                                const util::Bytes& msg,
                                                const Partials& partials,
                                                std::uint32_t quorum) const {
  if (!real_) return util::Bytes{0x00};
  const auto& scheme = crypto::SimBlsScheme::instance();
  std::vector<crypto::PartialSignature> all;
  all.reserve(partials.size());
  for (const auto& [idx, part] : partials) all.push_back(part);
  for (std::size_t skip = 0; skip <= all.size(); ++skip) {
    std::vector<crypto::PartialSignature> subset;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (skip != 0 && i == skip - 1) continue;  // skip==0: no exclusion
      subset.push_back(all[i]);
    }
    if (subset.size() < quorum) continue;
    auto agg = scheme.aggregate(msg, subset, quorum);
    if (agg && scheme.verify(group_pk, msg, *agg)) return agg;
  }
  return std::nullopt;
}

bool CryptoSuite::verify_update(const crypto::Point& group_pk, const sched::Update& update,
                                const util::Bytes& sig) const {
  if (!real_) return true;
  if (backend_ == ThresholdBackend::kFrost) {
    const auto s = crypto::FrostSignature::from_bytes(sig);
    return s && crypto::frost_verify(group_pk, update_signing_bytes(update), *s);
  }
  return crypto::SimBlsScheme::instance().verify(group_pk, update_signing_bytes(update), sig);
}

std::unique_ptr<CryptoSuite::FrostParty> CryptoSuite::frost_party(
    const crypto::SecretShare& share, const crypto::Point& group_pk,
    std::uint64_t nonce_seed) const {
  if (!real_ || backend_ != ThresholdBackend::kFrost) return nullptr;
  return std::make_unique<FrostParty>(
      FrostParty{crypto::FrostSigner(share, group_pk), crypto::Drbg(nonce_seed ^ 0xF057ull)});
}

util::Bytes CryptoSuite::frost_commit(FrostParty* party) const {
  return party == nullptr ? util::Bytes{} : party->signer.commit(party->nonces).to_bytes();
}

std::optional<crypto::FrostCommitment> CryptoSuite::frost_commitment(
    crypto::ShareIndex signer, const util::Bytes& wire) const {
  if (!real_) return crypto::FrostCommitment{signer, {}, {}};
  auto c = crypto::FrostCommitment::from_bytes(wire);
  if (!c || c->signer != signer) return std::nullopt;
  return c;
}

std::optional<util::Bytes> CryptoSuite::frost_sign(FrostParty* party, const util::Bytes& msg,
                                                   const std::vector<util::Bytes>& session) const {
  if (party == nullptr) return util::Bytes{0x00};
  std::vector<crypto::FrostCommitment> commitments;
  for (const auto& cb : session) {
    const auto c = crypto::FrostCommitment::from_bytes(cb);
    if (!c) return std::nullopt;
    commitments.push_back(*c);
  }
  return party->signer.sign(msg, commitments).to_bytes();
}

std::optional<crypto::Scalar> CryptoSuite::frost_partial(
    const util::Bytes& msg, const FrostSession& session,
    const crypto::Point& group_pk, const VerificationShares& vshares, crypto::ShareIndex signer,
    const util::Bytes& z) const {
  if (!real_) return crypto::Scalar::zero();
  const auto zi = crypto::Scalar::from_bytes(z);
  const auto vs = vshares.find(signer);
  if (!zi || vs == vshares.end() ||
      !crypto::frost_verify_partial(msg, session, group_pk, signer, vs->second, *zi)) {
    return std::nullopt;
  }
  return zi;
}

std::optional<util::Bytes> CryptoSuite::frost_aggregate(
    const util::Bytes& msg, const FrostSession& session,
    const crypto::Point& group_pk, const std::map<crypto::ShareIndex, crypto::Scalar>& z) const {
  if (!real_) return util::Bytes{0x01};
  const auto sig = crypto::frost_aggregate(msg, session, group_pk, z);
  if (!sig) return std::nullopt;
  return sig->to_bytes();
}

crypto::SchnorrKeyPair CryptoSuite::switch_key(crypto::Drbg& drbg) const {
  if (real_) return crypto::SchnorrKeyPair::generate(drbg);
  return crypto::SchnorrKeyPair{drbg.next_secret_scalar(), crypto::Point::infinity()};
}

CryptoSuite::PlaneKeys CryptoSuite::deal_plane(const std::vector<crypto::ShareIndex>& indices,
                                               std::size_t t, bool threshold_signing,
                                               crypto::Drbg& drbg) const {
  PlaneKeys keys;
  if (real_ && threshold_signing) {
    const auto results = crypto::run_dkg(indices, t, drbg);
    keys.group_pk = results.front().group_public_key;
    keys.verification_shares = results.front().verification_shares;
    for (const auto& r : results) keys.shares.push_back(r.share);
    return keys;
  }
  const ct::Secret<crypto::Scalar> secret = drbg.next_secret_scalar();
  keys.group_pk = crypto::Point::mul_gen(secret);
  crypto::Polynomial poly = crypto::Polynomial::random(secret, t, drbg);
  for (const crypto::ShareIndex i : indices) keys.shares.push_back({i, poly.eval(i)});
  return keys;
}

CryptoSuite::PlaneKeys CryptoSuite::reshare(const std::vector<crypto::SecretShare>& dealers,
                                            const std::vector<crypto::ShareIndex>& indices,
                                            std::size_t t, const crypto::Point& group_pk,
                                            crypto::Drbg& drbg) const {
  PlaneKeys keys;
  keys.group_pk = group_pk;
  if (!real_) {
    // The group key is trivially preserved: it is never recomputed.
    for (const crypto::ShareIndex i : indices) keys.shares.push_back({i, drbg.next_scalar_any()});
    return keys;
  }
  std::vector<crypto::ShareIndex> quorum;
  for (const auto& d : dealers) quorum.push_back(d.index);
  std::vector<crypto::ReshareDeal> deals;
  for (const auto& d : dealers) {
    deals.push_back(crypto::make_reshare_deal(d, quorum, indices, t, drbg));
  }
  for (const crypto::ShareIndex i : indices) {
    const auto result = crypto::reshare_finalize(deals, i, indices);
    if (!(result.group_public_key == group_pk)) {
      throw std::logic_error("membership change altered the group public key");
    }
    keys.shares.push_back(result.share);
    keys.verification_shares = result.verification_shares;
  }
  return keys;
}

}  // namespace cicero::core
