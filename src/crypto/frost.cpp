#include "crypto/frost.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "util/serialize.hpp"

namespace cicero::crypto {

namespace {

/// Canonical transcript of the sorted commitment list.
util::Bytes session_transcript(const std::vector<FrostCommitment>& session) {
  std::vector<const FrostCommitment*> sorted;
  sorted.reserve(session.size());
  for (const auto& c : session) sorted.push_back(&c);
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->signer < b->signer; });
  // Every commitment is a signer index and two 65-byte points (a point
  // at infinity takes 1 byte, so this is an upper bound).
  util::Writer w(sorted.size() * (12 + 2 * 65));
  for (const auto* c : sorted) {
    w.u32(c->signer);
    w.bytes(c->d.to_bytes());
    w.bytes(c->e.to_bytes());
  }
  return w.take();
}

Scalar binding_factor(ShareIndex signer, const util::Bytes& msg, const util::Bytes& transcript) {
  constexpr std::string_view kDomain = "cicero/frost/rho";
  util::Writer w(16 + kDomain.size() + msg.size() + transcript.size());
  w.str(kDomain);
  w.u32(signer);
  w.bytes(msg);
  w.bytes(transcript);
  return Scalar::hash_to_scalar(w.data());
}

Scalar challenge(const Point& r, const Point& pk, const util::Bytes& msg) {
  constexpr std::string_view kDomain = "cicero/frost/chal";
  const util::Bytes rb = r.to_bytes();
  const util::Bytes pkb = pk.to_bytes();
  util::Writer w(16 + kDomain.size() + rb.size() + pkb.size() + msg.size());
  w.str(kDomain);
  w.bytes(rb);
  w.bytes(pkb);
  w.bytes(msg);
  return Scalar::hash_to_scalar(w.data());
}

}  // namespace

util::Bytes FrostCommitment::to_bytes() const {
  const util::Bytes db = d.to_bytes();
  const util::Bytes eb = e.to_bytes();
  util::Writer w(12 + db.size() + eb.size());
  w.u32(signer);
  w.bytes(db);
  w.bytes(eb);
  return w.take();
}

std::optional<FrostCommitment> FrostCommitment::from_bytes(const util::Bytes& b) {
  try {
    util::Reader r(b);
    FrostCommitment c;
    c.signer = r.u32();
    const auto d = Point::from_bytes(r.bytes());
    const auto e = Point::from_bytes(r.bytes());
    r.expect_end();
    if (!d || !e || c.signer == 0) return std::nullopt;
    c.d = *d;
    c.e = *e;
    return c;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

util::Bytes FrostSignature::to_bytes() const {
  const util::Bytes rb = r.to_bytes();
  const util::Bytes zb = z.to_bytes();
  util::Writer w(8 + rb.size() + zb.size());
  w.bytes(rb);
  w.bytes(zb);
  return w.take();
}

std::optional<FrostSignature> FrostSignature::from_bytes(const util::Bytes& b) {
  try {
    util::Reader rd(b);
    const auto r = Point::from_bytes(rd.bytes());
    const auto z = Scalar::from_bytes(rd.bytes());
    rd.expect_end();
    if (!r || !z) return std::nullopt;
    return FrostSignature{*r, *z};
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

FrostSigner::FrostSigner(SecretShare share, Point group_public_key)
    : share_(std::move(share)), group_pk_(std::move(group_public_key)) {
  if (share_.index == 0) throw std::invalid_argument("FrostSigner: zero share index");
}

FrostCommitment FrostSigner::commit(Drbg& drbg) {
  NoncePair np;
  np.d = drbg.next_secret_scalar();
  np.e = drbg.next_secret_scalar();
  // Nonce commitments D = d*G, E = e*G via the constant-time comb.
  np.cd = Point::mul_gen(np.d);
  np.ce = Point::mul_gen(np.e);
  pending_.push_back(np);
  return FrostCommitment{share_.index, np.cd, np.ce};
}

Scalar FrostSigner::sign(const util::Bytes& msg, const std::vector<FrostCommitment>& session) {
  // Locate our commitment in the session and the matching pending nonce.
  const FrostCommitment* ours = nullptr;
  for (const auto& c : session) {
    if (c.signer == share_.index) {
      if (ours != nullptr) throw std::invalid_argument("FrostSigner::sign: duplicate commitment");
      ours = &c;
    }
  }
  if (ours == nullptr) throw std::invalid_argument("FrostSigner::sign: not in session");

  auto it = std::find_if(pending_.begin(), pending_.end(), [&](const NoncePair& np) {
    return np.cd == ours->d && np.ce == ours->e;
  });
  if (it == pending_.end()) {
    throw std::invalid_argument("FrostSigner::sign: unknown or already-used nonce pair");
  }
  const NoncePair np = *it;
  pending_.erase(it);  // never reuse a nonce
  ++obs::crypto_ops().frost_sign;

  const auto keys = frost_session_keys(msg, session, group_pk_);
  const Scalar rho = keys.rho.at(share_.index);
  const Scalar lambda = keys.lambda.at(share_.index);
  // z_i = d + e*ρ + λ*c*x over the taint-tracked path (ρ, λ, c public;
  // d, e, x secret); the partial signature itself is a public protocol
  // message, hence the declassify on return.
  return (np.d + np.e * rho + (lambda * keys.c) * share_.value).declassify();
}

FrostSessionKeys frost_session_keys(const util::Bytes& msg,
                                    const std::vector<FrostCommitment>& session,
                                    const Point& group_public_key) {
  if (session.empty()) throw std::invalid_argument("frost_session_keys: empty session");
  const util::Bytes transcript = session_transcript(session);

  std::vector<ShareIndex> indices;
  indices.reserve(session.size());
  for (const auto& c : session) indices.push_back(c.signer);

  FrostSessionKeys keys;
  const std::vector<Scalar> lambda = lagrange_all_at_zero(indices);
  // R = sum_i D_i + sum_i rho_i E_i; the second sum is a single Strauss
  // multi-scalar multiplication.
  std::vector<Point> es;
  std::vector<Scalar> rhos;
  es.reserve(session.size());
  rhos.reserve(session.size());
  Point r = Point::infinity();
  for (std::size_t i = 0; i < session.size(); ++i) {
    const auto& c = session[i];
    const Scalar rho = binding_factor(c.signer, msg, transcript);
    keys.rho[c.signer] = rho;
    keys.lambda[c.signer] = lambda[i];
    es.push_back(c.e);
    rhos.push_back(rho);
    r = r + c.d;
  }
  r = r + Point::multi_mul(es, rhos);
  keys.r = r;
  keys.c = challenge(r, group_public_key, msg);
  return keys;
}

bool frost_verify_partial(const util::Bytes& msg, const std::vector<FrostCommitment>& session,
                          const Point& group_public_key, ShareIndex signer,
                          const Point& verification_share, const Scalar& z_i) {
  ++obs::crypto_ops().partial_verify;
  const FrostCommitment* ours = nullptr;
  for (const auto& c : session) {
    if (c.signer == signer) ours = &c;
  }
  if (ours == nullptr) return false;
  FrostSessionKeys keys;
  try {
    keys = frost_session_keys(msg, session, group_public_key);
  } catch (const std::invalid_argument&) {
    return false;
  }
  // z_i*G == D_i + ρ_i E_i + λ_i c * (x_i G), rearranged so the generator
  // and ρ_i E_i terms fold into one Strauss–Shamir double-scalar mult:
  // z_i*G - ρ_i E_i == D_i + λ_i c * (x_i G).
  const Point lhs = Point::mul_gen_add(z_i, ours->e, -keys.rho.at(signer));
  const Point rhs = ours->d + verification_share * (keys.lambda.at(signer) * keys.c);
  return lhs == rhs;
}

std::optional<FrostSignature> frost_aggregate(const util::Bytes& msg,
                                              const std::vector<FrostCommitment>& session,
                                              const Point& group_public_key,
                                              const std::map<ShareIndex, Scalar>& partials) {
  ++obs::crypto_ops().frost_aggregate;
  FrostSessionKeys keys;
  try {
    keys = frost_session_keys(msg, session, group_public_key);
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
  Scalar z = Scalar::zero();
  for (const auto& c : session) {
    const auto it = partials.find(c.signer);
    if (it == partials.end()) return std::nullopt;
    z = z + it->second;
  }
  return FrostSignature{keys.r, z};
}

bool frost_verify(const Point& group_public_key, const util::Bytes& msg,
                  const FrostSignature& sig) {
  ++obs::crypto_ops().frost_verify;
  if (sig.r.is_infinity() || group_public_key.is_infinity()) return false;
  const Scalar c = challenge(sig.r, group_public_key, msg);
  // z*G - c*PK == R as a single Strauss–Shamir double-scalar mult.
  return Point::mul_gen_add(sig.z, group_public_key, -c) == sig.r;
}

}  // namespace cicero::crypto
