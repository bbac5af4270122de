#include "crypto/simbls.hpp"

#include <unordered_set>

#include "obs/metrics.hpp"
#include "util/serialize.hpp"

namespace cicero::crypto {

namespace {
Scalar hash_scalar(const util::Bytes& msg) {
  // Every step of a SimBLS flow (partial sign, t partial verifies, final
  // verify) hashes the same message; memoize the last message per thread so
  // repeat calls cost a comparison instead of two SHA-256 passes + wide
  // reduction.
  thread_local util::Bytes cached_msg;
  thread_local Scalar cached_scalar;
  thread_local bool cached = false;
  if (cached && cached_msg == msg) return cached_scalar;
  constexpr std::string_view kDomain = "cicero/simbls";
  util::Writer w(8 + kDomain.size() + msg.size());
  w.str(kDomain);
  w.bytes(msg);
  cached_scalar = Scalar::hash_to_scalar(w.data());
  cached_msg = msg;
  cached = true;
  return cached_scalar;
}
}  // namespace

util::Bytes PartialSignature::to_bytes() const {
  util::Writer w(8 + payload.size());
  w.u32(signer);
  w.bytes(payload);
  return w.take();
}

std::optional<PartialSignature> PartialSignature::from_bytes(const util::Bytes& b) {
  try {
    util::Reader r(b);
    PartialSignature p;
    p.signer = r.u32();
    p.payload = r.bytes();
    r.expect_end();
    if (p.signer == 0) return std::nullopt;
    return p;
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

PartialSignature SimBlsScheme::partial_sign(const SecretShare& share,
                                            const util::Bytes& msg) const {
  ++obs::crypto_ops().partial_sign;
  const Point hash_point = Point::mul_gen(hash_scalar(msg));
  const Point sig = hash_point * share.value;
  return PartialSignature{share.index, sig.to_bytes()};
}

bool SimBlsScheme::verify_partial(const Point& verification_share, const util::Bytes& msg,
                                  const PartialSignature& partial) const {
  ++obs::crypto_ops().partial_verify;
  const auto sig = Point::from_bytes(partial.payload);
  if (!sig || sig->is_infinity()) return false;
  // share_i * (h*G) == h * (share_i * G)
  return *sig == verification_share * hash_scalar(msg);
}

std::optional<util::Bytes> SimBlsScheme::aggregate(const util::Bytes& msg,
                                                   const std::vector<PartialSignature>& partials,
                                                   std::size_t threshold) const {
  ++obs::crypto_ops().aggregate;
  (void)msg;  // aggregation is message-independent, as in real BLS
  // Deduplicate signers; take the first `threshold` distinct ones.
  std::vector<const PartialSignature*> quorum;
  std::unordered_set<ShareIndex> seen;
  for (const auto& p : partials) {
    if (p.signer != 0 && seen.insert(p.signer).second) quorum.push_back(&p);
    if (quorum.size() == threshold) break;
  }
  if (quorum.size() < threshold || threshold == 0) return std::nullopt;

  std::vector<ShareIndex> indices;
  indices.reserve(quorum.size());
  for (const auto* p : quorum) indices.push_back(p->signer);

  // All Lagrange coefficients at once (one field inversion for the whole
  // quorum), then one Strauss multi-scalar multiplication for the weighted
  // sum (one shared doubling chain instead of one per share).
  const std::vector<Scalar> lambda = lagrange_all_at_zero(indices);
  std::vector<Point> sigs;
  sigs.reserve(quorum.size());
  for (const auto* p : quorum) {
    const auto sig = Point::from_bytes(p->payload);
    if (!sig) return std::nullopt;
    sigs.push_back(*sig);
  }
  return Point::multi_mul(sigs, lambda).to_bytes();
}

bool SimBlsScheme::verify(const Point& group_public_key, const util::Bytes& msg,
                          const util::Bytes& signature) const {
  ++obs::crypto_ops().threshold_verify;
  const auto sig = Point::from_bytes(signature);
  if (!sig || sig->is_infinity() || group_public_key.is_infinity()) return false;
  return *sig == group_public_key * hash_scalar(msg);
}

const SimBlsScheme& SimBlsScheme::instance() {
  static const SimBlsScheme scheme;
  return scheme;
}

}  // namespace cicero::crypto
