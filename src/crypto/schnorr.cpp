#include "crypto/schnorr.hpp"

#include "obs/metrics.hpp"
#include "util/serialize.hpp"

namespace cicero::crypto {

namespace {
/// Fiat–Shamir challenge e = H(R || PK || m) as a scalar.
Scalar challenge(const Point& r, const Point& pk, const util::Bytes& msg) {
  constexpr std::string_view kDomain = "cicero/schnorr";
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

util::Bytes SchnorrSignature::to_bytes() const {
  const util::Bytes rb = r.to_bytes();
  const util::Bytes sb = s.to_bytes();
  util::Writer w(8 + rb.size() + sb.size());
  w.bytes(rb);
  w.bytes(sb);
  return w.take();
}

std::optional<SchnorrSignature> SchnorrSignature::from_bytes(const util::Bytes& b) {
  try {
    util::Reader rd(b);
    const auto rp = Point::from_bytes(rd.bytes());
    const auto sv = Scalar::from_bytes(rd.bytes());
    rd.expect_end();
    if (!rp || !sv) return std::nullopt;
    return SchnorrSignature{*rp, *sv};
  } catch (const util::DeserializeError&) {
    return std::nullopt;
  }
}

SchnorrKeyPair SchnorrKeyPair::generate(Drbg& drbg) {
  const ct::Secret<Scalar> sk = drbg.next_secret_scalar();
  // Public-key derivation multiplies by the secret key: ct comb path.  The
  // key is stored with Z = 1, so each signature's challenge encodes it
  // without an inversion.
  return SchnorrKeyPair{sk, Point::mul_gen(sk).normalized()};
}

SchnorrSignature schnorr_sign(const SchnorrKeyPair& kp, const util::Bytes& msg) {
  ++obs::crypto_ops().schnorr_sign;
  // Deterministic nonce: k = H2S(HMAC(sk, msg)); retry on the (negligible)
  // zero case with a counter.
  ct::Secret<Scalar> k;
  for (std::uint8_t ctr = 0;; ++ctr) {
    // Kernel-level declassify: the key bytes feed HMAC, whose data path is
    // constant-time; the buffer is wiped before leaving scope.
    util::Bytes keyed = kp.sk.declassify().to_bytes();
    keyed.push_back(ctr);
    const Digest d = hmac_sha256(keyed, msg);
    util::secure_wipe(keyed);
    util::Bytes db(d.begin(), d.end());
    k = Scalar::hash_to_scalar(db);
    // ctlint-allow: secret-branch (rejection sampling; reveals only k == 0,
    // probability ~2^-256)
    if (!k.declassify().is_zero()) break;
  }
  // ct comb: nonce never hits a branch.  R is normalized once (it is
  // public from here on), so the challenge and the signature encoding
  // below share one inversion.
  const Point r = Point::mul_gen(k).normalized();
  const Scalar e = challenge(r, kp.pk, msg);
  // Taint-tracked signing equation; s is public by protocol once emitted.
  const Scalar s = (k + e * kp.sk).declassify();
  return SchnorrSignature{r, s};
}

SchnorrSignature schnorr_sign(const ct::Secret<Scalar>& sk, const util::Bytes& msg) {
  return schnorr_sign(SchnorrKeyPair{sk, Point::mul_gen(sk).normalized()}, msg);
}

bool schnorr_verify(const Point& pk, const util::Bytes& msg, const SchnorrSignature& sig) {
  ++obs::crypto_ops().schnorr_verify;
  if (pk.is_infinity() || sig.r.is_infinity()) return false;
  const Scalar e = challenge(sig.r, pk, msg);
  // s*G == R + e*PK, checked as s*G - e*PK == R so the left side is a
  // single Strauss–Shamir double-scalar multiplication.
  return Point::mul_gen_add(sig.s, pk, -e) == sig.r;
}

}  // namespace cicero::crypto
