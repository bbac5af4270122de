// The one crypto seam of a deployment (DESIGN.md §4.2).
//
// Every signature a controller or switch runtime makes or checks goes
// through the deployment's suite: Schnorr signing and PKI verification,
// SimBLS partials and aggregates, the switch's quorum-subset combine,
// threshold verification under SimBLS or FROST, the FROST signing rounds,
// and per-plane key setup.  `Deployment` builds it once from the crypto
// mode and backend in its `DeploymentParams`, so protocol code never
// branches on the mode.  A real suite computes and checks every
// signature.  A modeled one does no per-message crypto work: it accepts
// everything and returns fixed placeholders, whose sizes feed the byte
// metrics: partials {0x00}, FROST round-1 payload {0x01} (set by the
// controller in both modes), SimBLS aggregate {0x00}, FROST aggregate
// {0x01}, FROST z {0x00}, Schnorr signatures empty, switch public keys
// at infinity (nothing reads them: no signature is checked).  Callers
// charge the simulated CPU cost of every operation in both modes.
//
// A real suite's PKI verifies each distinct (origin, signature, body)
// once per deployment: the other replicas' checks of the same bytes are
// answered from a bounded memo of successes (pki.hpp, DESIGN.md §4.2a).
// The memo saves host time only; the simulated cost is still charged
// per replica.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/pki.hpp"
#include "crypto/drbg.hpp"
#include "crypto/frost.hpp"

namespace cicero::core {

class CryptoSuite {
 public:
  using Partials = std::map<crypto::ShareIndex, crypto::PartialSignature>;
  using VerificationShares = std::map<crypto::ShareIndex, crypto::Point>;
  using FrostSession = std::vector<crypto::FrostCommitment>;

  CryptoSuite(bool real, ThresholdBackend backend) : real_(real), backend_(backend) {}

  bool real() const { return real_; }
  ThresholdBackend backend() const { return backend_; }
  PkiDirectory& pki() { return pki_; }
  const PkiDirectory& pki() const { return pki_; }

  /// Signs an Event, AckMsg or SegmentDoneMsg in place over its body().
  template <typename Msg>
  void sign(const crypto::SchnorrKeyPair& key, Msg& msg) const {
    if (real_) msg.sig = crypto::schnorr_sign(key, msg.body()).to_bytes();
  }
  bool verify_event(const Event& e) const { return !real_ || pki_.verify_event(e); }
  bool verify_ack(const AckMsg& a) const { return !real_ || pki_.verify_ack(a); }
  bool verify_segment_done(const SegmentDoneMsg& d) const {
    return !real_ || pki_.verify_segment_done(d);
  }

  crypto::PartialSignature partial_sign(const crypto::SecretShare& share,
                                        const util::Bytes& msg) const;
  /// False when the signer has no verification share.
  bool verify_partial(const VerificationShares& vshares, const util::Bytes& msg,
                      const crypto::PartialSignature& partial) const;
  std::optional<util::Bytes> aggregate(const util::Bytes& msg, const Partials& partials,
                                       std::uint32_t quorum) const;
  /// Switch-side combine: the aggregate of the first quorum-sized subset
  /// (all partials, then each one left out in turn) that verifies, so up
  /// to f bad partials among >= 2f+1 cannot block the honest quorum.
  std::optional<util::Bytes> combine(const crypto::Point& group_pk, const util::Bytes& msg,
                                     const Partials& partials, std::uint32_t quorum) const;
  /// Verifies an aggregated update signature under the suite's backend.
  bool verify_update(const crypto::Point& group_pk, const sched::Update& update,
                     const util::Bytes& sig) const;

  /// One controller's FROST signer and nonce stream; null unless real FROST.
  struct FrostParty {
    crypto::FrostSigner signer;
    crypto::Drbg nonces;
  };
  std::unique_ptr<FrostParty> frost_party(const crypto::SecretShare& share,
                                          const crypto::Point& group_pk,
                                          std::uint64_t nonce_seed) const;
  /// Round 1: a fresh nonce commitment (empty without a party).
  util::Bytes frost_commit(FrostParty* party) const;
  /// A signer's round-1 commitment; nullopt if unparsable or not `signer`'s.
  std::optional<crypto::FrostCommitment> frost_commitment(crypto::ShareIndex signer,
                                                          const util::Bytes& wire) const;
  /// Round 2: our z for `msg`; nullopt if a commitment does not parse.
  /// Throws std::invalid_argument when the session's nonce is spent.
  std::optional<util::Bytes> frost_sign(FrostParty* party, const util::Bytes& msg,
                                        const std::vector<util::Bytes>& session) const;
  /// A signer's z, checked against its verification share.
  std::optional<crypto::Scalar> frost_partial(const util::Bytes& msg, const FrostSession& session,
                                              const crypto::Point& group_pk,
                                              const VerificationShares& vshares,
                                              crypto::ShareIndex signer,
                                              const util::Bytes& z) const;
  std::optional<util::Bytes> frost_aggregate(
      const util::Bytes& msg, const FrostSession& session, const crypto::Point& group_pk,
      const std::map<crypto::ShareIndex, crypto::Scalar>& z) const;

  /// A switch's PKI key pair.  Real: SchnorrKeyPair::generate.  Modeled:
  /// the same secret scalar draw (so every later draw from `drbg` is
  /// unchanged), with the public key left at infinity.
  crypto::SchnorrKeyPair switch_key(crypto::Drbg& drbg) const;

  struct PlaneKeys {
    crypto::Point group_pk;
    VerificationShares verification_shares;  ///< empty without DKG or reshare
    std::vector<crypto::SecretShare> shares;  ///< one per index, in order
  };
  /// Keys for one control plane: the joint-Feldman DKG (no dealer knows the
  /// group secret) for a real suite and a threshold-signing framework,
  /// otherwise a direct Shamir split with the same share structure.
  PlaneKeys deal_plane(const std::vector<crypto::ShareIndex>& indices, std::size_t t,
                       bool threshold_signing, crypto::Drbg& drbg) const;
  /// Membership change (§4.3): `dealers` (a quorum of current shares)
  /// re-deal to `indices` at threshold `t`.  Real: a reshare that throws
  /// std::logic_error if the group key would change.  Modeled: fresh shares.
  PlaneKeys reshare(const std::vector<crypto::SecretShare>& dealers,
                    const std::vector<crypto::ShareIndex>& indices, std::size_t t,
                    const crypto::Point& group_pk, crypto::Drbg& drbg) const;

 private:
  bool real_;
  ThresholdBackend backend_;
  PkiDirectory pki_;
};

}  // namespace cicero::core
