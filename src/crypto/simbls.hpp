// SimBLS: BLS-shaped threshold signatures without a pairing group.
//
// The paper signs updates with BLS threshold signatures (PBC library).  No
// pairing-friendly curve implementation is available offline, so SimBLS
// reproduces the exact *structure* of threshold BLS over secp256k1:
//
//   H(m)      = hash-to-scalar h, hash point P_m = h * G
//   partial_i = share_i * P_m                       (a group element)
//   aggregate = sum over quorum Q of λ_i(Q) * partial_i = x * P_m
//   verify    = aggregate == h * PK        (PK = x * G on every switch)
//
// The verification equation stands in for the pairing check
// e(sig, g2) == e(H(m), PK).  Because the hash point's discrete log h is
// public here, SimBLS is NOT unforgeable — anyone holding PK can compute
// h*PK.  That is acceptable for this reproduction: the simulator's threat
// model (DESIGN.md §4.3) lets Byzantine controllers mutate and replay
// messages but not forge threshold signatures, exactly matching the
// cryptographic assumption the paper makes of real BLS.  What SimBLS
// preserves faithfully is everything the protocol and the evaluation
// depend on: one partial per controller, any-t Lagrange aggregation, a
// single fixed public key per control plane, and realistic EC costs for
// signing/aggregating/verifying.
#pragma once

#include <vector>

#include "crypto/threshold.hpp"

namespace cicero::crypto {

/// (t, n)-threshold signatures with non-interactive partials.
class SimBlsScheme final {
 public:
  /// Signs `msg` with a key share.
  PartialSignature partial_sign(const SecretShare& share, const util::Bytes& msg) const;
  /// Verifies one partial against the signer's verification share
  /// (share * G), so a malicious partial can be attributed and discarded
  /// before aggregation.
  bool verify_partial(const Point& verification_share, const util::Bytes& msg,
                      const PartialSignature& partial) const;
  /// Aggregates >= threshold partials (distinct signers) into a full
  /// signature.  Returns nullopt if there are fewer than `threshold`
  /// distinct signers.  Partials are assumed pre-verified.
  std::optional<util::Bytes> aggregate(const util::Bytes& msg,
                                       const std::vector<PartialSignature>& partials,
                                       std::size_t threshold) const;
  /// Verifies an aggregated signature against the group public key.
  bool verify(const Point& group_public_key, const util::Bytes& msg,
              const util::Bytes& signature) const;

  /// The shared scheme instance (stateless).
  static const SimBlsScheme& instance();
};

}  // namespace cicero::crypto
