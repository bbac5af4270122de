// Threshold signature partials used by the Cicero protocol layer.
//
// The paper authenticates every network update with a (t, n)-threshold
// signature (§3.2): each controller contributes a partial signature under
// its key share; any t partials aggregate into one signature that verifies
// against the single control-plane public key held by switches.
//
// Two backends exist, each with its own API; core::CryptoSuite is the one
// seam the protocol calls through:
//  * `SimBlsScheme` (simbls.hpp) — non-interactive, any-t aggregation;
//    structurally identical to the paper's BLS but not hiding (DESIGN.md §1
//    documents the substitution).  Default for protocol runs.
//  * FROST threshold Schnorr (frost.hpp) — cryptographically real, but
//    interactive (a coordinator picks the signer set); used where an
//    aggregator exists.
#pragma once

#include <cstdint>
#include <optional>

#include "crypto/group.hpp"
#include "crypto/shamir.hpp"
#include "util/bytes.hpp"

namespace cicero::crypto {

/// A single controller's contribution to a threshold signature.
struct PartialSignature {
  ShareIndex signer = 0;
  util::Bytes payload;  ///< scheme-specific encoding

  util::Bytes to_bytes() const;
  static std::optional<PartialSignature> from_bytes(const util::Bytes& b);
  bool operator==(const PartialSignature& o) const = default;
};

}  // namespace cicero::crypto
