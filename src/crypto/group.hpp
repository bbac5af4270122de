// The secp256k1 group: scalars mod the group order and curve points.
//
// Everything above this layer (Schnorr signatures, Shamir sharing, DKG,
// FROST, SimBLS) is written against `Scalar` and `Point`.  `Scalar` is an
// element of Z_n (n = group order); `Point` is a curve point kept
// internally in Jacobian coordinates over F_p.  Both fields (fp.hpp) hold
// plain residues, so no value is converted on the way in or out.  Both
// are cheap value types.
//
// Curve: y^2 = x^3 + 7 over F_p,
//   p = 2^256 - 2^32 - 977,
//   n = group order (prime), cofactor 1.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "crypto/ct.hpp"
#include "crypto/sha256.hpp"
#include "crypto/u256.hpp"
#include "util/bytes.hpp"

namespace cicero::crypto {

/// Scalar in Z_n, always reduced (< n), plain representation.
class Scalar {
 public:
  Scalar() = default;  ///< Zero.
  static Scalar zero() { return Scalar(); }
  static Scalar one() { return from_u64(1); }
  static Scalar from_u64(std::uint64_t v);
  /// Reduces an arbitrary 256-bit value mod n.
  static Scalar from_u256(const U256& v);
  /// Hash-to-scalar: SHA-256 of the input, widened and reduced mod n.
  static Scalar hash_to_scalar(const util::Bytes& msg);
  /// Derives a scalar from 64 bytes (wide reduction; negligible bias).
  static Scalar from_wide_bytes(const std::uint8_t* data64);

  bool is_zero() const { return v_.is_zero(); }
  bool operator==(const Scalar& o) const = default;

  Scalar operator+(const Scalar& o) const;
  Scalar operator-(const Scalar& o) const;
  Scalar operator*(const Scalar& o) const;
  Scalar operator-() const;
  /// Multiplicative inverse; throws std::domain_error on zero.
  Scalar inverse() const;
  /// Inverts every scalar in `xs` in place with one field inversion total
  /// (Montgomery's trick).  Throws std::domain_error if any element is
  /// zero, leaving `xs` unmodified.
  static void batch_inverse(std::vector<Scalar>& xs);

  const U256& raw() const { return v_; }
  util::Bytes to_bytes() const;  ///< 32-byte big-endian encoding.
  static std::optional<Scalar> from_bytes(const util::Bytes& b);
  std::string to_hex() const { return v_.to_hex(); }

 private:
  explicit Scalar(const U256& v) : v_(v) {}
  U256 v_;
};

/// Curve point (including the point at infinity).
class Point {
 public:
  Point();  ///< Point at infinity.
  static Point infinity() { return Point(); }
  static const Point& generator();

  bool is_infinity() const { return inf_; }

  Point operator+(const Point& o) const;
  Point operator-() const;
  Point operator-(const Point& o) const { return *this + (-o); }
  /// Scalar multiplication: width-5 wNAF over an odd-multiples table.
  /// Variable-time — for PUBLIC scalars only (verification equations,
  /// Lagrange-weighted aggregation).  Secret scalars arrive as
  /// ct::Secret<Scalar> and take the constant-time overload below.
  Point operator*(const Scalar& k) const;
  /// Constant-time multiplication for secret scalars: signed-offset
  /// fixed-window (all digits forced nonzero), full-table cmov lookups,
  /// fixed 64-window schedule.  Bit-identical results to operator*.
  Point operator*(const ct::Secret<Scalar>& k) const;
  bool operator==(const Point& o) const;

  /// k * G via a precomputed fixed-base comb table for the generator
  /// (64 4-bit windows, all-affine table, no doublings at run time).
  /// Variable-time — for PUBLIC scalars only.
  static Point mul_gen(const Scalar& k);

  /// Constant-time k * G for secret scalars (key generation, nonce
  /// commitments, Feldman commitments): signed-offset comb over the same
  /// precomputed table, digit selected by a 16-entry cmov scan per window,
  /// always 64 mixed additions regardless of the scalar's bit pattern.
  static Point mul_gen(const ct::Secret<Scalar>& k);

  /// a*G + b*P via Strauss–Shamir interleaving: one shared doubling chain,
  /// wNAF digits for both scalars, precomputed affine odd multiples of G.
  /// Costs roughly one variable-base multiplication instead of two — this
  /// is the signature-verification kernel.
  static Point mul_gen_add(const Scalar& a, const Point& p, const Scalar& b);

  /// Multi-scalar multiplication sum_i ks[i] * pts[i] by Strauss
  /// interleaving: one shared doubling chain for the whole sum, so n-term
  /// aggregations cost ~256 doublings total instead of ~256 per term.
  /// Infinity points and zero scalars are skipped.
  static Point multi_mul(const std::vector<Point>& pts, const std::vector<Scalar>& ks);

  /// Reference scalar multiplication (the seed implementation: 4-bit
  /// fixed-window double-and-add).  Kept for differential tests and as the
  /// baseline in bench_crypto_micro; not used on any hot path.
  Point mul_naive(const Scalar& k) const;

  /// Normalizes every finite point to Z = 1 in place, using one field
  /// inversion total (Montgomery batch inversion).  Later additions with a
  /// normalized right-hand side take the cheaper mixed-addition path, and
  /// to_bytes becomes inversion-free.
  static void batch_normalize(std::vector<Point>& pts);
  /// The same point with Z = 1: one field inversion unless it already is,
  /// after which to_bytes and mixed additions need none.
  Point normalized() const;

  /// Serializes a vector of points with a single field inversion (batch
  /// to-affine + encode); element-wise identical to calling to_bytes.
  static std::vector<util::Bytes> batch_to_bytes(std::vector<Point> pts);

  /// True iff the (affine) point satisfies the curve equation.
  bool on_curve() const;

  /// 65-byte uncompressed SEC1-style encoding (0x04 || X || Y), or a single
  /// 0x00 byte for infinity.
  util::Bytes to_bytes() const;
  /// Parses the encoding above; returns nullopt for malformed or off-curve
  /// input (crucial: signatures deserialized from the network are validated
  /// here before any use).
  static std::optional<Point> from_bytes(const util::Bytes& b);

  std::string to_hex() const { return util::to_hex(to_bytes()); }

 private:
  friend class GroupCtx;
  // Jacobian coordinates over F_p, plain residues < p; (X/Z^2, Y/Z^3).
  U256 x_, y_, z_;
  bool inf_ = true;
};

/// Adds a scalar to a hash transcript (canonical 32-byte encoding).
void absorb(Sha256& h, const Scalar& s);
/// Adds a point to a hash transcript (canonical encoding).
void absorb(Sha256& h, const Point& p);

}  // namespace cicero::crypto
