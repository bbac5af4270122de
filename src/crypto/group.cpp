#include "crypto/group.hpp"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <stdexcept>

#include "crypto/fp.hpp"

namespace cicero::crypto {

namespace {

// secp256k1 generator and curve constant b (y^2 = x^3 + b); the field
// moduli live in fp.hpp.
constexpr U256 kGenX{0x59F2815B16F81798ULL, 0x029BFCDB2DCE28D9ULL, 0x55A06295CE870B07ULL,
                     0x79BE667EF9DCBBACULL};
constexpr U256 kGenY{0x9C47D08FFB10D4B8ULL, 0xFD17B448A6855419ULL, 0x5DA4FBFC0E1108A8ULL,
                     0x483ADA7726A3C465ULL};
constexpr U256 kCurveB{7};
constexpr U256 kOne{1};

}  // namespace

// ---------------------------------------------------------------------------
// Scalar
// ---------------------------------------------------------------------------

Scalar Scalar::from_u64(std::uint64_t v) { return Scalar(U256(v)); }

Scalar Scalar::from_u256(const U256& v) { return Scalar(Fn::reduce(v)); }

Scalar Scalar::hash_to_scalar(const util::Bytes& msg) {
  // Widen to 64 bytes with two tagged hashes to make the mod-n bias
  // negligible, then reduce.
  Sha256 h1, h2;
  h1.update("cicero/h2s/0").update(msg);
  h2.update("cicero/h2s/1").update(msg);
  const Digest d1 = h1.finish(), d2 = h2.finish();
  std::uint8_t wide[64];
  std::copy(d1.begin(), d1.end(), wide);
  std::copy(d2.begin(), d2.end(), wide + 32);
  return from_wide_bytes(wide);
}

Scalar Scalar::from_wide_bytes(const std::uint8_t* data64) {
  U512 wide;
  // Interpret as big-endian 512-bit integer.
  for (int i = 0; i < 64; ++i) {
    const int bit_pos = (63 - i) * 8;
    wide.w[bit_pos / 64] |= static_cast<std::uint64_t>(data64[i]) << (bit_pos % 64);
  }
  return Scalar(Fn::reduce_wide(wide));
}

// Scalar sums routinely mix secret shares and nonces, so every modular
// correction below is a branch-free cmov inside Fn (fp.hpp).
Scalar Scalar::operator+(const Scalar& o) const { return Scalar(Fn::add(v_, o.v_)); }

Scalar Scalar::operator-(const Scalar& o) const { return Scalar(Fn::sub(v_, o.v_)); }

Scalar Scalar::operator*(const Scalar& o) const { return Scalar(Fn::mul(v_, o.v_)); }

Scalar Scalar::operator-() const { return Scalar(Fn::neg(v_)); }

Scalar Scalar::inverse() const { return Scalar(Fn::inv(v_)); }

void Scalar::batch_inverse(std::vector<Scalar>& xs) {
  std::vector<U256> vs;
  vs.reserve(xs.size());
  for (const auto& x : xs) vs.push_back(x.v_);
  Fn::batch_inv(vs.data(), vs.size());
  for (std::size_t i = 0; i < xs.size(); ++i) xs[i].v_ = vs[i];
}

util::Bytes Scalar::to_bytes() const {
  const auto b = v_.to_bytes_be();
  return util::Bytes(b.begin(), b.end());
}

std::optional<Scalar> Scalar::from_bytes(const util::Bytes& b) {
  if (b.size() != 32) return std::nullopt;
  const U256 v = U256::from_bytes_be(b.data(), b.size());
  if (v >= Fn::kModulus) return std::nullopt;
  return Scalar(v);
}

// ---------------------------------------------------------------------------
// Point
// ---------------------------------------------------------------------------

Point::Point() = default;

const Point& Point::generator() {
  static const Point g = [] {
    Point p;
    p.x_ = kGenX;
    p.y_ = kGenY;
    p.z_ = kOne;
    p.inf_ = false;
    return p;
  }();
  return g;
}

namespace {

// Jacobian kernels (defined after GroupCtx, which has coordinate access).
Point jac_double(const Point& p);
Point jac_add(const Point& p, const Point& q);

/// Affine point (never infinity); table entry type for the precomputed
/// fixed-base comb and odd-multiple tables.
struct AffinePoint {
  U256 x, y;
};

}  // namespace

// GroupCtx is a friend of Point and hosts the coordinate-level kernels.
class GroupCtx {
 public:
  static Point make(const U256& x, const U256& y, const U256& z) {
    Point p;
    p.x_ = x;
    p.y_ = y;
    p.z_ = z;
    p.inf_ = false;
    return p;
  }

  static const U256& x(const Point& p) { return p.x_; }
  static const U256& y(const Point& p) { return p.y_; }
  static const U256& z(const Point& p) { return p.z_; }
  static void negate_y(Point& p) {
    if (!p.inf_) p.y_ = Fp::neg(p.y_);
  }

  static Point dbl(const Point& p) {
    if (p.inf_) return p;
    if (p.y_.is_zero()) return Point::infinity();
    // A = X^2; B = Y^2; C = B^2; D = 2*((X+B)^2 - A - C); E = 3*A; F = E^2
    const U256 a = Fp::sqr(p.x_);
    const U256 b = Fp::sqr(p.y_);
    const U256 c = Fp::sqr(b);
    U256 d = Fp::sqr(Fp::add(p.x_, b));
    d = Fp::sub(Fp::sub(d, a), c);
    d = Fp::add(d, d);
    const U256 e = Fp::add(Fp::add(a, a), a);
    const U256 ff = Fp::sqr(e);
    const U256 x3 = Fp::sub(ff, Fp::add(d, d));
    U256 c8 = Fp::add(c, c);
    c8 = Fp::add(c8, c8);
    c8 = Fp::add(c8, c8);
    const U256 y3 = Fp::sub(Fp::mul(e, Fp::sub(d, x3)), c8);
    const U256 z3 = Fp::mul(Fp::add(p.y_, p.y_), p.z_);
    if (z3.is_zero()) return Point::infinity();
    return make(x3, y3, z3);
  }

  /// Mixed addition p + (ax, ay) with the right-hand side affine
  /// (Z2 = 1): madd-2007-bl, 7M + 4S vs. 11M + 5S for the general add.
  /// All table-driven kernels (comb, wNAF, Strauss–Shamir) land here.
  static Point madd(const Point& p, const AffinePoint& a) {
    if (p.inf_) return make(a.x, a.y, kOne);
    const U256 z1z1 = Fp::sqr(p.z_);
    const U256 u2 = Fp::mul(a.x, z1z1);
    const U256 s2 = Fp::mul(Fp::mul(a.y, p.z_), z1z1);
    // Uniform-time comparisons (eq_mask scans all limbs); the exceptional
    // doubling/cancellation branches fire with negligible probability for
    // honest inputs and never as a function of individual secret bits.
    if (p.x_.eq_mask(u2) != 0) {
      if (p.y_.eq_mask(s2) != 0) return dbl(p);
      return Point::infinity();
    }
    const U256 h = Fp::sub(u2, p.x_);
    const U256 hh = Fp::sqr(h);
    U256 i = Fp::add(hh, hh);
    i = Fp::add(i, i);
    const U256 j = Fp::mul(h, i);
    U256 r = Fp::sub(s2, p.y_);
    r = Fp::add(r, r);
    const U256 v = Fp::mul(p.x_, i);
    U256 x3 = Fp::sqr(r);
    x3 = Fp::sub(Fp::sub(x3, j), Fp::add(v, v));
    const U256 y1j = Fp::mul(p.y_, j);
    U256 y3 = Fp::mul(r, Fp::sub(v, x3));
    y3 = Fp::sub(y3, Fp::add(y1j, y1j));
    U256 z3 = Fp::sqr(Fp::add(p.z_, h));
    z3 = Fp::sub(Fp::sub(z3, z1z1), hh);
    if (z3.is_zero()) return Point::infinity();
    return make(x3, y3, z3);
  }

  static Point add(const Point& p, const Point& q) {
    if (p.inf_) return q;
    if (q.inf_) return p;
    // Normalized right-hand sides (Z2 = 1, e.g. after batch_normalize or
    // from_bytes) take the cheaper mixed-addition path.
    if (q.z_ == kOne) return madd(p, AffinePoint{q.x_, q.y_});
    return add_general(p, q);
  }

  /// Full Jacobian addition with no representation-dependent dispatch.
  /// The constant-time multiply uses this directly so that the cost of an
  /// addition cannot depend on *which* table entry a secret digit selected
  /// (the madd fast path above keys on Z == 1, which would leak).
  static Point add_general(const Point& p, const Point& q) {
    if (p.inf_) return q;
    if (q.inf_) return p;
    // add-2007-bl
    const U256 z1z1 = Fp::sqr(p.z_);
    const U256 z2z2 = Fp::sqr(q.z_);
    const U256 u1 = Fp::mul(p.x_, z2z2);
    const U256 u2 = Fp::mul(q.x_, z1z1);
    const U256 s1 = Fp::mul(Fp::mul(p.y_, q.z_), z2z2);
    const U256 s2 = Fp::mul(Fp::mul(q.y_, p.z_), z1z1);
    if (u1.eq_mask(u2) != 0) {
      if (s1.eq_mask(s2) != 0) return dbl(p);
      return Point::infinity();
    }
    const U256 h = Fp::sub(u2, u1);
    U256 i = Fp::add(h, h);
    i = Fp::sqr(i);
    const U256 j = Fp::mul(h, i);
    U256 r = Fp::sub(s2, s1);
    r = Fp::add(r, r);
    const U256 v = Fp::mul(u1, i);
    U256 x3 = Fp::sqr(r);
    x3 = Fp::sub(Fp::sub(x3, j), Fp::add(v, v));
    U256 s1j = Fp::mul(s1, j);
    U256 y3 = Fp::mul(r, Fp::sub(v, x3));
    y3 = Fp::sub(y3, Fp::add(s1j, s1j));
    U256 z3 = Fp::sqr(Fp::add(p.z_, q.z_));
    z3 = Fp::sub(Fp::sub(z3, z1z1), z2z2);
    z3 = Fp::mul(z3, h);
    if (z3.is_zero()) return Point::infinity();
    return make(x3, y3, z3);
  }

  /// Converts to affine coordinates; p must be finite.
  static void to_affine(const Point& p, U256& ax, U256& ay) {
    if (p.z_ == kOne) {  // already normalized: inversion-free
      ax = p.x_;
      ay = p.y_;
      return;
    }
    const U256 zinv = Fp::inv(p.z_);
    const U256 zinv2 = Fp::sqr(zinv);
    ax = Fp::mul(p.x_, zinv2);
    ay = Fp::mul(p.y_, Fp::mul(zinv2, zinv));
  }

  /// Normalizes all finite points to Z = 1 with one shared inversion.
  static void batch_normalize(Point* pts, std::size_t n) {
    std::vector<U256> zs;
    std::vector<std::size_t> idx;
    zs.reserve(n);
    idx.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      if (!pts[i].inf_ && !(pts[i].z_ == kOne)) {
        zs.push_back(pts[i].z_);
        idx.push_back(i);
      }
    }
    if (zs.empty()) return;
    Fp::batch_inv(zs.data(), zs.size());
    for (std::size_t k = 0; k < idx.size(); ++k) {
      Point& p = pts[idx[k]];
      const U256 zinv2 = Fp::sqr(zs[k]);
      p.x_ = Fp::mul(p.x_, zinv2);
      p.y_ = Fp::mul(p.y_, Fp::mul(zinv2, zs[k]));
      p.z_ = kOne;
    }
  }
};

namespace {
Point jac_double(const Point& p) { return GroupCtx::dbl(p); }
Point jac_add(const Point& p, const Point& q) { return GroupCtx::add(p, q); }

// --- fast scalar-multiplication kernels -----------------------------------

constexpr unsigned kCombWindow = 4;                   // bits per comb digit
constexpr unsigned kCombWindows = 256 / kCombWindow;  // 64 windows
// Each comb row holds digits 1..16.  The variable-time path uses 1..15
// (digit 0 skips the addition); the constant-time path uses the signed
// offset rewrite k = sum (d_w + 1) 16^w, whose digits span 1..16, so the
// row is sized for the ct kernel and shared by both.
constexpr unsigned kCombRow = 1u << kCombWindow;  // 16 entries per window

constexpr int kWnafWidth = 5;      // variable-base wNAF width
constexpr int kGenWnafWidth = 7;   // generator-side width in Strauss–Shamir

/// Precomputed generator tables, built once on first use.  All entries
/// affine => every table hit is a mixed add.
struct GenTables {
  // comb[w * kCombRow + (d-1)] = d * 2^(4w) * G for digit d in 1..16:
  // mul_gen is then one mixed addition per nonzero window, no doublings.
  std::vector<AffinePoint> comb;
  // odd[i] = (2i+1) * G for the generator half of Strauss–Shamir.
  std::vector<AffinePoint> odd;

  GenTables() {
    std::vector<Point> pts;
    pts.reserve(kCombWindows * kCombRow + (1u << (kGenWnafWidth - 2)));
    Point base = Point::generator();
    for (unsigned w = 0; w < kCombWindows; ++w) {
      Point m = base;
      for (unsigned d = 1; d <= kCombRow; ++d) {
        pts.push_back(m);
        m = GroupCtx::add(m, base);
      }
      for (unsigned b = 0; b < kCombWindow; ++b) base = GroupCtx::dbl(base);
    }
    const Point g2 = GroupCtx::dbl(Point::generator());
    Point o = Point::generator();
    for (unsigned i = 0; i < (1u << (kGenWnafWidth - 2)); ++i) {
      pts.push_back(o);
      o = GroupCtx::add(o, g2);
    }
    GroupCtx::batch_normalize(pts.data(), pts.size());  // one inversion total
    comb.reserve(kCombWindows * kCombRow);
    for (unsigned i = 0; i < kCombWindows * kCombRow; ++i) {
      comb.push_back(AffinePoint{GroupCtx::x(pts[i]), GroupCtx::y(pts[i])});
    }
    odd.reserve(1u << (kGenWnafWidth - 2));
    for (std::size_t i = kCombWindows * kCombRow; i < pts.size(); ++i) {
      odd.push_back(AffinePoint{GroupCtx::x(pts[i]), GroupCtx::y(pts[i])});
    }
  }
};

const GenTables& gen_tables() {
  static const GenTables t;
  return t;
}

/// Width-`w` non-adjacent form, digits least-significant first.  Every
/// nonzero digit is odd with |d| < 2^(w-1); at most 257 digits.  Returns
/// the digit count.  Shifts once per run of zero digits, not once per
/// digit.
int wnaf_recode(U256 k, int w, std::int8_t* digits) {
  const std::uint64_t mask = (1u << w) - 1;
  const std::uint64_t half = 1u << (w - 1);
  int len = 0;
  const auto zeros = [&](unsigned n) {
    std::fill_n(digits + len, n, std::int8_t{0});
    len += static_cast<int>(n);
  };
  while (!k.is_zero()) {
    if (!k.is_odd()) {
      unsigned limb = 0;
      while (k.w[limb] == 0) ++limb;
      const unsigned z = 64 * limb + static_cast<unsigned>(std::countr_zero(k.w[limb]));
      zeros(z);
      k = k.shr(z);
    }
    const std::uint64_t m = k.w[0] & mask;
    std::int64_t d = 0;
    if (m >= half) {
      d = static_cast<std::int64_t>(m) - static_cast<std::int64_t>(mask + 1);
      k.add_assign(U256(static_cast<std::uint64_t>(-d)));
    } else {
      d = static_cast<std::int64_t>(m);
      k.sub_assign(U256(static_cast<std::uint64_t>(d)));
    }
    digits[len++] = static_cast<std::int8_t>(d);
    if (k.is_zero()) break;
    // k is now a nonzero multiple of 2^w: the next w - 1 digits are zero.
    zeros(static_cast<unsigned>(w - 1));
    k = k.shr(static_cast<unsigned>(w));
  }
  return len;
}

/// Odd-multiples table {1P, 3P, ..., (2^(w-1)-1)P} in Jacobian coordinates.
void build_odd_table(const Point& p, Point* table, unsigned entries) {
  table[0] = p;
  const Point p2 = jac_double(p);
  for (unsigned i = 1; i < entries; ++i) table[i] = jac_add(table[i - 1], p2);
}

Point madd_signed(const Point& acc, const AffinePoint& a, bool negate) {
  if (!negate) return GroupCtx::madd(acc, a);
  return GroupCtx::madd(acc, AffinePoint{a.x, Fp::neg(a.y)});
}

Point add_signed(const Point& acc, const Point& p, bool negate) {
  if (!negate) return jac_add(acc, p);
  Point n = p;
  GroupCtx::negate_y(n);
  return jac_add(acc, n);
}

// --- constant-time kernels -------------------------------------------------

/// Offset constant C = sum_{w=0}^{63} 16^w = (2^256 - 1) / 15 (mod n).
/// Rewriting k as k' + C with k' = k - C makes every base-16 digit of the
/// represented value (d'_w + 1) ∈ [1, 16]: no zero digits, so the comb loop
/// needs no "skip this window" branch.  The represented integer k' + C may
/// exceed 2^256 but the point sum is taken mod n, where it equals k.
const Scalar& comb_offset() {
  static const Scalar c = Scalar::from_u256(U256(0x1111111111111111ULL, 0x1111111111111111ULL,
                                                 0x1111111111111111ULL, 0x1111111111111111ULL));
  return c;
}

/// Secret-index lookup of row[idx] by scanning the whole 16-entry row with
/// cmov: memory access pattern and time are independent of idx.
AffinePoint ct_lookup_affine(const AffinePoint* row, unsigned idx) {
  AffinePoint r{U256::zero(), U256::zero()};
  for (unsigned i = 0; i < kCombRow; ++i) {
    const std::uint64_t m = ct::mask_eq(i, idx);
    U256::cmov(r.x, row[i].x, m);
    U256::cmov(r.y, row[i].y, m);
  }
  return r;
}

/// Same full-scan discipline over a per-call Jacobian table.  Every entry
/// is finite (d * P for 1 <= d <= 16 and finite P on a prime-order curve),
/// so only the coordinates need selecting.
Point ct_lookup_jacobian(const Point* table, unsigned idx) {
  U256 x = U256::zero(), y = U256::zero(), z = U256::zero();
  for (unsigned i = 0; i < kCombRow; ++i) {
    const std::uint64_t m = ct::mask_eq(i, idx);
    U256::cmov(x, GroupCtx::x(table[i]), m);
    U256::cmov(y, GroupCtx::y(table[i]), m);
    U256::cmov(z, GroupCtx::z(table[i]), m);
  }
  return GroupCtx::make(x, y, z);
}

}  // namespace

Point Point::operator+(const Point& o) const { return jac_add(*this, o); }

Point Point::operator-() const {
  if (inf_) return *this;
  Point p = *this;
  p.y_ = Fp::neg(y_);
  return p;
}

Point Point::operator*(const Scalar& k) const {
  // Width-5 wNAF over an odd-multiples table: ~256 doublings plus one
  // addition per ~6 bits, vs. one per 4 bits for the old fixed window.
  // Not constant-time; acceptable for a research simulator (DESIGN.md).
  if (inf_ || k.is_zero()) return Point::infinity();
  std::int8_t naf[257];
  const int len = wnaf_recode(k.raw(), kWnafWidth, naf);
  Point table[1u << (kWnafWidth - 2)];
  build_odd_table(*this, table, 1u << (kWnafWidth - 2));
  Point acc = Point::infinity();
  for (int i = len - 1; i >= 0; --i) {
    acc = jac_double(acc);
    const int d = naf[i];
    if (d != 0) acc = add_signed(acc, table[(std::abs(d) - 1) / 2], d < 0);
  }
  return acc;
}

Point Point::mul_gen(const Scalar& k) {
  // Fixed-base comb: the scalar is consumed 4 bits at a time against the
  // precomputed table of d * 2^(4w) * G, so k*G is at most 64 mixed
  // additions and zero doublings.  Variable-time (skips zero windows);
  // secret scalars take the ct::Secret overload below instead.
  if (k.is_zero()) return Point::infinity();
  const auto& t = gen_tables();
  const U256& e = k.raw();
  Point acc = Point::infinity();
  for (unsigned w = 0; w < kCombWindows; ++w) {
    const unsigned digit =
        static_cast<unsigned>(e.w[w / 16] >> ((w % 16) * kCombWindow)) & (kCombRow - 1);
    if (digit != 0) acc = GroupCtx::madd(acc, t.comb[w * kCombRow + (digit - 1)]);
  }
  return acc;
}

Point Point::mul_gen(const ct::Secret<Scalar>& k) {
  // Constant-time fixed-base comb.  The scalar is rewritten with the
  // signed offset (see comb_offset) so all 64 digits lie in 1..16; each
  // window then does exactly one full-row cmov scan and one mixed
  // addition.  No secret-dependent branches, no secret-dependent indices.
  // The declassify below is the sanctioned kernel-level escape: the raw
  // limbs are consumed strictly branchlessly from here on.
  const auto& t = gen_tables();
  const U256 e = (k - comb_offset()).declassify().raw();
  Point acc = Point::infinity();
  for (unsigned w = 0; w < kCombWindows; ++w) {
    // d' in 0..15 encodes the true digit d' + 1; table index is d'.
    const unsigned digit =
        static_cast<unsigned>(e.w[w / 16] >> ((w % 16) * kCombWindow)) & (kCombRow - 1);
    acc = GroupCtx::madd(acc, ct_lookup_affine(&t.comb[w * kCombRow], digit));
  }
  return acc;
}

Point Point::operator*(const ct::Secret<Scalar>& k) const {
  // Constant-time variable-base multiply: same signed-offset digit
  // rewrite, over a per-call Jacobian table of d * P (d = 1..16).  The
  // schedule is fixed — 64 windows of 4 doublings, one full-table scan and
  // one general addition each — independent of the scalar's bits.
  if (inf_) return Point::infinity();  // base point is public
  Point table[kCombRow];
  table[0] = *this;
  for (unsigned i = 1; i < kCombRow; ++i) table[i] = GroupCtx::add_general(table[i - 1], *this);
  const U256 e = (k - comb_offset()).declassify().raw();
  Point acc = Point::infinity();
  for (int w = static_cast<int>(kCombWindows) - 1; w >= 0; --w) {
    for (int j = 0; j < 4; ++j) acc = jac_double(acc);
    const unsigned uw = static_cast<unsigned>(w);
    const unsigned digit =
        static_cast<unsigned>(e.w[uw / 16] >> ((uw % 16) * kCombWindow)) & (kCombRow - 1);
    // add_general: no Z == 1 fast-path dispatch, so the cost cannot depend
    // on which entry the digit selected.
    acc = GroupCtx::add_general(acc, ct_lookup_jacobian(table, digit));
  }
  return acc;
}

Point Point::mul_gen_add(const Scalar& a, const Point& p, const Scalar& b) {
  // Strauss–Shamir: one shared doubling chain; generator digits come from
  // the static affine odd-multiples table (width 7), point digits from a
  // per-call Jacobian table (width 5).
  std::int8_t na[257], nb[257];
  const int la = a.is_zero() ? 0 : wnaf_recode(a.raw(), kGenWnafWidth, na);
  const int lb = (b.is_zero() || p.is_infinity()) ? 0 : wnaf_recode(b.raw(), kWnafWidth, nb);
  if (lb == 0) return mul_gen(a);
  Point table[1u << (kWnafWidth - 2)];
  build_odd_table(p, table, 1u << (kWnafWidth - 2));
  const auto& t = gen_tables();
  Point acc = Point::infinity();
  for (int i = std::max(la, lb) - 1; i >= 0; --i) {
    acc = jac_double(acc);
    if (i < la && na[i] != 0) {
      acc = madd_signed(acc, t.odd[(std::abs(na[i]) - 1) / 2], na[i] < 0);
    }
    if (i < lb && nb[i] != 0) {
      acc = add_signed(acc, table[(std::abs(nb[i]) - 1) / 2], nb[i] < 0);
    }
  }
  return acc;
}

Point Point::multi_mul(const std::vector<Point>& pts, const std::vector<Scalar>& ks) {
  if (pts.size() != ks.size()) {
    throw std::invalid_argument("Point::multi_mul: size mismatch");
  }
  struct Stream {
    std::int8_t naf[257];
    int len;
    Point table[1u << (kWnafWidth - 2)];
  };
  std::vector<Stream> streams;
  streams.reserve(pts.size());
  int max_len = 0;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (pts[i].is_infinity() || ks[i].is_zero()) continue;
    streams.emplace_back();
    Stream& s = streams.back();
    s.len = wnaf_recode(ks[i].raw(), kWnafWidth, s.naf);
    build_odd_table(pts[i], s.table, 1u << (kWnafWidth - 2));
    max_len = std::max(max_len, s.len);
  }
  Point acc = Point::infinity();
  for (int i = max_len - 1; i >= 0; --i) {
    acc = jac_double(acc);
    for (const Stream& s : streams) {
      if (i >= s.len) continue;
      const int d = s.naf[i];
      if (d != 0) acc = add_signed(acc, s.table[(std::abs(d) - 1) / 2], d < 0);
    }
  }
  return acc;
}

Point Point::mul_naive(const Scalar& k) const {
  // The seed implementation, verbatim: 4-bit fixed-window double-and-add.
  if (inf_ || k.is_zero()) return Point::infinity();
  Point table[16];
  table[0] = Point::infinity();
  table[1] = *this;
  for (int i = 2; i < 16; ++i) table[i] = jac_add(table[i - 1], *this);

  const U256& e = k.raw();
  const unsigned bits = e.bit_length();
  const unsigned windows = (bits + 3) / 4;
  Point acc = Point::infinity();
  for (int wi = static_cast<int>(windows) - 1; wi >= 0; --wi) {
    for (int j = 0; j < 4; ++j) acc = jac_double(acc);
    const unsigned shift = static_cast<unsigned>(wi) * 4;
    unsigned digit = 0;
    for (unsigned b = 0; b < 4; ++b) {
      const unsigned bit_idx = shift + b;
      if (bit_idx < 256 && e.bit(bit_idx)) digit |= 1u << b;
    }
    if (digit != 0) acc = jac_add(acc, table[digit]);
  }
  return acc;
}

void Point::batch_normalize(std::vector<Point>& pts) {
  GroupCtx::batch_normalize(pts.data(), pts.size());
}

Point Point::normalized() const {
  Point p = *this;
  if (!inf_) {
    GroupCtx::to_affine(*this, p.x_, p.y_);
    p.z_ = kOne;
  }
  return p;
}

std::vector<util::Bytes> Point::batch_to_bytes(std::vector<Point> pts) {
  GroupCtx::batch_normalize(pts.data(), pts.size());
  std::vector<util::Bytes> out;
  out.reserve(pts.size());
  // to_affine hits the Z == 1 fast path, so no further inversions happen.
  for (const auto& p : pts) out.push_back(p.to_bytes());
  return out;
}

bool Point::operator==(const Point& o) const {
  if (inf_ || o.inf_) return inf_ == o.inf_;
  // Cross-multiplied Jacobian comparison: X1*Z2^2 == X2*Z1^2 etc.
  const U256 z1z1 = Fp::sqr(z_);
  const U256 z2z2 = Fp::sqr(o.z_);
  if (!(Fp::mul(x_, z2z2) == Fp::mul(o.x_, z1z1))) return false;
  return Fp::mul(y_, Fp::mul(z2z2, o.z_)) == Fp::mul(o.y_, Fp::mul(z1z1, z_));
}

bool Point::on_curve() const {
  if (inf_) return true;
  U256 ax, ay;
  GroupCtx::to_affine(*this, ax, ay);
  const U256 lhs = Fp::sqr(ay);
  const U256 rhs = Fp::add(Fp::mul(Fp::sqr(ax), ax), kCurveB);
  return lhs == rhs;
}

util::Bytes Point::to_bytes() const {
  if (inf_) return util::Bytes{0x00};
  U256 ax, ay;
  GroupCtx::to_affine(*this, ax, ay);
  const auto xb = ax.to_bytes_be();
  const auto yb = ay.to_bytes_be();
  util::Bytes out;
  out.reserve(65);
  out.push_back(0x04);
  out.insert(out.end(), xb.begin(), xb.end());
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

std::optional<Point> Point::from_bytes(const util::Bytes& b) {
  if (b.size() == 1 && b[0] == 0x00) return Point::infinity();
  if (b.size() != 65 || b[0] != 0x04) return std::nullopt;
  const U256 x = U256::from_bytes_be(b.data() + 1, 32);
  const U256 y = U256::from_bytes_be(b.data() + 33, 32);
  if (x >= Fp::kModulus || y >= Fp::kModulus) return std::nullopt;
  Point p = GroupCtx::make(x, y, kOne);
  if (!p.on_curve()) return std::nullopt;
  return p;
}

void absorb(Sha256& h, const Scalar& s) { h.update(s.to_bytes()); }
void absorb(Sha256& h, const Point& p) { h.update(p.to_bytes()); }

}  // namespace cicero::crypto
