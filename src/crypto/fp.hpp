// The two secp256k1 prime fields, specialised to their fixed moduli.
//
// Both moduli sit just below 2^256: p = 2^256 - 0x1000003D1 (base field)
// and n = 2^256 - c_n with c_n < 2^129 (group order).  A 512-bit product
// is therefore reduced by folding its high half back in multiplied by
// 2^256 mod m (the "fold constant"), as libsecp256k1 does, instead of a
// generic Montgomery REDC.  Elements are plain U256 values < m: there is
// no Montgomery form, so values enter and leave the fields unconverted.
//
// Every kernel here is branch-free on its data (DESIGN.md §7): folds add
// their carries instead of testing them, final corrections are cmovs, and
// inversion follows a fixed schedule.  The one branch is the throw on a
// zero input to inv() or batch_inv().
#pragma once

#include <cstddef>
#include <cstdint>

#include "crypto/ct.hpp"
#include "crypto/u256.hpp"

namespace cicero::crypto {

namespace field_detail {

/// a + b mod m for m = 2^256 - c and a, b < m.  The sum is < 2m, so one
/// subtraction of m suffices; r - m wraps to r + c, and it is due exactly
/// when the add carried out or r + c carries out (r >= m).
inline U256 add(const U256& a, const U256& b, const U256& c) {
  U256 r = a;
  const std::uint64_t carry = r.add_assign(b);
  U256 t = r;
  const std::uint64_t over = t.add_assign(c);
  U256::cmov(r, t, ct::mask_nonzero(carry | over));
  return r;
}

/// a - b mod m for m = 2^256 - c and a, b < m: on a borrow, add m back,
/// which modulo 2^256 is subtracting c.
inline U256 sub(const U256& a, const U256& b, const U256& c) {
  U256 r = a;
  const std::uint64_t borrow = r.sub_assign(b);
  U256 t = r;
  t.sub_assign(c);
  U256::cmov(r, t, ct::mask_bit(borrow));
  return r;
}

/// m - a, with a == 0 folded back to 0 by a cmov (negating a secret must
/// not branch on it).
inline U256 neg(const U256& a, const U256& m) {
  U256 r = m;
  r.sub_assign(a);
  U256::cmov(r, U256::zero(), a.zero_mask());
  return r;
}

/// r < 2^256 < 2m reduced to r mod m by one cmov subtraction: r >= m
/// exactly when r + c carries out, and then r + c wraps to r - m.
inline U256 final_sub(const U256& r, const U256& c) {
  U256 out = r;
  U256 t = r;
  const std::uint64_t over = t.add_assign(c);
  U256::cmov(out, t, ct::mask_bit(over));
  return out;
}

}  // namespace field_detail

/// The secp256k1 base field F_p, p = 2^256 - 2^32 - 977.
struct Fp {
  static constexpr U256 kModulus{0xFFFFFFFEFFFFFC2FULL, 0xFFFFFFFFFFFFFFFFULL,
                                 0xFFFFFFFFFFFFFFFFULL, 0xFFFFFFFFFFFFFFFFULL};
  /// 2^256 mod p = 2^256 - p.
  static constexpr std::uint64_t kFold = 0x1000003D1ULL;

  static U256 add(const U256& a, const U256& b) { return field_detail::add(a, b, U256(kFold)); }
  static U256 sub(const U256& a, const U256& b) { return field_detail::sub(a, b, U256(kFold)); }
  static U256 neg(const U256& a) { return field_detail::neg(a, kModulus); }
  static U256 mul(const U256& a, const U256& b) { return reduce_wide(mul_wide(a, b)); }
  static U256 sqr(const U256& a) { return mul(a, a); }

  /// Reduces any 512-bit value mod p with three folds by kFold and one
  /// cmov subtraction.
  static U256 reduce_wide(const U512& t);

  /// a^(p-2) by libsecp256k1's fixed addition chain (255 squarings, 15
  /// multiplications).  Throws std::domain_error on zero.
  static U256 inv(const U256& a);

  /// Montgomery's batch-inversion trick: inverts all `n` elements in place
  /// with one inversion plus 3(n-1) multiplications.  Throws
  /// std::domain_error if any element is zero, leaving the array as it was.
  static void batch_inv(U256* xs, std::size_t n);
};

/// The secp256k1 scalar field Z_n, n = the group order.
struct Fn {
  static constexpr U256 kModulus{0xBFD25E8CD0364141ULL, 0xBAAEDCE6AF48A03BULL,
                                 0xFFFFFFFFFFFFFFFEULL, 0xFFFFFFFFFFFFFFFFULL};
  /// 2^256 mod n = 2^256 - n, a 129-bit constant.
  static constexpr U256 kFold{0x402DA1732FC9BEBFULL, 0x4551231950B75FC4ULL, 1, 0};

  static U256 add(const U256& a, const U256& b) { return field_detail::add(a, b, kFold); }
  static U256 sub(const U256& a, const U256& b) { return field_detail::sub(a, b, kFold); }
  static U256 neg(const U256& a) { return field_detail::neg(a, kModulus); }
  static U256 mul(const U256& a, const U256& b) { return reduce_wide(mul_wide(a, b)); }
  static U256 sqr(const U256& a) { return mul(a, a); }

  /// Reduces any 256-bit value mod n (one cmov subtraction).
  static U256 reduce(const U256& a) { return field_detail::final_sub(a, kFold); }

  /// Reduces any 512-bit value mod n: folds by kFold take it to 386, then
  /// 260, then 257 bits, a last fold clears the carry, and one cmov
  /// subtraction finishes.
  static U256 reduce_wide(const U512& t);

  /// a^(n-2) by square-and-multiply over the fixed exponent n - 2.  Throws
  /// std::domain_error on zero.
  static U256 inv(const U256& a);

  /// As Fp::batch_inv.
  static void batch_inv(U256* xs, std::size_t n);
};

inline U256 Fp::reduce_wide(const U512& t) {
  // Fold 1: lo + hi * kFold < 2^256 + 2^289, five limbs with r4 < 2^34.
  std::uint64_t r[4] = {};
  u128 acc = 0;
  for (int i = 0; i < 4; ++i) {
    acc += static_cast<u128>(t.w[i + 4]) * kFold + t.w[i];
    r[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  // Fold 2: r + r4 * kFold, where the addend is < 2^67; leaves a carry c.
  acc = static_cast<u128>(static_cast<std::uint64_t>(acc)) * kFold;
  for (int i = 0; i < 4; ++i) {
    acc += r[i];
    r[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  // Fold 3: r + c * kFold.  When c = 1 the wrapped r is < 2^67, so this
  // cannot carry out again.
  acc = static_cast<u128>(static_cast<std::uint64_t>(acc) * kFold);
  for (int i = 0; i < 4; ++i) {
    acc += r[i];
    r[i] = static_cast<std::uint64_t>(acc);
    acc >>= 64;
  }
  return field_detail::final_sub(U256(r[0], r[1], r[2], r[3]), U256(kFold));
}

namespace field_detail {

/// out[0..K+4) = lo[0..4) + hi[0..K) * Fn::kFold, for 1 <= K <= 4.  The
/// fold constant's limbs are (c0, c1, 1).
template <int K>
void fold_n(const std::uint64_t* lo, const std::uint64_t* hi, std::uint64_t* out) {
  constexpr std::uint64_t c[3] = {Fn::kFold.w[0], Fn::kFold.w[1], Fn::kFold.w[2]};
  for (int i = 0; i < K + 4; ++i) out[i] = i < 4 ? lo[i] : 0;
  for (int i = 0; i < K; ++i) {
    u128 acc = 0;
    for (int j = 0; j < 3; ++j) {
      acc += static_cast<u128>(hi[i]) * c[j] + out[i + j];
      out[i + j] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
    for (int j = i + 3; j < K + 4; ++j) {
      acc += out[j];
      out[j] = static_cast<std::uint64_t>(acc);
      acc >>= 64;
    }
  }
}

}  // namespace field_detail

inline U256 Fn::reduce_wide(const U512& t) {
  using field_detail::fold_n;
  std::uint64_t a[8] = {}, b[7] = {}, c[5] = {}, d[5] = {};
  fold_n<4>(t.w, t.w + 4, a);  // < 2^256 + 2^385: a[6] < 4, a[7] = 0
  fold_n<3>(a, a + 4, b);      // < 2^256 + 2^259: b[4] < 16, b[5] = b[6] = 0
  fold_n<1>(b, b + 4, c);      // < 2^256 + 2^133: c[4] is the carry bit
  fold_n<1>(c, c + 4, d);      // carry set => c < 2^133, so d[4] = 0
  return field_detail::final_sub(U256(d[0], d[1], d[2], d[3]), kFold);
}

}  // namespace cicero::crypto
