// Fixed-width 256-bit unsigned integer arithmetic.
//
// This is the bottom layer of the from-scratch cryptography stack: four
// 64-bit limbs, little-endian limb order, with the carry-propagating
// primitives the secp256k1 field layer (fp.hpp) needs (add/sub with carry,
// 256x256 -> 512 multiply, shifts, comparisons) plus big-endian byte/hex
// I/O used by serialization and hashing.  The limb kernels every field
// operation runs (add/sub with carry, cmov, mul_wide) are defined inline
// here so they inline into the field and group code.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>

#include "crypto/ct.hpp"
#include "util/bytes.hpp"

namespace cicero::crypto {

/// Double-limb accumulator for carry chains and 64x64 -> 128 products.
using u128 = unsigned __int128;

/// 256-bit unsigned integer; limbs little-endian (w[0] least significant).
struct U256 {
  std::uint64_t w[4] = {0, 0, 0, 0};

  constexpr U256() = default;
  constexpr explicit U256(std::uint64_t lo) : w{lo, 0, 0, 0} {}
  constexpr U256(std::uint64_t w0, std::uint64_t w1, std::uint64_t w2, std::uint64_t w3)
      : w{w0, w1, w2, w3} {}

  static U256 zero() { return U256(); }
  static U256 one() { return U256(1); }

  bool is_zero() const { return (w[0] | w[1] | w[2] | w[3]) == 0; }
  bool is_odd() const { return (w[0] & 1) != 0; }

  /// Value of bit `i` (0 = least significant).  i must be < 256.
  bool bit(unsigned i) const { return (w[i >> 6] >> (i & 63)) & 1; }

  /// Index of the highest set bit plus one (0 for zero).
  unsigned bit_length() const;

  bool operator==(const U256& o) const = default;

  /// Three-way compare: negative, zero, positive like memcmp.
  int cmp(const U256& o) const;
  bool operator<(const U256& o) const { return cmp(o) < 0; }
  bool operator<=(const U256& o) const { return cmp(o) <= 0; }
  bool operator>(const U256& o) const { return cmp(o) > 0; }
  bool operator>=(const U256& o) const { return cmp(o) >= 0; }

  /// this += o; returns the carry-out (0 or 1).
  std::uint64_t add_assign(const U256& o);
  /// this -= o; returns the borrow-out (0 or 1).
  std::uint64_t sub_assign(const U256& o);

  // --- constant-time primitives (ct.hpp word ops lifted to 256 bits) -----
  // These are the only operations the crypto layer may use on secret
  // values: no data-dependent branches, no data-dependent addressing.

  /// dst = src where `mask` is all-ones, unchanged where 0.
  static void cmov(U256& dst, const U256& src, std::uint64_t mask) {
    for (int i = 0; i < 4; ++i) ct::ct_cmov(dst.w[i], src.w[i], mask);
  }
  /// Branch-free select: `a` where mask is all-ones, else `b`.
  static U256 ct_select(std::uint64_t mask, const U256& a, const U256& b);
  /// Conditional swap under an all-ones/zero mask.
  static void ct_swap(U256& a, U256& b, std::uint64_t mask);
  /// All-ones mask iff *this == o, in time independent of the match prefix.
  std::uint64_t eq_mask(const U256& o) const;
  /// All-ones mask iff *this == 0.
  std::uint64_t zero_mask() const;

  /// Logical shift left/right by k bits, k in [0, 255].
  U256 shl(unsigned k) const;
  U256 shr(unsigned k) const;

  /// Big-endian 32-byte encoding (network order, as used on the wire).
  std::array<std::uint8_t, 32> to_bytes_be() const;
  static U256 from_bytes_be(const std::uint8_t* data, std::size_t len);
  static U256 from_bytes_be(const util::Bytes& b) { return from_bytes_be(b.data(), b.size()); }

  std::string to_hex() const;
  /// Parses up to 64 hex digits (no 0x prefix).  Throws on bad input.
  static U256 from_hex(std::string_view hex);
};

/// 512-bit product type produced by mul_wide; limbs little-endian.
struct U512 {
  std::uint64_t w[8] = {0, 0, 0, 0, 0, 0, 0, 0};
};

inline std::uint64_t U256::add_assign(const U256& o) {
  u128 carry = 0;
  for (int i = 0; i < 4; ++i) {
    carry += static_cast<u128>(w[i]) + o.w[i];
    w[i] = static_cast<std::uint64_t>(carry);
    carry >>= 64;
  }
  return static_cast<std::uint64_t>(carry);
}

inline std::uint64_t U256::sub_assign(const U256& o) {
  u128 borrow = 0;
  for (int i = 0; i < 4; ++i) {
    const u128 d = static_cast<u128>(w[i]) - o.w[i] - borrow;
    w[i] = static_cast<std::uint64_t>(d);
    borrow = (d >> 64) & 1;
  }
  return static_cast<std::uint64_t>(borrow);
}

/// Schoolbook 256x256 -> 512 multiply.
inline U512 mul_wide(const U256& a, const U256& b) {
  U512 r;
  for (int i = 0; i < 4; ++i) {
    u128 carry = 0;
    for (int j = 0; j < 4; ++j) {
      carry += static_cast<u128>(a.w[i]) * b.w[j] + r.w[i + j];
      r.w[i + j] = static_cast<std::uint64_t>(carry);
      carry >>= 64;
    }
    r.w[i + 4] = static_cast<std::uint64_t>(carry);
  }
  return r;
}

/// a + b mod 2^256 (carry discarded).
U256 add_wrap(const U256& a, const U256& b);

/// a - b mod 2^256 (borrow discarded).
U256 sub_wrap(const U256& a, const U256& b);

}  // namespace cicero::crypto
