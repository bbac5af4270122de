// Differential tests for the two secp256k1 fields (fp.hpp).
//
// The oracle is generic and slow: mul_wide followed by a bitwise
// shift-and-subtract reduction that works for any odd modulus, with
// Fermat square-and-multiply for inversion.  Fp and Fn must agree with it
// bit for bit on random operands and on the inputs that drive each fold
// and each final correction.  The oracle itself is checked on small
// primes, where native 64-bit arithmetic is the ground truth.
#include "crypto/fp.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "crypto/drbg.hpp"

namespace cicero::crypto {
namespace {

// --- the reference oracle, for any odd modulus m ---------------------------

U256 ref_add(const U256& a, const U256& b, const U256& m) {
  U256 r = a;
  const std::uint64_t carry = r.add_assign(b);
  U256 t = r;
  const std::uint64_t borrow = t.sub_assign(m);
  U256::cmov(r, t, ct::mask_nonzero(carry | (borrow ^ 1)));
  return r;
}

U256 ref_sub(const U256& a, const U256& b, const U256& m) {
  U256 r = a;
  const std::uint64_t borrow = r.sub_assign(b);
  U256 t = r;
  t.add_assign(m);
  U256::cmov(r, t, ct::mask_bit(borrow));
  return r;
}

U256 ref_neg(const U256& a, const U256& m) { return ref_sub(U256::zero(), a, m); }

/// Binary reduction of a 512-bit value: double, add the next bit, and
/// subtract m whenever the running value reaches it.
U256 ref_reduce_wide(const U512& a, const U256& m) {
  U256 r;
  for (int i = 511; i >= 0; --i) {
    const std::uint64_t carry = r.add_assign(r);
    U256 t = r;
    std::uint64_t borrow = t.sub_assign(m);
    U256::cmov(r, t, ct::mask_nonzero(carry | (borrow ^ 1)));
    const std::uint64_t bit = (a.w[i / 64] >> (i % 64)) & 1;
    const std::uint64_t c2 = r.add_assign(U256(bit));
    t = r;
    borrow = t.sub_assign(m);
    U256::cmov(r, t, ct::mask_nonzero(c2 | (borrow ^ 1)));
  }
  return r;
}

U512 make_wide(const U256& lo, const U256& hi) {
  U512 t;
  for (int i = 0; i < 4; ++i) {
    t.w[i] = lo.w[i];
    t.w[i + 4] = hi.w[i];
  }
  return t;
}

U256 ref_reduce(const U256& a, const U256& m) {
  return ref_reduce_wide(make_wide(a, U256::zero()), m);
}

U256 ref_mul(const U256& a, const U256& b, const U256& m) {
  return ref_reduce_wide(mul_wide(a, b), m);
}

U256 ref_pow(const U256& a, const U256& e, const U256& m) {
  U256 result = ref_reduce(U256::one(), m);
  U256 base = a;
  for (unsigned i = 0; i < e.bit_length(); ++i) {
    if (e.bit(i)) result = ref_mul(result, base, m);
    base = ref_mul(base, base, m);
  }
  return result;
}

U256 minus(const U256& a, std::uint64_t k) {
  U256 r = a;
  r.sub_assign(U256(k));
  return r;
}

/// Fermat inversion a^(m-2) through the oracle.
U256 ref_inv(const U256& a, const U256& m) { return ref_pow(a, minus(m, 2), m); }

// --- one interface over Fp, Fn and the oracle -------------------------------

struct FieldOps {
  U256 m;
  std::function<U256(const U256&, const U256&)> add, sub, mul;
  std::function<U256(const U256&)> neg, inv;
  std::function<U256(const U512&)> reduce_wide;
};

/// Fp and Fn for their own moduli; the oracle for any other (small)
/// modulus, so the identities below also hold the oracle to account.
FieldOps ops_for(const U256& m) {
  if (m == Fp::kModulus) {
    return {m, Fp::add, Fp::sub, Fp::mul, Fp::neg, Fp::inv, Fp::reduce_wide};
  }
  if (m == Fn::kModulus) {
    return {m, Fn::add, Fn::sub, Fn::mul, Fn::neg, Fn::inv, Fn::reduce_wide};
  }
  return {m,
          [m](const U256& a, const U256& b) { return ref_add(a, b, m); },
          [m](const U256& a, const U256& b) { return ref_sub(a, b, m); },
          [m](const U256& a, const U256& b) { return ref_mul(a, b, m); },
          [m](const U256& a) { return ref_neg(a, m); },
          [m](const U256& a) { return ref_inv(a, m); },
          [m](const U512& t) { return ref_reduce_wide(t, m); }};
}

/// Uniform 256-bit value from the DRBG's raw output (not through any
/// field under test).
U256 random_u256(Drbg& d) {
  std::uint8_t b[32];
  d.generate(b, sizeof(b));
  return U256::from_bytes_be(b, sizeof(b));
}

U512 random_u512(Drbg& d) {
  const U256 lo = random_u256(d);
  return make_wide(lo, random_u256(d));
}

// Small prime for the oracle's own checks plus the secp256k1 primes.
const U256 kSmallPrime(1009);

class FpParam : public ::testing::TestWithParam<U256> {};

INSTANTIATE_TEST_SUITE_P(Moduli, FpParam,
                         ::testing::Values(kSmallPrime, Fp::kModulus, Fn::kModulus));

TEST_P(FpParam, AdditionIsModular) {
  const FieldOps f = ops_for(GetParam());
  // (m-1) + 1 == 0
  EXPECT_TRUE(f.add(minus(f.m, 1), U256::one()).is_zero());
}

TEST_P(FpParam, SubWrapAround) {
  const FieldOps f = ops_for(GetParam());
  EXPECT_EQ(f.sub(U256::zero(), U256::one()), minus(f.m, 1));
}

TEST_P(FpParam, MulMatchesRepeatedAdd) {
  const FieldOps f = ops_for(GetParam());
  const U256 a = ref_reduce(U256(123456789), f.m);
  U256 sum;  // zero
  for (int i = 0; i < 5; ++i) sum = f.add(sum, a);
  EXPECT_EQ(f.mul(a, U256(5)), sum);
}

TEST_P(FpParam, InverseProperty) {
  const FieldOps f = ops_for(GetParam());
  Drbg d(2);
  for (int i = 0; i < 10; ++i) {
    U256 a = ref_reduce(random_u256(d), f.m);
    if (a.is_zero()) a = U256::one();
    EXPECT_EQ(f.mul(a, f.inv(a)), U256::one());
  }
}

TEST_P(FpParam, PowFermat) {
  // a^(m-1) == 1 for prime m and a != 0, by square-and-multiply on f.mul.
  const FieldOps f = ops_for(GetParam());
  const U256 e = minus(f.m, 1);
  const U256 a = ref_reduce(U256(987654321), f.m);
  U256 result = U256::one(), base = a;
  for (unsigned i = 0; i < e.bit_length(); ++i) {
    if (e.bit(i)) result = f.mul(result, base);
    base = f.mul(base, base);
  }
  EXPECT_EQ(result, U256::one());
}

TEST_P(FpParam, NegIsAdditiveInverse) {
  const FieldOps f = ops_for(GetParam());
  const U256 a = ref_reduce(U256(31337), f.m);
  EXPECT_TRUE(f.add(a, f.neg(a)).is_zero());
  EXPECT_TRUE(f.neg(U256::zero()).is_zero());
}

TEST_P(FpParam, ReduceWideMatchesMul) {
  // reduce_wide of the full product, and of a random 512-bit value,
  // against the oracle.
  const FieldOps f = ops_for(GetParam());
  Drbg d(3);
  for (int i = 0; i < 10; ++i) {
    const U256 a = ref_reduce(random_u256(d), f.m);
    const U256 b = ref_reduce(random_u256(d), f.m);
    EXPECT_EQ(f.reduce_wide(mul_wide(a, b)), f.mul(a, b));
    EXPECT_EQ(f.mul(a, b), ref_mul(a, b, f.m));
    const U512 t = random_u512(d);
    EXPECT_EQ(f.reduce_wide(t), ref_reduce_wide(t, f.m));
  }
}

TEST(Fp, SmallPrimeExhaustiveMul) {
  // The oracle against native arithmetic over a tiny modulus.
  const U256 m(97);
  for (std::uint64_t a = 0; a < 97; ++a) {
    for (std::uint64_t b = 0; b < 97; ++b) {
      EXPECT_EQ(ref_mul(U256(a), U256(b), m), U256((a * b) % 97));
      EXPECT_EQ(ref_add(U256(a), U256(b), m), U256((a + b) % 97));
      EXPECT_EQ(ref_sub(U256(a), U256(b), m), U256((a + 97 - b) % 97));
    }
  }
}

TEST(Fp, InvZeroThrows) {
  EXPECT_THROW(Fp::inv(U256::zero()), std::domain_error);
  EXPECT_THROW(Fn::inv(U256::zero()), std::domain_error);
}

TEST(Fp, ReduceLargeValue) {
  U256 over = Fn::kModulus;
  over.add_assign(U256(5));
  EXPECT_EQ(Fn::reduce(over), U256(5));
  const U256 max(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  EXPECT_EQ(Fn::reduce(max), ref_reduce(max, Fn::kModulus));
  EXPECT_EQ(Fn::reduce(minus(Fn::kModulus, 1)), minus(Fn::kModulus, 1));
  EXPECT_TRUE(Fn::reduce(Fn::kModulus).is_zero());
}

// --- differential: Fp and Fn against the oracle -----------------------------

class FieldDiff : public ::testing::TestWithParam<U256> {};

INSTANTIATE_TEST_SUITE_P(Secp256k1, FieldDiff, ::testing::Values(Fp::kModulus, Fn::kModulus),
                         [](const auto& info) {
                           return info.param == Fp::kModulus ? std::string("p")
                                                             : std::string("n");
                         });

TEST_P(FieldDiff, RandomPairsMatchOracle) {
  const FieldOps f = ops_for(GetParam());
  Drbg d(GetParam().w[0]);
  for (int i = 0; i < 10000; ++i) {
    const U256 a = ref_reduce(random_u256(d), f.m);
    const U256 b = ref_reduce(random_u256(d), f.m);
    ASSERT_EQ(f.mul(a, b), ref_mul(a, b, f.m)) << a.to_hex() << " * " << b.to_hex();
    ASSERT_EQ(f.add(a, b), ref_add(a, b, f.m)) << a.to_hex() << " + " << b.to_hex();
    ASSERT_EQ(f.sub(a, b), ref_sub(a, b, f.m)) << a.to_hex() << " - " << b.to_hex();
  }
}

TEST_P(FieldDiff, RandomWideValuesMatchOracle) {
  const FieldOps f = ops_for(GetParam());
  Drbg d(GetParam().w[1]);
  for (int i = 0; i < 2000; ++i) {
    const U512 t = random_u512(d);
    ASSERT_EQ(f.reduce_wide(t), ref_reduce_wide(t, f.m));
  }
}

TEST_P(FieldDiff, EdgeOperandsMatchOracle) {
  const FieldOps f = ops_for(GetParam());
  const U256 max(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  // 0, 1, 2, m-1, m-2, (m-1)^2 mod m, 2^255 - 1 and (2^256 - 1) mod m.
  const std::vector<U256> edge = {U256::zero(),
                                  U256::one(),
                                  U256(2),
                                  minus(f.m, 1),
                                  minus(f.m, 2),
                                  ref_mul(minus(f.m, 1), minus(f.m, 1), f.m),
                                  U256(~0ULL, ~0ULL, ~0ULL, ~0ULL >> 1),
                                  ref_reduce(max, f.m)};
  for (const U256& a : edge) {
    for (const U256& b : edge) {
      EXPECT_EQ(f.mul(a, b), ref_mul(a, b, f.m)) << a.to_hex() << " * " << b.to_hex();
      EXPECT_EQ(f.add(a, b), ref_add(a, b, f.m)) << a.to_hex() << " + " << b.to_hex();
      EXPECT_EQ(f.sub(a, b), ref_sub(a, b, f.m)) << a.to_hex() << " - " << b.to_hex();
    }
    EXPECT_EQ(f.neg(a), ref_neg(a, f.m)) << a.to_hex();
  }
  EXPECT_EQ(f.mul(minus(f.m, 1), minus(f.m, 1)), U256::one());
  // The widest inputs: 2^512 - 1, 2^256 * (2^256 - 1) and 2^256 - 1.
  const U512 all_ones = make_wide(max, max);
  EXPECT_EQ(f.reduce_wide(all_ones), ref_reduce_wide(all_ones, f.m));
  EXPECT_EQ(f.reduce_wide(make_wide(U256::zero(), max)),
            ref_reduce_wide(make_wide(U256::zero(), max), f.m));
  EXPECT_EQ(f.reduce_wide(make_wide(max, U256::zero())), ref_reduce(max, f.m));
  // Exact multiples of m reduce to zero.
  EXPECT_TRUE(f.reduce_wide(make_wide(f.m, U256::zero())).is_zero());
  EXPECT_TRUE(f.reduce_wide(mul_wide(f.m, minus(f.m, 1))).is_zero());
}

TEST(FieldFold, BaseFoldCarriesIntoThirdFold) {
  // Fold 3 runs with a carry when fold 1 leaves lo + hi * 0x1000003D1 just
  // under a multiple of 2^256.  With c = 0x1000003D1, the operands
  // a = 2^256 - 2c + 1 and b = 2^256 - 2c - 1 (both < p) get there:
  // (2^256 - x)(2^256 - y) folds to a low part congruent to
  // (x - c)(y - c) - c^2 = -1 mod 2^256.
  const U256 a = sub_wrap(U256::zero(), U256(2 * Fp::kFold - 1));
  const U256 b = sub_wrap(U256::zero(), U256(2 * Fp::kFold + 1));
  ASSERT_TRUE(a < Fp::kModulus && b < Fp::kModulus);
  EXPECT_EQ(Fp::mul(a, b), ref_mul(a, b, Fp::kModulus));
  EXPECT_EQ(Fp::mul(b, a), ref_mul(a, b, Fp::kModulus));
  for (std::uint64_t k = 0; k < 64; ++k) {
    const U256 ak = sub_wrap(a, U256(k));
    EXPECT_EQ(Fp::mul(ak, b), ref_mul(ak, b, Fp::kModulus)) << k;
  }
  // The same path as a wide input: hi = 2^224, lo = 2^256 - 1 - 0x3D1 *
  // 2^224 folds to 2^257 - 1, which is 2c - 1 mod p.
  const U256 hi(0, 0, 0, 1ULL << 32);
  const U256 lo = sub_wrap(U256(~0ULL, ~0ULL, ~0ULL, ~0ULL), U256(0, 0, 0, 0x3D1ULL << 32));
  EXPECT_EQ(Fp::reduce_wide(make_wide(lo, hi)), U256(2 * Fp::kFold - 1));
  for (std::uint64_t k = 0; k < 64; ++k) {
    const U512 t = make_wide(sub_wrap(lo, U256(k)), hi);
    EXPECT_EQ(Fp::reduce_wide(t), ref_reduce_wide(t, Fp::kModulus)) << k;
  }
}

TEST(FieldFold, ScalarFoldCarriesIntoLastFold) {
  // A wide value whose third fold carries out of 2^256: fold 1 yields
  // 2^384 + (2^257 - 2^128 * c_n - 1), so fold 2 yields 2^257 - 1 and
  // fold 3 carries.  hi = floor(that / c_n), lo = the remainder.
  const U256 hi(0x83CB2A8840D50FD7ULL, 0x3E4C384B9C07E9ADULL, 0x757A0DDAADBA25F9ULL,
                0xC973E8ECBA391009ULL);
  const U256 lo(0xD180CA7296789C96ULL, 0xA461DEDCA75CB965ULL, 0, 0);
  for (std::uint64_t k = 0; k < 64; ++k) {
    const U512 t = make_wide(sub_wrap(lo, U256(k)), hi);
    EXPECT_EQ(Fn::reduce_wide(t), ref_reduce_wide(t, Fn::kModulus)) << k;
  }
  const U256 max(~0ULL, ~0ULL, ~0ULL, ~0ULL);
  for (unsigned k = 0; k < 256; ++k) {
    const U512 t = make_wide(max, U256::one().shl(k));
    EXPECT_EQ(Fn::reduce_wide(t), ref_reduce_wide(t, Fn::kModulus)) << k;
  }
}

TEST_P(FieldDiff, InversionMatchesFermat) {
  const FieldOps f = ops_for(GetParam());
  Drbg d(GetParam().w[2]);
  std::vector<U256> xs = {U256::one(), U256(2), minus(f.m, 1), minus(f.m, 2)};
  for (int i = 0; i < 40; ++i) {
    U256 a = ref_reduce(random_u256(d), f.m);
    if (a.is_zero()) a = U256::one();
    xs.push_back(a);
  }
  for (const U256& a : xs) {
    const U256 r = f.inv(a);
    EXPECT_EQ(r, ref_inv(a, f.m)) << a.to_hex();
    EXPECT_EQ(ref_mul(a, r, f.m), U256::one()) << a.to_hex();
  }
}

TEST_P(FieldDiff, BatchInvMatchesElementwise) {
  const FieldOps f = ops_for(GetParam());
  Drbg d(GetParam().w[3]);
  std::vector<U256> xs;
  for (int i = 0; i < 9; ++i) xs.push_back(ref_reduce(random_u256(d), f.m));
  xs.push_back(minus(f.m, 1));
  std::vector<U256> batch = xs;
  if (f.m == Fp::kModulus) {
    Fp::batch_inv(batch.data(), batch.size());
  } else {
    Fn::batch_inv(batch.data(), batch.size());
  }
  for (std::size_t i = 0; i < xs.size(); ++i) EXPECT_EQ(batch[i], f.inv(xs[i])) << i;
}

TEST_P(FieldDiff, BatchInvZeroThrowsAndLeavesInput) {
  const U256 m = GetParam();
  std::vector<U256> xs = {U256(3), U256::zero(), U256(5)};
  const std::vector<U256> before = xs;
  if (m == Fp::kModulus) {
    EXPECT_THROW(Fp::batch_inv(xs.data(), xs.size()), std::domain_error);
  } else {
    EXPECT_THROW(Fn::batch_inv(xs.data(), xs.size()), std::domain_error);
  }
  EXPECT_EQ(xs, before);
  std::vector<U256> empty;
  Fp::batch_inv(empty.data(), 0);  // no-op, must not throw
  Fn::batch_inv(empty.data(), 0);
}

}  // namespace
}  // namespace cicero::crypto
