// Tests for the constant-time kernels and the Secret<T> taint discipline.
//
// Two families:
//  1. Differential tests: every ct kernel (masks, cmov/select/swap, the
//     fixed-base comb over Secret scalars, the ct variable-base ladder)
//     must be bit-identical to the variable-time reference paths.
//  2. Compile-time misuse tests: the deleted operators on Secret<T> must
//     actually make secret-dependent branches/comparisons/indexing fail to
//     compile, checked via requires-expressions in static_asserts.
#include <gtest/gtest.h>

#include <concepts>
#include <cstdint>
#include <cstring>
#include <new>
#include <type_traits>

#include "crypto/ct.hpp"
#include "crypto/drbg.hpp"
#include "crypto/group.hpp"
#include "crypto/u256.hpp"

namespace cicero::crypto {
namespace {

// ---------------------------------------------------------------------------
// Word-level primitives.

TEST(CtPrimitives, Masks) {
  EXPECT_EQ(ct::mask_nonzero(0), 0u);
  EXPECT_EQ(ct::mask_nonzero(1), ~0ull);
  EXPECT_EQ(ct::mask_nonzero(0x8000000000000000ull), ~0ull);
  EXPECT_EQ(ct::mask_nonzero(~0ull), ~0ull);
  EXPECT_EQ(ct::mask_zero(0), ~0ull);
  EXPECT_EQ(ct::mask_zero(42), 0u);
  EXPECT_EQ(ct::mask_eq(7, 7), ~0ull);
  EXPECT_EQ(ct::mask_eq(7, 8), 0u);
  EXPECT_EQ(ct::mask_bit(1), ~0ull);
  EXPECT_EQ(ct::mask_bit(0), 0u);
  // mask_bit only looks at bit 0 (borrow/carry outputs are 0 or 1).
  EXPECT_EQ(ct::mask_bit(3), ~0ull);
  EXPECT_EQ(ct::mask_bit(2), 0u);
}

TEST(CtPrimitives, SelectCmovSwap) {
  EXPECT_EQ(ct::ct_select(~0ull, 0xAAull, 0xBBull), 0xAAull);
  EXPECT_EQ(ct::ct_select(0, 0xAAull, 0xBBull), 0xBBull);
  std::uint64_t d = 5;
  ct::ct_cmov(d, 9, 0);
  EXPECT_EQ(d, 5u);
  ct::ct_cmov(d, 9, ~0ull);
  EXPECT_EQ(d, 9u);
  std::uint64_t a = 1, b = 2;
  ct::ct_swap(a, b, 0);
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ct::ct_swap(a, b, ~0ull);
  EXPECT_EQ(a, 2u);
  EXPECT_EQ(b, 1u);
}

TEST(CtPrimitives, ByteEquality) {
  const std::uint8_t x[4] = {1, 2, 3, 4};
  const std::uint8_t y[4] = {1, 2, 3, 4};
  const std::uint8_t z[4] = {1, 2, 3, 5};
  const std::uint8_t w[4] = {255, 2, 3, 4};  // mismatch in the first byte
  EXPECT_TRUE(ct::ct_eq(x, y, 4));
  EXPECT_FALSE(ct::ct_eq(x, z, 4));
  EXPECT_FALSE(ct::ct_eq(x, w, 4));
  EXPECT_TRUE(ct::ct_eq(x, z, 3));
}

TEST(CtPrimitives, U256ConditionalOps) {
  Drbg d(7);
  for (int i = 0; i < 16; ++i) {
    const U256 a = d.next_scalar().raw();
    const U256 b = d.next_scalar().raw();
    EXPECT_EQ(U256::ct_select(~0ull, a, b), a);
    EXPECT_EQ(U256::ct_select(0, a, b), b);
    U256 x = a;
    U256::cmov(x, b, 0);
    EXPECT_EQ(x, a);
    U256::cmov(x, b, ~0ull);
    EXPECT_EQ(x, b);
    U256 p = a, q = b;
    U256::ct_swap(p, q, ~0ull);
    EXPECT_EQ(p, b);
    EXPECT_EQ(q, a);
    EXPECT_EQ(a.eq_mask(a), ~0ull);
    EXPECT_EQ(a.eq_mask(b), a == b ? ~0ull : 0ull);
  }
  EXPECT_EQ(U256{}.zero_mask(), ~0ull);
  EXPECT_EQ((U256{3, 0, 0, 0}).zero_mask(), 0u);
}

// ---------------------------------------------------------------------------
// Differential: ct scalar multiplication == variable-time references.

TEST(CtDifferential, FixedBaseCombMatchesVartimeAndNaive) {
  Drbg d(11);
  const Point g = Point::generator();
  for (int i = 0; i < 24; ++i) {
    const Scalar k = d.next_scalar_any();
    const Point ct_res = Point::mul_gen(ct::Secret<Scalar>(k));
    EXPECT_EQ(ct_res, Point::mul_gen(k));
    EXPECT_EQ(ct_res, g.mul_naive(k));
  }
}

TEST(CtDifferential, FixedBaseCombEdgeScalars) {
  const Point g = Point::generator();
  const Scalar zero = Scalar::zero();
  const Scalar one = Scalar::one();
  const Scalar minus_one = -one;
  EXPECT_TRUE(Point::mul_gen(ct::Secret<Scalar>(zero)).is_infinity());
  EXPECT_EQ(Point::mul_gen(ct::Secret<Scalar>(one)), g);
  EXPECT_EQ(Point::mul_gen(ct::Secret<Scalar>(minus_one)), g.mul_naive(minus_one));
  // Small scalars exercise every all-but-one-zero-digit comb pattern.
  for (std::uint64_t v : {2ull, 15ull, 16ull, 17ull, 255ull, 256ull}) {
    const Scalar k = Scalar::from_u64(v);
    EXPECT_EQ(Point::mul_gen(ct::Secret<Scalar>(k)), g.mul_naive(k));
  }
}

TEST(CtDifferential, VariableBaseLadderMatchesVartimeAndNaive) {
  Drbg d(13);
  for (int i = 0; i < 12; ++i) {
    // Random non-generator base point.
    const Point p = Point::mul_gen(d.next_scalar());
    const Scalar k = d.next_scalar_any();
    const Point ct_res = p * ct::Secret<Scalar>(k);
    EXPECT_EQ(ct_res, p * k);
    EXPECT_EQ(ct_res, p.mul_naive(k));
  }
}

TEST(CtDifferential, VariableBaseLadderEdgeCases) {
  Drbg d(17);
  const Point p = Point::mul_gen(d.next_scalar());
  EXPECT_TRUE((p * ct::Secret<Scalar>(Scalar::zero())).is_infinity());
  EXPECT_EQ(p * ct::Secret<Scalar>(Scalar::one()), p);
  EXPECT_EQ(p * ct::Secret<Scalar>(-Scalar::one()), p.mul_naive(-Scalar::one()));
  // Infinity base is public and short-circuits.
  EXPECT_TRUE((Point::infinity() * ct::Secret<Scalar>(d.next_scalar())).is_infinity());
}

TEST(CtDifferential, TaintedSigningEquationMatchesPlain) {
  // z = d + e*rho + lambda*c*x computed over Secret<Scalar> must equal the
  // plain-Scalar computation bit for bit.
  Drbg rng(19);
  const Scalar dn = rng.next_scalar(), e = rng.next_scalar(), x = rng.next_scalar();
  const Scalar rho = rng.next_scalar(), lambda = rng.next_scalar(), c = rng.next_scalar();
  const ct::Secret<Scalar> sd(dn), se(e), sx(x);
  const Scalar z = (sd + se * rho + (lambda * c) * sx).declassify();
  EXPECT_EQ(z, dn + e * rho + lambda * c * x);
  // Unary negation propagates taint too.
  EXPECT_EQ((-sd).declassify(), -dn);
  // public-op-secret orderings.
  EXPECT_EQ((rho * sd).declassify(), rho * dn);
  EXPECT_EQ((rho + sd).declassify(), rho + dn);
  EXPECT_EQ((rho - sd).declassify(), rho - dn);
}

TEST(CtDifferential, SecretWipesOnDestruction) {
  // Destroy a Secret in place and check its storage was zeroized.
  alignas(ct::Secret<std::uint64_t>) unsigned char buf[sizeof(ct::Secret<std::uint64_t>)];
  auto* s = new (buf) ct::Secret<std::uint64_t>(0xDEADBEEFCAFEF00Dull);
  EXPECT_EQ(s->declassify(), 0xDEADBEEFCAFEF00Dull);
  s->~Secret();
  // The Secret's lifetime has ended, so gcc takes its storage for
  // indeterminate; the empty asm marks the wiped bytes as observable.
  asm volatile("" : "+m"(buf));
  std::uint64_t leftover = 1;
  std::memcpy(&leftover, buf, sizeof(leftover));
  EXPECT_EQ(leftover, 0u);
}

// ---------------------------------------------------------------------------
// Compile-time misuse: each of these must NOT compile.  A requires-
// expression over concrete types makes deleted-function use a hard error,
// so the checks go through concepts, where substitution failure is just
// "unsatisfied".  If someone un-deletes an operator, these asserts fire at
// compile time.

using SecretScalar = ct::Secret<Scalar>;

template <typename A, typename B>
concept EqComparable = requires(const A a, const B b) { a == b; };
template <typename A, typename B>
concept NeqComparable = requires(const A a, const B b) { a != b; };
template <typename A, typename B>
concept LtComparable = requires(const A a, const B b) { a < b; };
template <typename A>
concept Subscriptable = requires(const A a) { a[0]; };
template <typename A>
concept BoolCastable = requires(const A a) { static_cast<bool>(a); };

static_assert(!std::is_constructible_v<bool, SecretScalar>,
              "Secret must not convert to bool (secret-dependent branch)");
static_assert(!std::is_convertible_v<SecretScalar, bool>,
              "Secret must not convert to bool (secret-dependent branch)");
static_assert(!EqComparable<SecretScalar, SecretScalar>,
              "Secret == Secret must not compile (early-exit equality leaks)");
static_assert(!NeqComparable<SecretScalar, SecretScalar>,
              "Secret != Secret must not compile");
static_assert(!LtComparable<SecretScalar, SecretScalar>,
              "Secret < Secret must not compile (secret-dependent ordering)");
static_assert(!EqComparable<SecretScalar, Scalar>, "Secret == plain must not compile");
static_assert(!NeqComparable<SecretScalar, Scalar>, "Secret != plain must not compile");
static_assert(!Subscriptable<SecretScalar>,
              "operator[] on Secret must not compile (secret-indexed lookup)");
static_assert(!BoolCastable<SecretScalar>,
              "explicit bool cast of Secret must not compile");

// What MUST compile: classification, arithmetic in both mixed orders,
// declassification, and the ct entry points.
template <typename S, typename P>
concept TaintArithmetic = requires(const S a, const S b, const P p) {
  { a + b } -> std::same_as<S>;
  { a - b } -> std::same_as<S>;
  { a * b } -> std::same_as<S>;
  { -a } -> std::same_as<S>;
  { a * p } -> std::same_as<S>;
  { p * a } -> std::same_as<S>;
  { a + p } -> std::same_as<S>;
  { p + a } -> std::same_as<S>;
  { a.declassify() } -> std::same_as<const P&>;
};
static_assert(std::is_constructible_v<SecretScalar, Scalar>,
              "public -> secret classification is implicit");
static_assert(TaintArithmetic<SecretScalar, Scalar>,
              "taint-propagating arithmetic must stay available");

template <typename S>
concept CtMultipliable = requires(const S a, const Point p) {
  { Point::mul_gen(a) } -> std::same_as<Point>;
  { p * a } -> std::same_as<Point>;
};
static_assert(CtMultipliable<SecretScalar>, "ct scalar-mul entry points must exist");

TEST(CtTaint, MisuseIsCompileError) {
  // The static_asserts above are the real test; this keeps the suite from
  // looking empty in ctest output.
  SUCCEED();
}

}  // namespace
}  // namespace cicero::crypto
