// Differential tests for the fast scalar-multiplication kernels.
//
// The comb (mul_gen), wNAF (operator*), Strauss–Shamir (mul_gen_add) and
// Strauss multi-scalar (multi_mul) paths are all pinned to mul_naive, the
// seed 4-bit fixed-window ladder, over random scalars and the digit-pattern
// edge cases each recoding is most likely to get wrong.  Batch inversion
// and batch normalization are checked against their serial counterparts.
#include <gtest/gtest.h>

#include "crypto/drbg.hpp"
#include "crypto/group.hpp"
#include "crypto/shamir.hpp"

namespace cicero::crypto {
namespace {

Scalar scalar_from_hex(const std::string& hex) {
  return Scalar::from_u256(U256::from_hex(hex));
}

/// Scalars that stress every recoding: zero/one, the group order's
/// neighbours, single-bit and dense-bit patterns, window-boundary values,
/// and values whose wNAF digits carry across limbs.
std::vector<Scalar> edge_scalars() {
  std::vector<Scalar> out = {
      Scalar::zero(),
      Scalar::one(),
      Scalar::from_u64(2),
      Scalar::from_u64(3),
      -Scalar::one(),                // n - 1
      -Scalar::from_u64(2),          // n - 2
      scalar_from_hex("8000000000000000000000000000000000000000000000000000000000000000"),
      scalar_from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
      scalar_from_hex("ffffffffffffffff000000000000000000000000000000000000000000000000"),
      scalar_from_hex("0000000000000000000000000000000000000000000000000000000100000000"),
      // Limb boundaries: 2^64, 2^128 + 1, and runs of ones across them
      // (bits 58..68, 120..199 and 187..195).
      scalar_from_hex("10000000000000000"),
      scalar_from_hex("100000000000000000000000000000001"),
      scalar_from_hex("1ffc00000000000000"),
      scalar_from_hex("ffffffffffffffffffff000000000000000000000000000000"),
      scalar_from_hex("ff80000000000000000000000000000000000000000000000"),
  };
  // Small scalars cover every 4-bit comb digit and every width-5 wNAF digit.
  for (std::uint64_t v = 4; v <= 33; ++v) out.push_back(Scalar::from_u64(v));
  // All-ones nibbles / alternating patterns exercise carry chains (the
  // first reduces mod n on the way in).
  out.push_back(scalar_from_hex("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"));
  out.push_back(scalar_from_hex("5555555555555555555555555555555555555555555555555555555555555555"));
  out.push_back(scalar_from_hex("aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa"));
  return out;
}

TEST(EcKernels, MulGenMatchesNaiveOnEdgeCases) {
  const Point& g = Point::generator();
  for (const Scalar& k : edge_scalars()) {
    EXPECT_EQ(Point::mul_gen(k), g.mul_naive(k)) << "k = " << k.to_hex();
  }
}

TEST(EcKernels, MulGenMatchesNaiveOnRandomScalars) {
  Drbg d(101);
  const Point& g = Point::generator();
  for (int i = 0; i < 32; ++i) {
    const Scalar k = d.next_scalar();
    EXPECT_EQ(Point::mul_gen(k), g.mul_naive(k)) << "k = " << k.to_hex();
  }
}

TEST(EcKernels, WnafMatchesNaiveOnEdgeCases) {
  Drbg d(102);
  const Point p = Point::mul_gen(d.next_scalar());
  for (const Scalar& k : edge_scalars()) {
    EXPECT_EQ(p * k, p.mul_naive(k)) << "k = " << k.to_hex();
  }
}

TEST(EcKernels, WnafMatchesNaiveOnRandomScalars) {
  Drbg d(103);
  for (int i = 0; i < 32; ++i) {
    const Point p = Point::mul_gen(d.next_scalar());
    const Scalar k = d.next_scalar();
    EXPECT_EQ(p * k, p.mul_naive(k)) << "k = " << k.to_hex();
  }
}

TEST(EcKernels, WnafInfinityOperand) {
  Drbg d(104);
  EXPECT_TRUE((Point::infinity() * d.next_scalar()).is_infinity());
}

TEST(EcKernels, MulGenAddMatchesSeparateMultiplications) {
  Drbg d(105);
  const Point& g = Point::generator();
  for (int i = 0; i < 24; ++i) {
    const Point p = Point::mul_gen(d.next_scalar());
    const Scalar a = d.next_scalar(), b = d.next_scalar();
    EXPECT_EQ(Point::mul_gen_add(a, p, b), g.mul_naive(a) + p.mul_naive(b));
  }
}

TEST(EcKernels, MulGenAddEdgeCases) {
  Drbg d(106);
  const Point p = Point::mul_gen(d.next_scalar());
  const Point& g = Point::generator();
  const auto edges = edge_scalars();
  // Sweep both operands over the edge set (paired off to bound runtime).
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Scalar& a = edges[i];
    const Scalar& b = edges[edges.size() - 1 - i];
    EXPECT_EQ(Point::mul_gen_add(a, p, b), g.mul_naive(a) + p.mul_naive(b))
        << "a = " << a.to_hex() << ", b = " << b.to_hex();
  }
  // Infinity / zero operands.
  const Scalar a = Drbg(107).next_scalar();
  EXPECT_EQ(Point::mul_gen_add(a, Point::infinity(), a), Point::mul_gen(a));
  EXPECT_EQ(Point::mul_gen_add(Scalar::zero(), p, a), p.mul_naive(a));
  EXPECT_EQ(Point::mul_gen_add(a, p, Scalar::zero()), Point::mul_gen(a));
  EXPECT_TRUE(
      Point::mul_gen_add(Scalar::zero(), p, Scalar::zero()).is_infinity());
  // Cancellation: a*G + (-a)*G-as-P must hit the infinity path mid-loop.
  EXPECT_TRUE(Point::mul_gen_add(a, Point::generator(), -a).is_infinity());
}

TEST(EcKernels, MultiMulMatchesSumOfNaive) {
  Drbg d(108);
  for (int n = 0; n <= 6; ++n) {
    std::vector<Point> pts;
    std::vector<Scalar> ks;
    Point expect = Point::infinity();
    for (int i = 0; i < n; ++i) {
      pts.push_back(Point::mul_gen(d.next_scalar()));
      ks.push_back(d.next_scalar());
      expect = expect + pts.back().mul_naive(ks.back());
    }
    EXPECT_EQ(Point::multi_mul(pts, ks), expect) << "n = " << n;
  }
}

TEST(EcKernels, MultiMulSkipsInfinityAndZero) {
  Drbg d(109);
  const Point p = Point::mul_gen(d.next_scalar());
  const Scalar k = d.next_scalar();
  const std::vector<Point> pts = {Point::infinity(), p, p};
  const std::vector<Scalar> ks = {k, Scalar::zero(), k};
  EXPECT_EQ(Point::multi_mul(pts, ks), p.mul_naive(k));
  EXPECT_THROW(Point::multi_mul(pts, {k}), std::invalid_argument);
}

TEST(EcKernels, KnownMultipleViaAllPaths) {
  // 2*G public test vector must come out of every kernel identically.
  const std::string expect =
      "04"
      "c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"
      "1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a";
  const Scalar two = Scalar::from_u64(2);
  EXPECT_EQ(Point::mul_gen(two).to_hex(), expect);
  EXPECT_EQ((Point::generator() * two).to_hex(), expect);
  EXPECT_EQ(Point::mul_gen_add(two, Point::infinity(), Scalar::zero()).to_hex(), expect);
  EXPECT_EQ(Point::mul_gen_add(Scalar::one(), Point::generator(), Scalar::one()).to_hex(),
            expect);
}

TEST(EcKernels, BatchInverseMatchesSerial) {
  Drbg d(110);
  for (int n : {1, 2, 3, 7, 16, 33}) {
    std::vector<Scalar> xs;
    for (int i = 0; i < n; ++i) xs.push_back(d.next_scalar());
    std::vector<Scalar> batch = xs;
    Scalar::batch_inverse(batch);
    for (int i = 0; i < n; ++i) {
      EXPECT_EQ(batch[static_cast<std::size_t>(i)],
                xs[static_cast<std::size_t>(i)].inverse());
    }
  }
  std::vector<Scalar> empty;
  Scalar::batch_inverse(empty);  // no-op, must not throw
  EXPECT_TRUE(empty.empty());
}

TEST(EcKernels, BatchInverseRejectsZeroWithoutClobbering) {
  Drbg d(111);
  std::vector<Scalar> xs = {d.next_scalar(), Scalar::zero(), d.next_scalar()};
  const std::vector<Scalar> before = xs;
  EXPECT_THROW(Scalar::batch_inverse(xs), std::domain_error);
  EXPECT_EQ(xs[0], before[0]);
  EXPECT_EQ(xs[2], before[2]);
}

// Batch and single-point normalization both encode like to_bytes.
TEST(EcKernels, BatchToBytesMatchesSerialToBytes) {
  Drbg d(112);
  std::vector<Point> pts;
  for (int i = 0; i < 9; ++i) pts.push_back(Point::mul_gen(d.next_scalar()));
  pts.insert(pts.begin() + 3, Point::infinity());
  const auto batch = Point::batch_to_bytes(pts);
  ASSERT_EQ(batch.size(), pts.size());
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(batch[i], pts[i].to_bytes()) << "i = " << i;
    const Point affine = pts[i].normalized();
    EXPECT_EQ(affine, pts[i]) << "i = " << i;
    EXPECT_EQ(affine.to_bytes(), batch[i]) << "i = " << i;
  }
}

TEST(EcKernels, BatchNormalizePreservesValue) {
  Drbg d(113);
  std::vector<Point> pts;
  for (int i = 0; i < 7; ++i) pts.push_back(Point::mul_gen(d.next_scalar()));
  pts.push_back(Point::infinity());
  const std::vector<Point> before = pts;
  Point::batch_normalize(pts);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i], before[i]);
    EXPECT_TRUE(pts[i].on_curve());
  }
  // Normalized points must still add correctly (mixed-addition dispatch).
  EXPECT_EQ(pts[0] + pts[1], before[0] + before[1]);
}

TEST(EcKernels, LagrangeAllMatchesPerIndex) {
  const std::vector<std::vector<ShareIndex>> sets = {
      {1}, {1, 2}, {3, 1, 7}, {2, 4, 6, 8, 10}, {1, 2, 3, 5, 8, 13, 21}};
  for (const auto& indices : sets) {
    const auto all = lagrange_all_at_zero(indices);
    ASSERT_EQ(all.size(), indices.size());
    for (std::size_t i = 0; i < indices.size(); ++i) {
      EXPECT_EQ(all[i], lagrange_at_zero(indices[i], indices));
    }
  }
  EXPECT_THROW(lagrange_all_at_zero({}), std::invalid_argument);
  EXPECT_THROW(lagrange_all_at_zero({1, 0}), std::invalid_argument);
  EXPECT_THROW(lagrange_all_at_zero({3, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace cicero::crypto
