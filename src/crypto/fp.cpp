#include "crypto/fp.hpp"

#include <stdexcept>
#include <vector>

namespace cicero::crypto {

namespace {

/// a^(2^k): k squarings.
U256 sqr_n(U256 a, int k) {
  for (int i = 0; i < k; ++i) a = Fp::sqr(a);
  return a;
}

template <typename F>
void batch_inv_impl(U256* xs, std::size_t n, const char* what) {
  if (n == 0) return;
  // Prefix products: prefix[i] = xs[0] * ... * xs[i].
  std::vector<U256> prefix(n);
  prefix[0] = xs[0];
  for (std::size_t i = 1; i < n; ++i) prefix[i] = F::mul(prefix[i - 1], xs[i]);
  if (prefix[n - 1].is_zero()) {
    // Some element is zero; report without clobbering the inputs.
    throw std::domain_error(what);
  }
  // acc = (xs[0] * ... * xs[n-1])^-1, peeled back one element at a time:
  // xs[i]^-1 = acc * prefix[i-1], then acc *= xs[i] (pre-update value).
  U256 acc = F::inv(prefix[n - 1]);
  for (std::size_t i = n; i-- > 1;) {
    const U256 x = xs[i];
    xs[i] = F::mul(acc, prefix[i - 1]);
    acc = F::mul(acc, x);
  }
  xs[0] = acc;
}

}  // namespace

U256 Fp::inv(const U256& a) {
  if (a.is_zero()) throw std::domain_error("Fp::inv: zero has no inverse");
  // p - 2 is, from the top: 223 ones, a zero, 22 ones, then 0000101101.
  // xk = a^(2^k - 1) for the block lengths chained below:
  // [1], [2], 3, 6, 9, 11, [22], 44, 88, 176, 220, [223].
  const U256 x2 = Fp::mul(Fp::sqr(a), a);
  const U256 x3 = Fp::mul(Fp::sqr(x2), a);
  const U256 x6 = Fp::mul(sqr_n(x3, 3), x3);
  const U256 x9 = Fp::mul(sqr_n(x6, 3), x3);
  const U256 x11 = Fp::mul(sqr_n(x9, 2), x2);
  const U256 x22 = Fp::mul(sqr_n(x11, 11), x11);
  const U256 x44 = Fp::mul(sqr_n(x22, 22), x22);
  const U256 x88 = Fp::mul(sqr_n(x44, 44), x44);
  const U256 x176 = Fp::mul(sqr_n(x88, 88), x88);
  const U256 x220 = Fp::mul(sqr_n(x176, 44), x44);
  const U256 x223 = Fp::mul(sqr_n(x220, 3), x3);
  // Slide the assembled blocks over the low 33 bits of p - 2.
  U256 r = Fp::mul(sqr_n(x223, 23), x22);
  r = Fp::mul(sqr_n(r, 5), a);
  r = Fp::mul(sqr_n(r, 3), x2);
  return Fp::mul(sqr_n(r, 2), a);
}

void Fp::batch_inv(U256* xs, std::size_t n) {
  batch_inv_impl<Fp>(xs, n, "Fp::batch_inv: zero element");
}

U256 Fn::inv(const U256& a) {
  if (a.is_zero()) throw std::domain_error("Fn::inv: zero has no inverse");
  // Left-to-right square-and-multiply.  The branch reads bits of the
  // constant n - 2, never of `a`, so the schedule is the same every call.
  static constexpr U256 kExp{Fn::kModulus.w[0] - 2, Fn::kModulus.w[1], Fn::kModulus.w[2],
                             Fn::kModulus.w[3]};
  U256 r = a;  // bit 255 of n - 2 is set
  for (int i = 254; i >= 0; --i) {
    r = Fn::sqr(r);
    if (kExp.bit(static_cast<unsigned>(i))) r = Fn::mul(r, a);
  }
  return r;
}

void Fn::batch_inv(U256* xs, std::size_t n) {
  batch_inv_impl<Fn>(xs, n, "Fn::batch_inv: zero element");
}

}  // namespace cicero::crypto
