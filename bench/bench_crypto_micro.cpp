// Crypto micro-benchmarks (google-benchmark).
//
// Not a paper figure: these numbers calibrate core::CostModel (see
// DESIGN.md §4.2 and EXPERIMENTS.md "calibration") and characterise the
// from-scratch secp256k1 / threshold stack.
#include <benchmark/benchmark.h>

#include "crypto/dkg.hpp"
#include "crypto/fp.hpp"
#include "crypto/frost.hpp"
#include "crypto/schnorr.hpp"
#include "crypto/sha256.hpp"
#include "crypto/simbls.hpp"

namespace {

using namespace cicero;
using namespace cicero::crypto;

void BM_Sha256_1k(benchmark::State& state) {
  const util::Bytes data(1024, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_1k);

// Protocol messages are one to two blocks: 64 bytes pads to two.  The first
// runs the dispatched kernel (SHA-NI where the CPU has it), the second the
// portable reference.
void BM_Sha256_64B(benchmark::State& state) {
  const util::Bytes data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::hash(data));
  }
}
BENCHMARK(BM_Sha256_64B);

void BM_Sha256_Portable_64B(benchmark::State& state) {
  const util::Bytes data(64, 0xAB);
  for (auto _ : state) {
    benchmark::DoNotOptimize(detail::sha256_portable(data.data(), data.size()));
  }
}
BENCHMARK(BM_Sha256_Portable_64B);

void BM_ScalarMul(benchmark::State& state) {
  Drbg d(1);
  const Scalar a = d.next_scalar(), b = d.next_scalar();
  Scalar acc = a;
  for (auto _ : state) {
    acc = acc * b;
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_ScalarMul);

void BM_ScalarFromWide(benchmark::State& state) {
  Drbg d(4);
  std::uint8_t wide[64];
  d.generate(wide, sizeof(wide));
  for (auto _ : state) {
    benchmark::DoNotOptimize(Scalar::from_wide_bytes(wide));
  }
}
BENCHMARK(BM_ScalarFromWide);

void BM_FpMul(benchmark::State& state) {
  Drbg d(3);
  const U256 b = d.next_scalar().raw();  // < n < p
  U256 acc = d.next_scalar().raw();
  for (auto _ : state) {
    acc = Fp::mul(acc, b);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FpMul);

void BM_FpInv(benchmark::State& state) {
  Drbg d(3);
  U256 acc = d.next_scalar().raw();
  for (auto _ : state) {
    acc = Fp::inv(acc);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_FpInv);

void BM_ScalarInverse(benchmark::State& state) {
  Drbg d(2);
  const Scalar a = d.next_scalar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.inverse());
  }
}
BENCHMARK(BM_ScalarInverse);

void BM_PointMul(benchmark::State& state) {
  Drbg d(3);
  const Scalar k = d.next_scalar();
  const Point p = Point::mul_gen(d.next_scalar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p * k);
  }
}
BENCHMARK(BM_PointMul);

void BM_PointMulNaive(benchmark::State& state) {
  // The seed 4-bit fixed-window ladder, for the before/after ratio.
  Drbg d(3);
  const Scalar k = d.next_scalar();
  const Point p = Point::mul_gen(d.next_scalar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(p.mul_naive(k));
  }
}
BENCHMARK(BM_PointMulNaive);

void BM_MulGen(benchmark::State& state) {
  Drbg d(30);
  const Scalar k = d.next_scalar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Point::mul_gen(k));
  }
}
BENCHMARK(BM_MulGen);

void BM_MulGenNaive(benchmark::State& state) {
  // k*G through the seed ladder: the denominator of the mul_gen speedup.
  Drbg d(30);
  const Scalar k = d.next_scalar();
  for (auto _ : state) {
    benchmark::DoNotOptimize(Point::generator().mul_naive(k));
  }
}
BENCHMARK(BM_MulGenNaive);

void BM_DoubleScalarMul(benchmark::State& state) {
  // a*G + b*P via Strauss–Shamir: the signature-verification kernel.
  Drbg d(31);
  const Scalar a = d.next_scalar(), b = d.next_scalar();
  const Point p = Point::mul_gen(d.next_scalar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Point::mul_gen_add(a, p, b));
  }
}
BENCHMARK(BM_DoubleScalarMul);

void BM_LagrangeAll(benchmark::State& state) {
  const auto t = static_cast<std::size_t>(state.range(0));
  std::vector<ShareIndex> indices;
  for (std::size_t i = 1; i <= t; ++i) indices.push_back(static_cast<ShareIndex>(2 * i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(lagrange_all_at_zero(indices));
  }
}
BENCHMARK(BM_LagrangeAll)->Arg(3)->Arg(7)->Arg(13);

void BM_LagrangeSerial(benchmark::State& state) {
  // One lagrange_at_zero (and thus one inversion) per index: the pattern
  // the seed aggregation loops used.
  const auto t = static_cast<std::size_t>(state.range(0));
  std::vector<ShareIndex> indices;
  for (std::size_t i = 1; i <= t; ++i) indices.push_back(static_cast<ShareIndex>(2 * i));
  for (auto _ : state) {
    std::vector<Scalar> out;
    for (const ShareIndex i : indices) out.push_back(lagrange_at_zero(i, indices));
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_LagrangeSerial)->Arg(3)->Arg(7)->Arg(13);

void BM_BatchToAffine(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Drbg d(32);
  std::vector<Point> pts;
  for (std::size_t i = 0; i < n; ++i) pts.push_back(Point::mul_gen(d.next_scalar()) * d.next_scalar());
  for (auto _ : state) {
    benchmark::DoNotOptimize(Point::batch_to_bytes(pts));
  }
}
BENCHMARK(BM_BatchToAffine)->Arg(4)->Arg(16)->Arg(64);

void BM_SchnorrSign(benchmark::State& state) {
  Drbg d(4);
  const auto kp = SchnorrKeyPair::generate(d);
  const util::Bytes msg = util::to_bytes("event: unroutable packet at s17");
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_sign(kp.sk, msg));
  }
}
BENCHMARK(BM_SchnorrSign);

void BM_SchnorrVerify(benchmark::State& state) {
  Drbg d(5);
  const auto kp = SchnorrKeyPair::generate(d);
  const util::Bytes msg = util::to_bytes("event: unroutable packet at s17");
  const auto sig = schnorr_sign(kp.sk, msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(schnorr_verify(kp.pk, msg, sig));
  }
}
BENCHMARK(BM_SchnorrVerify);

struct ThresholdSetup {
  std::vector<DkgParticipant::Result> results;
  util::Bytes msg = util::to_bytes("update: install r at s");
  explicit ThresholdSetup(std::size_t n, std::size_t t) {
    Drbg d(6);
    std::vector<ShareIndex> members;
    for (std::size_t i = 1; i <= n; ++i) members.push_back(static_cast<ShareIndex>(i));
    results = run_dkg(members, t, d);
  }
};

void BM_SimBlsPartialSign(benchmark::State& state) {
  static const ThresholdSetup setup(4, 2);
  const auto& scheme = SimBlsScheme::instance();
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.partial_sign(setup.results[0].share, setup.msg));
  }
}
BENCHMARK(BM_SimBlsPartialSign);

void BM_SimBlsAggregate(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t t = (n - 1) / 3 + 1;
  const ThresholdSetup setup(n, t);
  const auto& scheme = SimBlsScheme::instance();
  std::vector<PartialSignature> partials;
  for (std::size_t i = 0; i < t; ++i) {
    partials.push_back(scheme.partial_sign(setup.results[i].share, setup.msg));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheme.aggregate(setup.msg, partials, t));
  }
}
BENCHMARK(BM_SimBlsAggregate)->Arg(4)->Arg(7)->Arg(10)->Arg(13);

void BM_SimBlsVerify(benchmark::State& state) {
  static const ThresholdSetup setup(4, 2);
  const auto& scheme = SimBlsScheme::instance();
  std::vector<PartialSignature> partials;
  for (std::size_t i = 0; i < 2; ++i) {
    partials.push_back(scheme.partial_sign(setup.results[i].share, setup.msg));
  }
  const auto agg = scheme.aggregate(setup.msg, partials, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        scheme.verify(setup.results[0].group_public_key, setup.msg, *agg));
  }
}
BENCHMARK(BM_SimBlsVerify);

void BM_FrostSignSession(benchmark::State& state) {
  static const ThresholdSetup setup(4, 3);
  Drbg d(7);
  std::vector<FrostSigner> signers;
  for (int i = 0; i < 3; ++i) {
    signers.emplace_back(setup.results[static_cast<std::size_t>(i)].share,
                         setup.results[0].group_public_key);
  }
  for (auto _ : state) {
    std::vector<FrostCommitment> session;
    for (auto& s : signers) session.push_back(s.commit(d));
    std::map<ShareIndex, Scalar> partials;
    for (auto& s : signers) partials[s.id()] = s.sign(setup.msg, session);
    benchmark::DoNotOptimize(
        frost_aggregate(setup.msg, session, setup.results[0].group_public_key, partials));
  }
}
BENCHMARK(BM_FrostSignSession);

void BM_Dkg(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t t = (n - 1) / 3 + 1;
  Drbg d(8);
  std::vector<ShareIndex> members;
  for (std::size_t i = 1; i <= n; ++i) members.push_back(static_cast<ShareIndex>(i));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_dkg(members, t, d));
  }
}
BENCHMARK(BM_Dkg)->Arg(4)->Arg(7)->Unit(benchmark::kMillisecond);

void BM_Reshare(benchmark::State& state) {
  static const ThresholdSetup setup(4, 2);
  Drbg d(9);
  const std::vector<ShareIndex> quorum = {1, 2};
  const std::vector<ShareIndex> new_members = {1, 2, 3, 4, 5};
  for (auto _ : state) {
    std::vector<ReshareDeal> deals;
    deals.push_back(make_reshare_deal(setup.results[0].share, quorum, new_members, 2, d));
    deals.push_back(make_reshare_deal(setup.results[1].share, quorum, new_members, 2, d));
    benchmark::DoNotOptimize(reshare_finalize(deals, 5, new_members));
  }
}
BENCHMARK(BM_Reshare)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
