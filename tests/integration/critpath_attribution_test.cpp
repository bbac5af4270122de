// Critical-path attribution contract under chaos: with 10 % uniform loss
// the profiler must still attribute (essentially) all of every completed
// update's end-to-end latency to the six named phases, and the
// `critical_path` report section must be bit-identical across seeds
// re-run and across hash-salt values — attribution is a pure
// function of the simulated history, never of wall clock, thread count
// or hash-table placement.  Runs under `ctest -L consistency`.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "integration/helpers.hpp"
#include "obs/report.hpp"
#include "util/flat_hash.hpp"
#include "workload/topo_gen.hpp"

namespace cicero {
namespace {

using core::Deployment;
using core::DeploymentParams;
using core::FrameworkKind;

constexpr std::uint64_t kAltSalt = 0x9E3779B97F4A7C15ULL;

std::unique_ptr<Deployment> chaos_deployment(std::uint64_t seed) {
  DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;
  dp.controllers_per_domain = 4;
  dp.real_crypto = false;
  dp.seed = seed;
  auto dep = std::make_unique<Deployment>(net::build_pod(testing::small_pod()), dp);
  dep->faults().set_uniform_loss(0.10);
  return dep;
}

obs::CritPath::Summary run_chaos_summary(std::uint64_t seed, std::uint64_t salt) {
  util::ScopedHashSalt guard(salt);
  auto dep = chaos_deployment(seed);
  dep->inject(testing::small_workload(dep->topology(), 12));
  dep->run(sim::seconds(90));
  return dep->obs().critpath.summarize();
}

/// Serializes ONLY the critical_path section (no shard telemetry — that
/// carries wall-clock barrier waits and is legitimately nondeterministic).
std::string critpath_json(std::uint64_t seed, std::uint64_t salt) {
  obs::RunReport report("critpath_attribution");
  report.add_critical_path("chaos", run_chaos_summary(seed, salt));
  return report.to_json();
}

TEST(CritPathAttribution, ChaosLossAttributesAtLeast95Percent) {
  const obs::CritPath::Summary s = run_chaos_summary(/*seed=*/1, /*salt=*/0);
  ASSERT_GT(s.completed, 0u);
  // The clamp construction makes attribution exact, so the 95 % floor
  // from the acceptance criteria holds with margin.
  EXPECT_GE(s.attributed_min, 0.95);
  EXPECT_LE(s.attributed_min, 1.0 + 1e-9);
  EXPECT_GE(s.attributed_mean, s.attributed_min);
  // Ten percent loss over the whole run must surface as retransmission
  // stalls somewhere: either attributed time or resend bytes.
  const auto& retrans = s.phases[static_cast<std::size_t>(obs::CritPhase::kRetransmit)];
  EXPECT_GT(retrans.total_ms + static_cast<double>(retrans.bytes), 0.0);
  // Phase totals partition the end-to-end total.
  double phase_sum = 0.0;
  for (const auto& p : s.phases) phase_sum += p.total_ms;
  EXPECT_NEAR(phase_sum, s.end_to_end_total_ms,
              1e-6 * std::max(1.0, s.end_to_end_total_ms));
}

TEST(CritPathAttribution, SummaryBitIdenticalAcrossReruns) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string a = critpath_json(seed, 0);
    const std::string b = critpath_json(seed, 0);
    ASSERT_FALSE(a.empty());
    ASSERT_EQ(a, b) << "critical_path section not reproducible (seed " << seed << ")";
  }
}

TEST(CritPathAttribution, SummaryBitIdenticalAcrossHashSalts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string base = critpath_json(seed, 0);
    const std::string salted = critpath_json(seed, kAltSalt);
    ASSERT_FALSE(base.empty());
    ASSERT_EQ(base, salted)
        << "critical_path depends on hash placement order (seed " << seed << ")";
  }
}

TEST(CritPathAttribution, DifferentSeedsProduceDifferentPathsButSameInvariants) {
  const obs::CritPath::Summary a = run_chaos_summary(1, 0);
  const obs::CritPath::Summary b = run_chaos_summary(2, 0);
  ASSERT_GT(a.completed, 0u);
  ASSERT_GT(b.completed, 0u);
  // Loss draws differ, so the measured paths should too — this guards
  // against the profiler accidentally recording constants.
  EXPECT_NE(a.end_to_end_total_ms, b.end_to_end_total_ms);
  for (const obs::CritPath::Summary* s : {&a, &b}) {
    EXPECT_GE(s->attributed_min, 0.95);
    EXPECT_GE(s->end_to_end_p99_ms, s->end_to_end_p50_ms);
  }
}

}  // namespace
}  // namespace cicero
