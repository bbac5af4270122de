// Determinism seed sweep: the whole pipeline — simulator heap, flat-hash
// containers, scheduler, fault injector — must be a pure function of the
// seed.  For 8 seeds, each scenario runs twice and the two runs' full
// `cicero-run-report/v1` JSON documents (every counter, gauge, histogram
// bucket and CDF point) must be bit-identical.  This is the contract that
// makes chaos failures replayable from a one-line seed report.  Runs
// under `ctest -L consistency`.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "integration/helpers.hpp"
#include "obs/report.hpp"
#include "workload/topo_gen.hpp"

namespace cicero {
namespace {

using core::Deployment;
using core::DeploymentParams;
using core::FrameworkKind;

std::unique_ptr<Deployment> seeded_deployment(
    net::Topology topo, std::uint64_t seed,
    core::AggregationMode agg = core::AggregationMode::kNone) {
  DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;
  dp.aggregation = agg;
  dp.controllers_per_domain = 4;
  dp.real_crypto = false;
  dp.seed = seed;
  return std::make_unique<Deployment>(std::move(topo), dp);
}

/// Serializes one finished run into the canonical report JSON.
std::string report_json(Deployment& dep, std::uint64_t seed) {
  obs::RunReport report("determinism_sweep");
  report.set_meta("seed", static_cast<std::int64_t>(seed));
  report.add_metrics(dep.obs().metrics);
  report.add_cdf("completion_ms", dep.completion_cdf());
  report.add_cdf("setup_ms", dep.setup_cdf());
  return report.to_json();
}

/// Chaos scenario: paper pod under 10 % uniform loss (retransmission
/// paths active, loss draws part of the seeded stream).
std::string run_chaos(std::uint64_t seed) {
  auto dep = seeded_deployment(net::build_pod(testing::small_pod()), seed);
  dep->faults().set_uniform_loss(0.10);
  const auto flows = testing::small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(90));
  return report_json(*dep, seed);
}

/// Scale scenario: fat-tree fabric with the uniform scale workload (the
/// bench_scale shape at sanitizer-friendly size).
std::string run_scale(std::uint64_t seed) {
  auto dep = seeded_deployment(workload::fat_tree(4), seed);
  const auto flows = workload::scale_flows(dep->topology(), 12, 300.0, seed);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  return report_json(*dep, seed);
}

/// In-network scenario: the aggregation offload under the same 10 %
/// loss — partial-share fast path, ack-timeout escalation and fan-out
/// replay all draw from the seeded streams.
std::string run_innet(std::uint64_t seed) {
  auto dep = seeded_deployment(net::build_pod(testing::small_pod()), seed,
                               core::AggregationMode::kInNetwork);
  dep->faults().set_uniform_loss(0.10);
  const auto flows = testing::small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(90));
  return report_json(*dep, seed);
}

TEST(DeterminismSweep, ChaosScenarioBitIdenticalAcrossEightSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string first = run_chaos(seed);
    const std::string second = run_chaos(seed);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first, second) << "chaos run report diverged for seed " << seed;
  }
}

TEST(DeterminismSweep, ScaleScenarioBitIdenticalAcrossEightSeeds) {
  std::string previous;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string first = run_scale(seed);
    const std::string second = run_scale(seed);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first, second) << "scale run report diverged for seed " << seed;
    // Different seeds must actually produce different runs — otherwise
    // this suite would pass vacuously with the seed being ignored.
    if (!previous.empty()) {
      EXPECT_NE(first, previous) << "seed " << seed << " ignored";
    }
    previous = first;
  }
}

TEST(DeterminismSweep, InNetworkScenarioBitIdenticalAcrossEightSeeds) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    const std::string first = run_innet(seed);
    const std::string second = run_innet(seed);
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first, second) << "in-network run report diverged for seed " << seed;
  }
}

}  // namespace
}  // namespace cicero
