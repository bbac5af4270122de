// Hash-salt sweep: a dynamic proof that no run output depends on
// flat-hash iteration (placement) order.  The hash salt perturbs only
// where keys land in FlatHashMap/FlatHashSet slot arrays — never RNG
// seeding or any simulated quantity — so the same scenario run under two
// different salts must produce bit-identical `cicero-run-report/v1` JSON.
// A divergence means some code path leaked table placement order into an
// observable (event emission order, float accumulation order, report
// content) and slipped past simlint's static unordered-iter rule.  Runs
// under `ctest -L consistency`; DESIGN.md §13 documents the policy.
#include <gtest/gtest.h>

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

// An arbitrary odd 64-bit constant, far from the default 0: with the
// SplitMix64 finalizer behind it, any nonzero salt reshuffles every
// table's slot assignment.
constexpr std::uint64_t kAltSalt = 0x9E3779B97F4A7C15ULL;

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
  obs::RunReport report("hash_salt_sweep");
  report.set_meta("seed", static_cast<std::int64_t>(seed));
  report.add_metrics(dep.obs().metrics);
  report.add_cdf("completion_ms", dep.completion_cdf());
  report.add_cdf("setup_ms", dep.setup_cdf());
  return report.to_json();
}

/// Chaos scenario under `salt`: paper pod with 10 % uniform loss, so the
/// fault injector's flat-hash rule tables and the retransmission paths
/// are all exercised with the perturbed placement.
std::string run_chaos(std::uint64_t seed, std::uint64_t salt) {
  util::ScopedHashSalt guard(salt);
  auto dep = seeded_deployment(net::build_pod(testing::small_pod()), seed);
  dep->faults().set_uniform_loss(0.10);
  const auto flows = testing::small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(90));
  return report_json(*dep, seed);
}

/// Scale scenario under `salt`: fat-tree fabric with the uniform scale
/// workload — thousands of flow-table entries, so placement order
/// differs wildly between salts.
std::string run_scale(std::uint64_t seed, std::uint64_t salt) {
  util::ScopedHashSalt guard(salt);
  auto dep = seeded_deployment(workload::fat_tree(4), seed);
  const auto flows = workload::scale_flows(dep->topology(), 12, 300.0, seed);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  return report_json(*dep, seed);
}

/// In-network scenario under `salt`: the aggregator switch's pending
/// buckets and replay cache are keyed maps — their placement must never
/// leak into fan-out order or the report.
std::string run_innet(std::uint64_t seed, std::uint64_t salt) {
  util::ScopedHashSalt guard(salt);
  auto dep = seeded_deployment(net::build_pod(testing::small_pod()), seed,
                               core::AggregationMode::kInNetwork);
  dep->faults().set_uniform_loss(0.10);
  const auto flows = testing::small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(90));
  return report_json(*dep, seed);
}

TEST(HashSaltSweep, ChaosScenarioBitIdenticalAcrossSalts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string base = run_chaos(seed, 0);
    const std::string salted = run_chaos(seed, kAltSalt);
    ASSERT_FALSE(base.empty());
    ASSERT_EQ(base, salted)
        << "chaos run report depends on hash placement order (seed " << seed << ")";
  }
}

TEST(HashSaltSweep, ScaleScenarioBitIdenticalAcrossSalts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string base = run_scale(seed, 0);
    const std::string salted = run_scale(seed, kAltSalt);
    ASSERT_FALSE(base.empty());
    ASSERT_EQ(base, salted)
        << "scale run report depends on hash placement order (seed " << seed << ")";
  }
}

TEST(HashSaltSweep, InNetworkScenarioBitIdenticalAcrossSalts) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const std::string base = run_innet(seed, 0);
    const std::string salted = run_innet(seed, kAltSalt);
    ASSERT_FALSE(base.empty());
    ASSERT_EQ(base, salted)
        << "in-network run report depends on hash placement order (seed " << seed << ")";
  }
}

}  // namespace
}  // namespace cicero
