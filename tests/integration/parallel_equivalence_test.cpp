// Parallel-mode outcome equivalence: the same scenario driven with
// threads=N and threads=1 must produce identical protocol outcomes —
// the same set of completed flows and fully drained dependency trackers
// — even though the N-thread run interleaves domains differently.
// Also covers the degenerate configurations that must silently take the
// sequential fast path, and the ones that are rejected outright.
//
// Labeled `parallel` in ctest; the ThreadSanitizer CI job runs exactly
// this label.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <stdexcept>
#include <vector>

#include "integration/helpers.hpp"
#include "workload/topo_gen.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;

// Cost-model crypto by default: these runs stress scale, not crypto.
std::unique_ptr<core::Deployment> make_dep(FrameworkKind fw, net::Topology topo,
                                           std::uint32_t threads,
                                           std::size_t controllers = 4,
                                           bool real_crypto = false) {
  core::DeploymentParams dp;
  dp.framework = fw;
  dp.controllers_per_domain = controllers;
  dp.real_crypto = real_crypto;
  dp.seed = 12345;
  dp.threads = threads;
  return std::make_unique<core::Deployment>(std::move(topo), dp);
}

net::Topology pod_fabric() {
  workload::FatTreeOptions opt;
  opt.domain_per_pod = true;  // 4 pod domains + the core domain
  return workload::fat_tree(4, opt);
}

net::Topology region_wan(std::uint32_t n = 96) {
  workload::WanOptions opt;
  opt.domain_per_region = true;  // one domain per 32 switches
  return workload::wan(n, opt);
}

std::vector<workload::Flow> scenario_flows(const net::Topology& topo, std::size_t count,
                                           std::uint64_t seed = 7) {
  return workload::scale_flows(topo, count, /*rate=*/300.0, seed);
}

std::set<std::size_t> completed_set(const core::Deployment& dep) {
  std::set<std::size_t> done;
  const auto& records = dep.flow_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].completed) done.insert(i);
  }
  return done;
}

// --- outcome equivalence -------------------------------------------------

TEST(ParallelEquivalence, FatTreeOutcomesMatchSequential) {
  const auto run_mode = [](std::uint32_t threads) {
    auto dep = make_dep(FrameworkKind::kCicero, pod_fabric(), threads);
    EXPECT_EQ(dep->parallel_mode(), threads > 1);
    const auto flows = scenario_flows(dep->topology(), 60);
    dep->inject(flows);
    dep->run(sim::seconds(30));
    EXPECT_EQ(dep->pending_updates(), 0u);
    return completed_set(*dep);
  };
  const auto seq = run_mode(1);
  const auto par = run_mode(4);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

TEST(ParallelEquivalence, WanOutcomesMatchSequentialAcrossSeeds) {
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    const auto run_mode = [seed](std::uint32_t threads) {
      auto dep = make_dep(FrameworkKind::kCicero, region_wan(), threads);
      const auto flows = scenario_flows(dep->topology(), 40, seed);
      dep->inject(flows);
      dep->run(sim::seconds(30));
      EXPECT_EQ(dep->pending_updates(), 0u);
      return completed_set(*dep);
    };
    const auto seq = run_mode(1);
    const auto par = run_mode(3);
    EXPECT_FALSE(seq.empty()) << "seed " << seed;
    EXPECT_EQ(seq, par) << "seed " << seed;
  }
}

TEST(ParallelEquivalence, RealCryptoOutcomesMatchSequential) {
  // Two domains verifying switch signatures on their own shards share the
  // deployment's PKI verification memo.
  const auto run_mode = [](std::uint32_t threads) {
    auto dep = make_dep(FrameworkKind::kCicero, region_wan(64), threads, 4, /*real_crypto=*/true);
    EXPECT_EQ(dep->topology().domains().size(), 2u);
    EXPECT_EQ(dep->parallel_mode(), threads > 1);
    const auto flows = scenario_flows(dep->topology(), 20);
    dep->inject(flows);
    dep->run(sim::seconds(30));
    EXPECT_EQ(dep->pending_updates(), 0u);
    EXPECT_GT(*dep->obs().metrics.gauges().at("crypto.verify_memo_hits"), 0.0);
    return completed_set(*dep);
  };
  const auto seq = run_mode(1);
  const auto par = run_mode(4);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

TEST(ParallelEquivalence, ChaosLossCompletesAllFlowsInBothModes) {
  // 8% uniform loss.  The parallel run shards the drop RNG, so the two
  // modes lose *different* messages — but retransmission must land every
  // flow and drain every tracker either way.
  const auto run_mode = [](std::uint32_t threads) {
    auto dep = make_dep(FrameworkKind::kCicero, pod_fabric(), threads);
    dep->faults().set_uniform_loss(0.08);
    const auto flows = scenario_flows(dep->topology(), 30);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    EXPECT_GT(dep->faults().dropped_loss(), 0u);  // the loss did bite
    EXPECT_EQ(completed_count(*dep), flows.size());
    EXPECT_EQ(dep->pending_updates(), 0u);
    return completed_set(*dep);
  };
  const auto seq = run_mode(1);
  const auto par = run_mode(4);
  EXPECT_EQ(seq, par);  // both = all flows
}

TEST(ParallelEquivalence, ParallelRunIsDeterministicRunToRun) {
  // Same scenario, threads=4, twice: identical completion sets AND
  // identical per-flow timestamps (parallel-mode self-determinism).
  const auto run_once = [] {
    auto dep = make_dep(FrameworkKind::kCicero, region_wan(), 4);
    dep->faults().set_uniform_loss(0.05);
    const auto flows = scenario_flows(dep->topology(), 30);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    std::vector<std::pair<sim::SimTime, sim::SimTime>> stamps;
    for (const auto& r : dep->flow_records()) {
      stamps.emplace_back(r.route_ready, r.completion);
    }
    return stamps;
  };
  EXPECT_EQ(run_once(), run_once());
}

// --- observability across modes ------------------------------------------

TEST(ParallelEquivalence, CriticalPathAttributionPropertiesMatchSequential) {
  // The parallel run shards the RNG, so the measured paths differ from
  // the sequential run's — but the attribution *properties* must hold
  // identically in both modes: same completed-update count, full
  // attribution, and phase totals that partition the end-to-end total.
  const auto run_mode = [](std::uint32_t threads) {
    auto dep = make_dep(FrameworkKind::kCicero, pod_fabric(), threads);
    dep->faults().set_uniform_loss(0.08);
    const auto flows = scenario_flows(dep->topology(), 30);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    EXPECT_EQ(completed_count(*dep), flows.size());
    return dep->obs().critpath.summarize();
  };
  const obs::CritPath::Summary seq = run_mode(1);
  const obs::CritPath::Summary par = run_mode(4);
  ASSERT_GT(seq.completed, 0u);
  EXPECT_EQ(seq.completed, par.completed);
  EXPECT_EQ(seq.incomplete, par.incomplete);
  for (const obs::CritPath::Summary* s : {&seq, &par}) {
    EXPECT_GE(s->attributed_min, 0.95);
    EXPECT_LE(s->attributed_min, 1.0 + 1e-9);
    double phase_sum = 0.0;
    for (const auto& p : s->phases) phase_sum += p.total_ms;
    EXPECT_NEAR(phase_sum, s->end_to_end_total_ms,
                1e-6 * std::max(1.0, s->end_to_end_total_ms));
  }
}

TEST(ParallelEquivalence, ShardTelemetryCoversEveryWorkerShard) {
  auto dep = make_dep(FrameworkKind::kCicero, pod_fabric(), 4);
  ASSERT_TRUE(dep->parallel_mode());
  const auto flows = scenario_flows(dep->topology(), 40);
  dep->inject(flows);
  dep->run(sim::seconds(30));

  const auto rows = dep->shard_telemetry();
  ASSERT_EQ(rows.size(), dep->worker_shards());
  std::uint64_t events = 0, posts_in = 0, posts_out = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].shard, static_cast<std::uint32_t>(i));
    EXPECT_LE(rows[i].stall_windows, rows[i].windows);
    events += rows[i].events;
    posts_in += rows[i].posts_in;
    posts_out += rows[i].posts_out;
  }
  EXPECT_GT(events, 0u);
  // Every cross-shard event leaves one shard and lands in another.
  EXPECT_EQ(posts_in, posts_out);
}

TEST(ParallelEquivalence, SequentialTelemetryIsOneFullyUtilizedShard) {
  auto dep = make_dep(FrameworkKind::kCicero, pod_fabric(), 1);
  const auto flows = scenario_flows(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(30));
  const auto rows = dep->shard_telemetry();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].windows, 0u);
  EXPECT_EQ(rows[0].posts_in, 0u);
  EXPECT_EQ(rows[0].posts_out, 0u);
  EXPECT_GT(rows[0].events, 0u);
}

// --- degenerate configurations ------------------------------------------

TEST(ParallelEquivalence, SingleDomainTopologyTakesSequentialFastPath) {
  // Default fat_tree has one control domain: nothing to shard, so
  // threads=4 must silently degenerate to the sequential engine.
  auto dep = make_dep(FrameworkKind::kCicero, workload::fat_tree(4), 4);
  EXPECT_FALSE(dep->parallel_mode());
  EXPECT_EQ(dep->worker_shards(), 1u);
  const auto flows = scenario_flows(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(30));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(ParallelEquivalence, GlobalControlPlaneTakesSequentialFastPath) {
  // The centralized baseline has one global plane spanning all domains:
  // every update crosses it, so it degenerates to sequential too.
  auto dep = make_dep(FrameworkKind::kCentralized, pod_fabric(), 4, 1);
  EXPECT_FALSE(dep->parallel_mode());
  const auto flows = scenario_flows(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(30));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(ParallelEquivalence, ThreadsEqualOneIsUntouchedSequentialEngine) {
  auto dep = make_dep(FrameworkKind::kCicero, pod_fabric(), 1);
  EXPECT_FALSE(dep->parallel_mode());
  EXPECT_EQ(dep->parallel_engine(), nullptr);
}

// --- rejected configurations --------------------------------------------

TEST(ParallelEquivalence, TracingRequiresSequentialMode) {
  core::DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;
  dp.real_crypto = false;
  dp.trace = true;
  dp.threads = 4;
  EXPECT_THROW(core::Deployment(pod_fabric(), dp), std::invalid_argument);
}

TEST(ParallelEquivalence, MembershipChangesRequireSequentialMode) {
  auto dep = make_dep(FrameworkKind::kCicero, pod_fabric(), 4);
  ASSERT_TRUE(dep->parallel_mode());
  EXPECT_THROW(dep->add_controller(0), std::logic_error);
  EXPECT_THROW(dep->remove_controller(0), std::logic_error);
}

}  // namespace
}  // namespace cicero
