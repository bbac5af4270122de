// In-network-aggregation equivalence: for every seed, under loss, on
// the sharded parallel engine (threads=4), the kInNetwork offload must
// land the exact same set of completed flows as plain kCicero with
// fully drained trackers, and an in-network run, sequential or parallel,
// must be bit-identical to its own rerun — the aggregator fast path,
// escalation and failover are all inside the deterministic simulation.
// Runs under `ctest -L consistency`.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "integration/helpers.hpp"
#include "workload/topo_gen.hpp"

namespace cicero {
namespace {

using core::AggregationMode;
using core::FrameworkKind;
using testing::abandoned_count;
using testing::completed_count;

std::unique_ptr<core::Deployment> make_dep(AggregationMode agg, std::uint64_t seed,
                                           std::uint32_t threads) {
  core::DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;
  dp.aggregation = agg;
  dp.real_crypto = false;  // cost-model mode: these runs stress outcomes, not crypto
  dp.seed = seed;
  dp.threads = threads;
  workload::FatTreeOptions opt;
  opt.domain_per_pod = true;  // multi-domain, so threads=4 really shards
  return std::make_unique<core::Deployment>(workload::fat_tree(4, opt), dp);
}

std::set<std::size_t> completed_set(const core::Deployment& dep) {
  std::set<std::size_t> done;
  const auto& records = dep.flow_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].completed) done.insert(i);
  }
  return done;
}

TEST(InNetworkEquivalence, SameCompletionSetsUnderLossAcrossSeeds) {
  // 10% loss, threads=4.  The two modes lose different messages (the
  // offload's send pattern differs radically), but both must recover
  // every flow — identical completion sets, nothing stranded, for every
  // seed.  Each domain shard runs its own designated aggregator.
  for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
    const auto run_mode = [seed](AggregationMode agg) {
      auto dep = make_dep(agg, seed, /*threads=*/4);
      dep->faults().set_uniform_loss(0.10);
      const auto flows = workload::scale_flows(dep->topology(), 30, /*rate=*/300.0, seed);
      dep->inject(flows);
      dep->run(sim::seconds(120));
      EXPECT_EQ(completed_count(*dep), flows.size()) << "seed " << seed;
      EXPECT_EQ(dep->pending_updates(), 0u) << "seed " << seed;
      EXPECT_EQ(abandoned_count(*dep), 0u) << "seed " << seed;
      return completed_set(*dep);
    };
    const auto baseline = run_mode(AggregationMode::kNone);
    const auto innet = run_mode(AggregationMode::kInNetwork);
    EXPECT_FALSE(baseline.empty()) << "seed " << seed;
    EXPECT_EQ(baseline, innet) << "seed " << seed;
  }
}

TEST(InNetworkEquivalence, RerunIsBitIdentical) {
  // An in-network run, sequential or parallel, is a pure function of its
  // seeds: same per-flow timestamps, same message/drop/fan-out counts,
  // run to run.
  const auto run_once = [](std::uint32_t threads) {
    auto dep = make_dep(AggregationMode::kInNetwork, 777, threads);
    dep->faults().set_uniform_loss(0.05);
    const auto flows = workload::scale_flows(dep->topology(), 30, /*rate=*/300.0, 7);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    std::vector<std::pair<sim::SimTime, sim::SimTime>> stamps;
    for (const auto& r : dep->flow_records()) {
      stamps.emplace_back(r.route_ready, r.completion);
    }
    std::uint64_t fanouts = 0;
    for (const net::NodeIndex sw : dep->topology().switches()) {
      fanouts += dep->switch_at(sw).agg_fanouts();
    }
    stamps.emplace_back(static_cast<sim::SimTime>(dep->faults().dropped_total()),
                        static_cast<sim::SimTime>(dep->network().messages_sent()));
    stamps.emplace_back(static_cast<sim::SimTime>(fanouts), 0);
    return stamps;
  };
  for (const std::uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(run_once(threads), run_once(threads)) << "threads " << threads;
  }
}

TEST(InNetworkEquivalence, ThreadsDoNotChangeTheOutcome) {
  // threads=4 vs the sequential engine on the same seeds: the sharded
  // run must complete the same flow set (domain-sharded aggregators
  // included) with drained trackers.
  const auto run_threads = [](std::uint32_t threads) {
    auto dep = make_dep(AggregationMode::kInNetwork, 4242, threads);
    const auto flows = workload::scale_flows(dep->topology(), 30, /*rate=*/300.0, 11);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    EXPECT_EQ(dep->pending_updates(), 0u) << "threads " << threads;
    return completed_set(*dep);
  };
  const auto seq = run_threads(1);
  const auto par = run_threads(4);
  EXPECT_FALSE(seq.empty());
  EXPECT_EQ(seq, par);
}

}  // namespace
}  // namespace cicero
