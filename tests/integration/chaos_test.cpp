// Chaos suite: the full pipeline under sustained, seeded network faults.
//
// Every test drives a real small-pod deployment (real crypto, real BFT)
// through the seeded FaultInjector: uniform message loss, control-plane
// partitions that cost the BFT its quorum, targeted ack blackouts, and
// switch crash/recover cycles.  The invariant throughout is liveness
// without inconsistency: every injected flow eventually completes and
// every controller's dependency tracker drains to zero — no update is
// left half-acknowledged.  Determinism is part of the contract: a run is
// a pure function of (workload seed, fault seed).
//
// These tests are labeled `chaos` in ctest (see tests/CMakeLists.txt), so
// `ctest -L chaos` runs exactly this file and `ctest -LE chaos` skips it.
#include <gtest/gtest.h>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::abandoned_count;
using testing::completed_count;
using testing::small_pod;
using testing::small_workload;

std::unique_ptr<core::Deployment> chaos_deployment(FrameworkKind fw,
                                                   std::uint64_t seed = 12345) {
  core::DeploymentParams dp;
  dp.framework = fw;
  dp.seed = seed;
  return std::make_unique<core::Deployment>(net::build_pod(small_pod()), dp);
}

std::uint64_t total_retransmits(core::Deployment& dep) {
  std::uint64_t n = 0;
  for (const auto id : dep.controller_ids()) n += dep.controller(id).updates_retransmitted();
  return n;
}

std::vector<sim::NodeId> controller_nodes(core::Deployment& dep,
                                          std::size_t first, std::size_t count) {
  std::vector<sim::NodeId> nodes;
  const auto ids = dep.controller_ids();
  for (std::size_t i = first; i < first + count && i < ids.size(); ++i) {
    nodes.push_back(dep.controller(ids[i]).node());
  }
  return nodes;
}

class ChaosFrameworks : public ::testing::TestWithParam<FrameworkKind> {};
INSTANTIATE_TEST_SUITE_P(Frameworks, ChaosFrameworks,
                         ::testing::Values(FrameworkKind::kCrashTolerant,
                                           FrameworkKind::kCicero),
                         [](const auto& info) {
                           return info.param == FrameworkKind::kCrashTolerant
                                      ? "CrashTolerant"
                                      : "Cicero";
                         });

TEST_P(ChaosFrameworks, UniformLossAllFlowsComplete) {
  // 10% of every message dies in flight — events, BFT traffic, updates,
  // partials and acks alike.  Retransmission at every layer (event
  // retries, BFT resubmission, the apply/ack loop) must still land every
  // flow, and no update may be left dangling in any tracker.
  auto dep = chaos_deployment(GetParam());
  dep->faults().set_uniform_loss(0.10);
  const auto flows = small_workload(dep->topology(), 25);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
  // At 10% loss some update or ack was certainly lost: the apply/ack
  // recovery loop must have fired (deterministically, given the seed).
  EXPECT_GT(total_retransmits(*dep), 0u);
}

TEST_P(ChaosFrameworks, HeavyLossAllFlowsComplete) {
  // 20% loss: well past what a single retry absorbs; exponential backoff
  // has to do real work.
  auto dep = chaos_deployment(GetParam());
  dep->faults().set_uniform_loss(0.20);
  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(180));
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
}

TEST_P(ChaosFrameworks, PartitionHealCyclesRecover) {
  // Two partition-and-heal windows split the control plane 2|2 — below
  // the 3-of-4 BFT quorum, so ordering stalls entirely inside each
  // window.  Progress must resume after each heal with nothing lost.
  auto dep = chaos_deployment(GetParam());
  const auto side_a = controller_nodes(*dep, 0, 2);
  const auto side_b = controller_nodes(*dep, 2, 2);
  dep->faults().schedule_partition(sim::seconds(1), sim::seconds(6), side_a, side_b);
  dep->faults().schedule_partition(sim::seconds(10), sim::seconds(14), side_a, side_b);
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_FALSE(dep->faults().partitioned());
  EXPECT_GT(dep->faults().dropped_partition(), 0u);  // the windows did bite
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
}

TEST_P(ChaosFrameworks, SwitchCrashRecoverMidWorkload) {
  // Crash the ingress ToR of the first flow mid-workload: it loses its
  // flow table and every in-flight buffer, and the injector blackholes
  // its traffic.  On recovery it re-requests routes through the normal
  // signed-event path and the stalled flows complete.
  auto dep = chaos_deployment(GetParam());
  const auto flows = small_workload(dep->topology(), 20);
  const net::NodeIndex victim = dep->topology().host_tor(flows.front().src_host);
  dep->simulator().at(sim::seconds(2), [&dep, victim] { dep->crash_switch(victim); });
  dep->simulator().at(sim::seconds(7), [&dep, victim] { dep->recover_switch(victim); });
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_EQ(dep->switch_at(victim).crashes(), 1u);
  EXPECT_FALSE(dep->switch_at(victim).down());
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
}

TEST_P(ChaosFrameworks, AckBlackoutForcesRetransmitThenDrains) {
  // Surgical fault: one controller hears no acks from one switch for the
  // first five seconds (both the multicast originals and the unicast
  // re-acks die on that link).  Its backoff retransmissions must outlive
  // the blackout, collect the re-ack, and drain its tracker.
  auto dep = chaos_deployment(GetParam());
  const auto flows = small_workload(dep->topology(), 10);
  const net::NodeIndex sw = dep->topology().host_tor(flows.front().src_host);
  const sim::NodeId sw_node = dep->switch_at(sw).config().node;
  const std::uint32_t victim = dep->controller_ids().back();
  const sim::NodeId ctrl_node = dep->controller(victim).node();
  dep->faults().drop_next(sw_node, ctrl_node, 1000000);  // ack direction only
  dep->simulator().at(sim::seconds(5),
                      [&dep] { dep->faults().clear_targeted(); });
  dep->inject(flows);
  dep->run(sim::seconds(120));
  // The victim retransmitted (its acks were eaten) ...
  EXPECT_GT(dep->controller(victim).updates_retransmitted(), 0u);
  // ... every flow still completed (the other controllers heard the acks
  // first time), and once the blackout lifted the victim's surviving
  // retransmissions collected re-acks and drained its tracker too.
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
}

TEST(ChaosRetryExhaustion, AbandonedUpdatesDrainEveryTracker) {
  // Regression: when an update exhausted its retries the controller used
  // to erase only the ack timer, leaving the tracker entry in flight and
  // every dependent blocked behind it forever — pending_updates() never
  // drained and the "abandoned" outcome was invisible in the stats.
  core::DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;
  dp.seed = 12345;
  dp.ack_timeout = sim::milliseconds(200);
  dp.update_max_retries = 3;
  auto dep = std::make_unique<core::Deployment>(net::build_pod(small_pod()), dp);
  const auto flows = small_workload(dep->topology(), 15);
  // 100% loss on everything touching one ToR — the node stays up (unlike
  // set_node_down this is invisible to failure detectors), so updates
  // targeting it genuinely retry to exhaustion.
  const net::NodeIndex victim = dep->topology().host_tor(flows.front().src_host);
  const sim::NodeId victim_node = dep->switch_at(victim).config().node;
  dep->faults().set_node_loss(victim_node, 1.0);
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_GT(abandoned_count(*dep), 0u);            // give-ups were recorded...
  EXPECT_EQ(dep->pending_updates(), 0u);           // ...and stranded no dependents
  EXPECT_LT(completed_count(*dep), flows.size());  // the blackholed flows really died
}

TEST(ChaosDeterminism, SameSeedBitIdenticalRun) {
  // Two runs with identical (workload seed, fault seed) must agree on
  // every observable counter: the loss draw is part of the simulation.
  auto run = [] {
    auto dep = chaos_deployment(FrameworkKind::kCicero, /*seed=*/777);
    dep->faults().set_uniform_loss(0.10);
    const auto flows = small_workload(dep->topology(), 15);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    return std::tuple<std::uint64_t, std::uint64_t, std::size_t, std::uint64_t>{
        dep->network().messages_sent(), dep->faults().dropped_total(),
        completed_count(*dep), total_retransmits(*dep)};
  };
  EXPECT_EQ(run(), run());
}

TEST(ChaosInNetwork, AggregatorCrashMidAggregationUnderLoss) {
  // The in-network offload's worst case: 10% uniform loss AND the
  // designated aggregator switch crashing while partial shares and
  // cached fan-outs are in flight (its pending buckets and replay cache
  // are volatile — both die with it).  Replicas re-point at the next
  // designation, ack timers escalate the compact fast path to full
  // bodies, and every flow must still complete with every tracker
  // drained.
  core::DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;
  dp.aggregation = core::AggregationMode::kInNetwork;
  dp.seed = 12345;
  auto dep = std::make_unique<core::Deployment>(net::build_pod(small_pod()), dp);
  dep->faults().set_uniform_loss(0.10);
  const net::NodeIndex agg = dep->innet_aggregator_switch(0);
  ASSERT_NE(agg, net::kNoNode);
  dep->simulator().at(sim::milliseconds(60), [&dep, agg] { dep->crash_switch(agg); });
  dep->simulator().at(sim::seconds(20), [&dep, agg] { dep->recover_switch(agg); });
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(180));
  EXPECT_EQ(dep->switch_at(agg).crashes(), 1u);
  EXPECT_EQ(completed_count(*dep), flows.size());
  EXPECT_EQ(dep->pending_updates(), 0u);
  EXPECT_GT(total_retransmits(*dep), 0u);  // loss + crash really bit
}

TEST(ChaosInNetwork, AggregatorCrashRunIsBitIdentical) {
  // Same (workload seed, fault seed, crash schedule) twice: the failover
  // path is inside the simulation, so every observable counter must
  // agree bit-for-bit.
  auto run = [] {
    core::DeploymentParams dp;
    dp.framework = FrameworkKind::kCicero;
    dp.aggregation = core::AggregationMode::kInNetwork;
    dp.seed = 777;
    auto dep = std::make_unique<core::Deployment>(net::build_pod(small_pod()), dp);
    dep->faults().set_uniform_loss(0.10);
    const net::NodeIndex agg = dep->innet_aggregator_switch(0);
    dep->simulator().at(sim::milliseconds(60), [&dep, agg] { dep->crash_switch(agg); });
    dep->simulator().at(sim::seconds(20), [&dep, agg] { dep->recover_switch(agg); });
    const auto flows = small_workload(dep->topology(), 15);
    dep->inject(flows);
    dep->run(sim::seconds(180));
    std::uint64_t fanouts = 0, replays = 0;
    for (const net::NodeIndex sw : dep->topology().switches()) {
      fanouts += dep->switch_at(sw).agg_fanouts();
      replays += dep->switch_at(sw).agg_replays();
    }
    return std::tuple<std::uint64_t, std::uint64_t, std::size_t, std::uint64_t,
                      std::uint64_t, std::uint64_t>{
        dep->network().messages_sent(), dep->faults().dropped_total(),
        completed_count(*dep), total_retransmits(*dep), fanouts, replays};
  };
  EXPECT_EQ(run(), run());
}

TEST(ChaosDeterminism, DifferentSeedsSameOutcome) {
  // Different fault seeds lose different messages, but the protocol's
  // guarantee — every flow completes, every tracker drains — must hold
  // for both.
  auto completions = [](std::uint64_t seed) {
    auto dep = chaos_deployment(FrameworkKind::kCicero, seed);
    dep->faults().set_uniform_loss(0.10);
    const auto flows = small_workload(dep->topology(), 15);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    EXPECT_EQ(dep->pending_updates(), 0u) << "seed " << seed;
    return completed_count(*dep);
  };
  const auto a = completions(1001);
  const auto b = completions(2002);
  EXPECT_EQ(a, 15u);
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace cicero
