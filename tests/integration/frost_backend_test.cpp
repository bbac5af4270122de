// End-to-end tests of the FROST threshold-Schnorr backend (controller
// aggregation with a cryptographically REAL threshold signature — the
// composition claim of DESIGN.md §1).
#include <gtest/gtest.h>

#include <set>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using core::ThresholdBackend;
using testing::completed_count;
using testing::small_pod;
using testing::small_workload;

std::unique_ptr<core::Deployment> frost_deployment(bool real_crypto = true) {
  core::DeploymentParams dp;
  dp.framework = FrameworkKind::kCiceroAgg;
  dp.backend = ThresholdBackend::kFrost;
  dp.controllers_per_domain = 4;
  dp.real_crypto = real_crypto;
  dp.seed = 31337;
  return std::make_unique<core::Deployment>(net::build_pod(small_pod()), dp);
}

TEST(FrostBackend, FlowsCompleteWithRealSignatures) {
  auto dep = frost_deployment();
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  EXPECT_EQ(completed_count(*dep), flows.size());
  // Every applied update carried a verified FROST signature.
  std::uint64_t applied = 0, rejected = 0;
  for (const auto sw : dep->topology().switches()) {
    applied += dep->switch_at(sw).updates_applied();
    rejected += dep->switch_at(sw).updates_rejected();
  }
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(rejected, 0u);
}

TEST(FrostBackend, AggregatesCountAsSouthboundBytes) {
  // Regression: the FROST aggregator shipped its aggregates without
  // counting them, so the southbound byte total read 0.
  auto dep = frost_deployment();
  dep->inject(small_workload(dep->topology(), 20));
  dep->run(sim::seconds(20));
  std::uint64_t bytes = 0, applied = 0;
  for (const auto id : dep->controller_ids()) bytes += dep->controller(id).southbound_bytes();
  for (const auto sw : dep->topology().switches()) applied += dep->switch_at(sw).updates_applied();
  ASSERT_GT(applied, 0u);
  EXPECT_EQ(dep->obs().metrics.counter_value("ctrl.southbound_bytes"), bytes);
  // At least one encoded AggUpdateMsg per applied update.
  EXPECT_GE(bytes, applied * core::AggUpdateMsg{}.encode().size());
}

TEST(FrostBackend, SlowerThanSimBls) {
  // The extra signing round is visible: FROST setup latency exceeds the
  // non-interactive SimBLS backend under identical conditions.
  auto frost = frost_deployment();
  core::DeploymentParams dp;
  dp.framework = FrameworkKind::kCiceroAgg;
  dp.backend = ThresholdBackend::kSimBls;
  dp.controllers_per_domain = 4;
  dp.real_crypto = true;
  dp.seed = 31337;
  core::Deployment simbls(net::build_pod(small_pod()), dp);

  const auto flows = small_workload(frost->topology(), 15);
  frost->inject(flows);
  frost->run(sim::seconds(20));
  simbls.inject(flows);
  simbls.run(sim::seconds(20));
  ASSERT_FALSE(frost->setup_cdf().empty());
  ASSERT_FALSE(simbls.setup_cdf().empty());
  EXPECT_GT(frost->setup_cdf().mean(), simbls.setup_cdf().mean());
}

TEST(FrostBackend, RogueUpdateStillRejected) {
  auto dep = frost_deployment();
  const auto hosts = dep->topology().hosts();
  const auto victim = dep->topology().switches().front();
  sched::Update rogue;
  rogue.id = 0xF057;
  rogue.switch_node = victim;
  rogue.op = sched::UpdateOp::kInstall;
  rogue.rule = {{hosts[0], hosts[1]}, victim, 1e6};
  auto& attacker = dep->controller(dep->controller_ids()[2]);
  dep->simulator().at(sim::milliseconds(1),
                      [&] { attacker.inject_rogue_update(victim, rogue); });
  dep->run(sim::seconds(2));
  EXPECT_FALSE(dep->switch_at(victim).table().has({hosts[0], hosts[1]}));
}

TEST(FrostBackend, SilentSignerToleratedByQuorumChoice) {
  // One silent controller: the aggregator builds sessions from the three
  // responsive signers' commitments (quorum 2 of 4 still reachable).
  auto dep = frost_deployment();
  dep->set_controller_fault(dep->controller_ids()[3], core::ControllerFault::kSilent);
  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(25));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(FrostBackend, FlowsCompleteAfterMembershipChange) {
  // Regression: the FROST signer kept its pre-change share after a
  // reshare, so every partial failed verification and no flow completed.
  // Re-keying must keep the nonce stream: a commitment minted before the
  // change showing up again after it means a nonce was used twice.
  for (const bool add : {true, false}) {
    SCOPED_TRACE(add ? "add" : "remove");
    auto dep = frost_deployment();
    std::set<util::Bytes> commitments;
    std::size_t repeats = 0;
    dep->network().set_mutate_fn([&](sim::NodeId, sim::NodeId, util::Bytes& wire) {
      if (core::peek_tag(wire) != static_cast<std::uint8_t>(core::CoreMsgTag::kUpdate)) return;
      const auto m = core::UpdateMsg::decode(wire);
      if (m && !m->frost_commitment.empty()) {
        repeats += commitments.insert(m->frost_commitment).second ? 0 : 1;
      }
    });
    // The first batch is signing when the change lands at 10 ms; the
    // second, over other host pairs, needs fresh signatures after it.
    const auto flows = small_workload(dep->topology(), 30);
    dep->simulator().at(sim::milliseconds(10), [&] {
      if (add) {
        dep->add_controller(0);
      } else {
        dep->remove_controller(dep->domain_controller_ids(0).back());
      }
    });
    for (const std::size_t first : {0u, 15u}) {
      dep->inject({flows.begin() + first, flows.begin() + first + 15});
      dep->run(dep->simulator().now() + sim::seconds(30));
    }
    EXPECT_EQ(completed_count(*dep), 30u);
    EXPECT_FALSE(commitments.empty());
    EXPECT_EQ(repeats, 0u);
  }
}

TEST(FrostBackend, CostOnlyModeWorks) {
  auto dep = frost_deployment(/*real_crypto=*/false);
  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

}  // namespace
}  // namespace cicero
