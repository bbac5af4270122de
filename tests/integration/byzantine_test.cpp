// Security tests: Byzantine controllers against full deployments.
//
// These tests back the paper's central security claim (§3.2/§4.1): with a
// 4-member control plane, a single compromised controller can neither
// corrupt the data plane nor stall it under Cicero — while the same
// attacks succeed against the crash-tolerant and centralized baselines
// (the Table 2 gap).
#include <gtest/gtest.h>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::ControllerFault;
using core::FrameworkKind;
using testing::completed_count;
using testing::make_deployment;
using testing::small_pod;
using testing::small_workload;

/// Audits that every rule ever installed matches the deterministic
/// shortest-path routing the honest controller application computes.
class RuleAuditor {
 public:
  explicit RuleAuditor(core::Deployment& dep) : dep_(dep) {
    for (const auto sw : dep.topology().switches()) {
      dep.switch_at(sw).add_applied_observer([this, sw](const sched::Update& u) {
        if (u.op != sched::UpdateOp::kInstall) return;
        const auto path = dep_.topology().shortest_path(u.rule.match.src_host,
                                                        u.rule.match.dst_host);
        bool legit = false;
        for (std::size_t i = 1; i + 1 < path.size(); ++i) {
          if (path[i] == sw && u.rule.next_hop == path[i + 1]) legit = true;
        }
        if (!legit) ++corrupted_;
      });
    }
  }
  std::uint64_t corrupted() const { return corrupted_; }

 private:
  core::Deployment& dep_;
  std::uint64_t corrupted_ = 0;
};

TEST(Byzantine, MutatingControllerCannotCorruptCicero) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  RuleAuditor audit(*dep);
  dep->set_controller_fault(dep->controller_ids()[1], ControllerFault::kMutateUpdates);
  const auto flows = small_workload(dep->topology(), 25);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  // Liveness: the three honest controllers form the quorum of 3.
  EXPECT_EQ(completed_count(*dep), flows.size());
  // Safety: no corrupted rule was ever applied.
  EXPECT_EQ(audit.corrupted(), 0u);
}

TEST(Byzantine, MutatingControllerCorruptsCrashTolerantBaseline) {
  // The same attack against the crash-only baseline: switches apply the
  // first copy of an update they receive, so corrupted rules land.
  auto dep = make_deployment(FrameworkKind::kCrashTolerant, net::build_pod(small_pod()));
  RuleAuditor audit(*dep);
  dep->set_controller_fault(dep->controller_ids()[1], ControllerFault::kMutateUpdates);
  dep->inject(small_workload(dep->topology(), 25));
  dep->run(sim::seconds(20));
  EXPECT_GT(audit.corrupted(), 0u);
}

TEST(Byzantine, SilentControllerDoesNotBlockCicero) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  dep->set_controller_fault(dep->controller_ids()[3], ControllerFault::kSilent);
  const auto flows = small_workload(dep->topology(), 25);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Byzantine, SilentAggregatorStallsWithoutReassignment) {
  // §3.3's stated trade-off: controller aggregation must handle aggregator
  // failure.  Without membership action the data plane stalls...
  auto dep = make_deployment(FrameworkKind::kCiceroAgg, net::build_pod(small_pod()));
  const auto agg_id = dep->controller_ids()[0];  // lowest id = aggregator
  dep->set_controller_fault(agg_id, ControllerFault::kSilent);
  const auto flows = small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(5));
  EXPECT_EQ(completed_count(*dep), 0u);

  // ...and removing the aggregator through the membership protocol
  // restores progress with a newly selected aggregator.
  dep->remove_controller(agg_id);
  dep->run(sim::seconds(40));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Byzantine, RogueUpdateRejectedByCiceroSwitch) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto hosts = dep->topology().hosts();
  const auto victim = dep->topology().switches().front();

  sched::Update rogue;
  rogue.id = 0xDEAD;
  rogue.switch_node = victim;
  rogue.op = sched::UpdateOp::kInstall;
  rogue.rule = {{hosts[0], hosts[1]}, victim, 1e6};

  auto& attacker = dep->controller(dep->controller_ids()[2]);
  dep->simulator().at(sim::milliseconds(1), [&] {
    // A single compromised controller fires an unsolicited update (the
    // PACKET_OUT-style attack of §2.2) with only its own share.
    attacker.inject_rogue_update(victim, rogue);
  });
  dep->run(sim::seconds(2));
  EXPECT_FALSE(dep->switch_at(victim).table().has({hosts[0], hosts[1]}));
  EXPECT_EQ(dep->switch_at(victim).updates_applied(), 0u);
}

TEST(Byzantine, RogueUpdateAcceptedByCentralizedBaseline) {
  // The identical attack against a baseline switch succeeds instantly —
  // this is the vulnerability row for singleton controllers in Table 2.
  auto dep = make_deployment(FrameworkKind::kCentralized, net::build_pod(small_pod()));
  const auto hosts = dep->topology().hosts();
  const auto victim = dep->topology().switches().front();

  sched::Update rogue;
  rogue.id = 0xDEAD;
  rogue.switch_node = victim;
  rogue.op = sched::UpdateOp::kInstall;
  rogue.rule = {{hosts[0], hosts[1]}, victim, 1e6};

  auto& attacker = dep->controller(dep->controller_ids()[0]);
  dep->simulator().at(sim::milliseconds(1),
                      [&] { attacker.inject_rogue_update(victim, rogue); });
  dep->run(sim::seconds(2));
  EXPECT_TRUE(dep->switch_at(victim).table().has({hosts[0], hosts[1]}));
}

TEST(Byzantine, ForgedEventSignatureDropped) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  // Craft an event "from" a switch but signed with the wrong key.
  crypto::Drbg d(999);
  const auto wrong_key = crypto::SchnorrKeyPair::generate(d);
  const auto hosts = dep->topology().hosts();
  core::Event e;
  e.id = core::EventId{dep->topology().switches().front(), 1};
  e.kind = core::EventKind::kFlowRequest;
  e.match = {hosts[0], hosts[1]};
  e.reserved_bps = 1e6;
  e.sig = crypto::schnorr_sign(wrong_key.sk, e.body()).to_bytes();

  const auto ctrl_id = dep->controller_ids()[0];
  dep->simulator().at(sim::milliseconds(1), [&, ctrl_id] {
    dep->controller(ctrl_id).handle_message(0, e.encode());
  });
  dep->run(sim::seconds(2));
  EXPECT_EQ(dep->controller(ctrl_id).events_processed(), 0u);
}

TEST(Byzantine, MutatedPartialExcludedBySwitchRetry) {
  // A Byzantine controller signs the CORRECT update body with a garbage
  // partial; the switch's subset-retry aggregation must still converge
  // once the honest quorum's partials arrive.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  // Corrupt partials in flight from one controller node.
  const auto bad_ctrl_node = dep->controller(dep->controller_ids()[1]).node();
  dep->network().set_mutate_fn(
      [bad_ctrl_node](sim::NodeId from, sim::NodeId, util::Bytes& m) {
        if (from == bad_ctrl_node && !m.empty() &&
            m[0] == static_cast<std::uint8_t>(core::CoreMsgTag::kUpdate) && m.size() > 40) {
          m[m.size() - 20] ^= 0xFF;  // corrupt the partial signature bytes
        }
      });
  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Byzantine, MutatedAckCopyRejectedWhileHonestCopiesVerify) {
  // Every switch ack is verified once and then answered from the PKI's
  // memo for the other replicas.  One receiver's copy is altered in
  // flight: it must miss the memo, be verified for real and be dropped,
  // while the other three accept their honest copies.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto ids = dep->controller_ids();
  const auto victim_node = dep->controller(ids[2]).node();
  std::uint64_t mutated = 0;
  dep->network().set_mutate_fn([victim_node, &mutated](sim::NodeId, sim::NodeId to,
                                                       util::Bytes& m) {
    if (to == victim_node && !m.empty() &&
        m[0] == static_cast<std::uint8_t>(core::CoreMsgTag::kAck)) {
      m.back() ^= 0x01;  // the last byte of the switch's signature
      ++mutated;
    }
  });
  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(20));

  EXPECT_GT(mutated, 0u);
  EXPECT_EQ(dep->controller(ids[2]).acks_received(), 0u);
  for (const auto id : {ids[0], ids[1], ids[3]}) {
    EXPECT_GT(dep->controller(id).acks_received(), 0u) << "controller " << id;
  }
  EXPECT_GT(*dep->obs().metrics.gauges().at("crypto.verify_memo_hits"), 0.0);
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Byzantine, AuditLogExposesMutatingController) {
  // §7 future work made executable: the mutating controller's signed,
  // hash-chained decision log diverges from every honest log at the first
  // event it corrupted — non-repudiable evidence of WHAT it decided.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto bad = dep->controller_ids()[1];
  dep->set_controller_fault(bad, ControllerFault::kMutateUpdates);
  dep->inject(small_workload(dep->topology(), 15));
  dep->run(sim::seconds(20));

  const auto ids = dep->controller_ids();
  // Every chain verifies under its owner's key (including the corrupt
  // one — it signed its own corrupted decisions).
  for (const auto id : ids) {
    auto& ctrl = dep->controller(id);
    ctrl.seal_audit();
    EXPECT_TRUE(core::AuditLog::verify_chain(ctrl.audit().entries(), ctrl.config().key.pk));
  }
  // Honest controllers agree pairwise; each disagrees with the corrupt one.
  const auto& honest0 = dep->controller(ids[0]).audit().entries();
  for (const auto id : ids) {
    if (id == bad || id == ids[0]) continue;
    EXPECT_FALSE(core::AuditLog::first_divergence(
                     honest0, dep->controller(id).audit().entries())
                     .has_value())
        << "honest c" << id;
  }
  EXPECT_TRUE(core::AuditLog::first_divergence(honest0,
                                               dep->controller(bad).audit().entries())
                  .has_value());
}

}  // namespace
}  // namespace cicero
