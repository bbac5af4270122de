// plan_decentralized: manifests, edges and sinks for one schedule.
#include "core/decentralized.hpp"

#include <gtest/gtest.h>

namespace cicero::core {
namespace {

sched::ScheduledUpdate segment(sched::UpdateId id, net::NodeIndex sw,
                               std::vector<sched::UpdateId> deps) {
  sched::ScheduledUpdate su;
  su.update.id = id;
  su.update.switch_node = sw;
  su.deps = std::move(deps);
  return su;
}

std::vector<sched::UpdateId> ids(const std::vector<SegmentPeer>& peers) {
  std::vector<sched::UpdateId> out;
  for (const SegmentPeer& p : peers) out.push_back(p.update_id);
  return out;
}

using Ids = std::vector<sched::UpdateId>;

TEST(DecentralizedPlan, ChainLinksNeighboursAndEndsInOneSink) {
  // Reverse-path order, as the scheduler emits it: 1 waits on 2, 2 on 3.
  sched::UpdateSchedule s;
  s.updates = {segment(1, 10, {2}), segment(2, 11, {3}), segment(3, 12, {})};
  const std::map<net::NodeIndex, sim::NodeId> nodes{{10, 100}, {11, 101}, {12, 102}};
  const DecentralizedPlan plan = plan_decentralized(s, nodes);

  ASSERT_EQ(plan.manifests.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(plan.manifests[i].update.id, s.updates[i].update.id);
    EXPECT_EQ(plan.index.at(s.updates[i].update.id), i);
  }
  EXPECT_EQ(ids(plan.manifests[0].preds), (Ids{2}));
  EXPECT_EQ(ids(plan.manifests[0].succs), Ids{});
  EXPECT_EQ(ids(plan.manifests[1].preds), (Ids{3}));
  EXPECT_EQ(ids(plan.manifests[1].succs), (Ids{1}));
  EXPECT_EQ(ids(plan.manifests[2].preds), Ids{});
  EXPECT_EQ(ids(plan.manifests[2].succs), (Ids{2}));
  EXPECT_EQ(plan.manifests[1].preds[0], (SegmentPeer{3, 12, 102}));
  EXPECT_EQ(plan.manifests[1].succs[0], (SegmentPeer{1, 10, 100}));
  EXPECT_EQ(plan.sinks, (Ids{1}));
  EXPECT_TRUE(plan.manifests[0].sink);
  EXPECT_FALSE(plan.manifests[1].sink);
  EXPECT_EQ(plan.ancestors(1), (Ids{1, 2, 3}));
  EXPECT_EQ(plan.ancestors(2), (Ids{2, 3}));
  EXPECT_TRUE(plan.ancestors(42).empty());
}

TEST(DecentralizedPlan, DomainFilteredScheduleWithTwoSinks) {
  // 3 gates both 1 and 2; 1 also names 99, an update outside the schedule
  // (another domain's), which the plan must drop.  Switch 12 has no sim
  // address on record.
  sched::UpdateSchedule s;
  s.updates = {segment(1, 10, {3, 99}), segment(2, 11, {3}), segment(3, 12, {})};
  const std::map<net::NodeIndex, sim::NodeId> nodes{{10, 100}, {11, 101}};
  const DecentralizedPlan plan = plan_decentralized(s, nodes);

  EXPECT_EQ(ids(plan.manifests[0].preds), (Ids{3}));
  EXPECT_EQ(plan.manifests[0].preds[0].node, sim::kInvalidNode);
  EXPECT_EQ(ids(plan.manifests[1].preds), (Ids{3}));
  EXPECT_EQ(ids(plan.manifests[2].succs), (Ids{1, 2}));  // schedule order
  EXPECT_EQ(plan.sinks, (Ids{1, 2}));
  EXPECT_EQ(plan.index.count(99), 0u);
  EXPECT_EQ(plan.ancestors(1), (Ids{1, 3}));
  EXPECT_EQ(plan.ancestors(2), (Ids{2, 3}));
}

}  // namespace
}  // namespace cicero::core
