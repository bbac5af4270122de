// Control-plane membership changes against live deployments (§4.3).
#include <gtest/gtest.h>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::make_deployment;
using testing::small_pod;
using testing::small_workload;

TEST(Membership, AddControllerKeepsGroupPublicKey) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto pk_before = dep->group_pk(0);
  dep->simulator().at(sim::milliseconds(10), [&] { dep->add_controller(0); });
  dep->run(sim::seconds(5));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 5u);
  // The key switches verify against never changes (§3.2's DKG property) —
  // asserted internally during resharing and re-checked here.
  EXPECT_EQ(dep->group_pk(0), pk_before);
}

TEST(Membership, ModeledReshareChargesLikeReal) {
  // Modeled crypto charges every simulated cost real crypto charges,
  // the reshare's deal and finalize work included.
  const auto busy_after_add = [](bool real_crypto) {
    auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()), real_crypto);
    dep->simulator().at(sim::milliseconds(10), [&] { dep->add_controller(0); });
    dep->run(sim::seconds(5));
    sim::SimTime busy = 0;
    for (const auto id : dep->controller_ids()) busy += dep->controller(id).cpu().busy_total();
    return busy;
  };
  EXPECT_EQ(busy_after_add(true), busy_after_add(false));
}

TEST(Membership, AddedControllerParticipates) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  std::uint32_t new_id = 0;
  dep->simulator().at(sim::milliseconds(10), [&] { new_id = dep->add_controller(0); });
  dep->run(sim::seconds(5));

  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);  // arrivals start at ~0 but sim time has advanced; re-run below
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
  // The new member signs updates like everyone else.
  EXPECT_GT(dep->controller(new_id).updates_sent(), 0u);
}

TEST(Membership, FlowsDuringChangeAreQueuedNotLost) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flows = small_workload(dep->topology(), 30);
  dep->inject(flows);
  // Trigger the change in the middle of the workload.
  dep->simulator().at(flows[10].arrival, [&] { dep->add_controller(0); });
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Membership, RemoveControllerQuorumShrinks) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()),
                             /*real_crypto=*/true, /*teardown=*/false, /*controllers=*/5);
  const auto pk_before = dep->group_pk(0);
  const auto victim = dep->domain_controller_ids(0).back();
  dep->simulator().at(sim::milliseconds(10), [&] { dep->remove_controller(victim); });
  dep->run(sim::seconds(5));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 4u);
  EXPECT_EQ(dep->group_pk(0), pk_before);

  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Membership, RemovedControllerStopsParticipating) {
  // Silent from the settle on: whether it was the aggregator (lowest id)
  // or not, under direct and controller aggregation.
  for (const auto framework : {FrameworkKind::kCicero, FrameworkKind::kCiceroAgg}) {
    for (const bool lowest : {false, true}) {
      SCOPED_TRACE(::testing::Message() << "framework " << static_cast<int>(framework)
                                        << ", lowest " << lowest);
      auto dep = make_deployment(framework, net::build_pod(small_pod()), true, false, 5);
      const auto ids = dep->domain_controller_ids(0);
      const auto victim = lowest ? ids.front() : ids.back();
      dep->simulator().at(sim::milliseconds(10), [&] { dep->remove_controller(victim); });
      dep->run(sim::seconds(5));
      const auto updates_at_removal = dep->controller(victim).updates_sent();
      const auto bytes_at_removal = dep->controller(victim).southbound_bytes();
      const auto flows = small_workload(dep->topology(), 10);
      dep->inject(flows);
      dep->run(sim::seconds(60));
      EXPECT_EQ(completed_count(*dep), flows.size());
      EXPECT_EQ(dep->controller(victim).updates_sent(), updates_at_removal);
      EXPECT_EQ(dep->controller(victim).southbound_bytes(), bytes_at_removal);
    }
  }
}

TEST(Membership, SequentialAddAndRemove) {
  // Lock-step phases (§4.3): one change at a time, each a full reshare.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto pk = dep->group_pk(0);
  std::uint32_t added = 0;
  dep->simulator().at(sim::milliseconds(10), [&] { added = dep->add_controller(0); });
  dep->simulator().at(sim::seconds(2), [&] {
    dep->remove_controller(dep->domain_controller_ids(0).front());
  });
  dep->run(sim::seconds(6));
  EXPECT_EQ(dep->domain_controller_ids(0).size(), 4u);
  EXPECT_EQ(dep->group_pk(0), pk);

  const auto flows = small_workload(dep->topology(), 15);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Membership, AggregatorReassignedAfterRemoval) {
  auto dep = make_deployment(FrameworkKind::kCiceroAgg, net::build_pod(small_pod()), true,
                             false, 5);
  const auto old_agg = dep->domain_controller_ids(0).front();  // lowest id
  EXPECT_TRUE(dep->controller(old_agg).is_aggregator());
  dep->simulator().at(sim::milliseconds(10), [&] { dep->remove_controller(old_agg); });
  dep->run(sim::seconds(5));
  const auto new_agg = dep->domain_controller_ids(0).front();
  EXPECT_NE(new_agg, old_agg);
  EXPECT_TRUE(dep->controller(new_agg).is_aggregator());

  const auto flows = small_workload(dep->topology(), 10);
  dep->inject(flows);
  dep->run(sim::seconds(60));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Membership, MembersReadTheSettledPlane) {
  // 3 -> 4 -> 3 members moves the quorum 1 -> 2 -> 1; after each change
  // every current member signs with the Deployment's quorum and exactly
  // one of them, the plane's lowest id, aggregates.
  auto dep = make_deployment(FrameworkKind::kCiceroAgg, net::build_pod(small_pod()), true,
                             false, 3);
  const auto expect_settled = [&](std::uint32_t quorum) {
    const core::Controller::Plane& plane = dep->plane(0);
    EXPECT_EQ(plane.quorum(), quorum);
    std::size_t aggregators = 0;
    for (const auto id : dep->domain_controller_ids(0)) {
      const auto& c = dep->controller(id);
      EXPECT_EQ(c.quorum(), plane.quorum()) << "controller " << id;
      if (c.is_aggregator()) {
        ++aggregators;
        EXPECT_EQ(id, plane.members.front().id);
      }
    }
    EXPECT_EQ(aggregators, 1u);
  };
  dep->simulator().at(sim::milliseconds(10), [&] { dep->add_controller(0); });
  dep->run(sim::seconds(5));
  ASSERT_EQ(dep->domain_controller_ids(0).size(), 4u);
  expect_settled(2);

  dep->simulator().after(sim::milliseconds(10), [&] {
    dep->remove_controller(dep->domain_controller_ids(0).front());
  });
  dep->run(sim::seconds(10));
  ASSERT_EQ(dep->domain_controller_ids(0).size(), 3u);
  expect_settled(1);
}

}  // namespace
}  // namespace cicero
