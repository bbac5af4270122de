#include "sched/depgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

namespace cicero::sched {
namespace {

ScheduledUpdate make(UpdateId id, std::vector<UpdateId> deps) {
  ScheduledUpdate su;
  su.update.id = id;
  su.update.switch_node = static_cast<net::NodeIndex>(id);
  return ScheduledUpdate{su.update, std::move(deps)};
}

TEST(HasCycle, DetectsCycles) {
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {1})};
  EXPECT_TRUE(has_cycle(s));
}

TEST(HasCycle, DetectsSelfLoop) {
  UpdateSchedule s;
  s.updates = {make(1, {1})};
  EXPECT_TRUE(has_cycle(s));
}

TEST(HasCycle, DetectsDanglingDependency) {
  UpdateSchedule s;
  s.updates = {make(1, {42})};
  EXPECT_TRUE(has_cycle(s));
}

TEST(HasCycle, AcceptsDag) {
  UpdateSchedule s;
  s.updates = {make(1, {2, 3}), make(2, {3}), make(3, {})};
  EXPECT_FALSE(has_cycle(s));
}

TEST(DependencyTracker, ChainReleasesInOrder) {
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {3}), make(3, {})};
  auto ready = t.add(s);
  EXPECT_EQ(ready, (std::vector<UpdateId>{3}));
  EXPECT_EQ(t.in_flight(), 1u);
  EXPECT_EQ(t.blocked(), 2u);

  ready = t.complete(3);
  EXPECT_EQ(ready, (std::vector<UpdateId>{2}));
  ready = t.complete(2);
  EXPECT_EQ(ready, (std::vector<UpdateId>{1}));
  ready = t.complete(1);
  EXPECT_TRUE(ready.empty());
  EXPECT_TRUE(t.idle());
}

TEST(DependencyTracker, DiamondReleasesWhenAllDepsDone) {
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2, 3}), make(2, {}), make(3, {})};
  auto ready = t.add(s);
  std::sort(ready.begin(), ready.end());
  EXPECT_EQ(ready, (std::vector<UpdateId>{2, 3}));
  EXPECT_TRUE(t.complete(2).empty());  // 1 still blocked on 3
  EXPECT_EQ(t.complete(3), (std::vector<UpdateId>{1}));
}

TEST(DependencyTracker, DisjointChainsProgressIndependently) {
  // The intra-domain parallelism property (§3.3): disjoint dependence
  // sets never block each other.
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {}), make(11, {12}), make(12, {})};
  auto ready = t.add(s);
  std::sort(ready.begin(), ready.end());
  EXPECT_EQ(ready, (std::vector<UpdateId>{2, 12}));
  EXPECT_EQ(t.complete(12), (std::vector<UpdateId>{11}));  // chain B advances
  EXPECT_EQ(t.blocked(), 1u);                              // chain A untouched
  EXPECT_EQ(t.complete(2), (std::vector<UpdateId>{1}));
}

TEST(DependencyTracker, DuplicateCompleteIsIdempotent) {
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {})};
  t.add(s);
  EXPECT_EQ(t.complete(2), (std::vector<UpdateId>{1}));
  EXPECT_TRUE(t.complete(2).empty());  // duplicate ack
}

TEST(DependencyTracker, UnknownCompleteIgnored) {
  DependencyTracker t;
  EXPECT_TRUE(t.complete(99).empty());
}

TEST(DependencyTracker, DependencyAlreadyCompleted) {
  DependencyTracker t;
  UpdateSchedule a;
  a.updates = {make(1, {})};
  t.add(a);
  t.complete(1);
  // A later schedule depending on the already-complete update is
  // immediately ready.
  UpdateSchedule b;
  b.updates = {make(2, {1})};
  EXPECT_EQ(t.add(b), (std::vector<UpdateId>{2}));
}

TEST(DependencyTracker, OutOfOrderAckOfBlockedUpdateDoesNotLeak) {
  // Regression: on a replicated control plane, the switch's ack for a
  // dependent update can overtake this replica's ack for its dependency
  // (another replica released the dependent first).  Completing a
  // still-blocked update must remove it from the blocked set — releasing
  // it again after the dependency completes would bump in_flight with no
  // completion left to drain it, leaving pending() stuck above zero.
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {}), make(2, {1})};
  auto ready = t.add(s);
  EXPECT_EQ(ready, (std::vector<UpdateId>{1}));

  ready = t.complete(2);  // ack for the blocked dependent arrives first
  EXPECT_TRUE(ready.empty());
  EXPECT_EQ(t.blocked(), 0u);

  ready = t.complete(1);  // the dependency's ack lands second
  EXPECT_TRUE(ready.empty());  // 2 must NOT be re-released
  EXPECT_EQ(t.pending(), 0u);
  EXPECT_TRUE(t.idle());
}

TEST(DependencyTracker, RejectsDuplicateIds) {
  DependencyTracker t;
  UpdateSchedule a;
  a.updates = {make(1, {})};
  t.add(a);
  UpdateSchedule b;
  b.updates = {make(1, {})};
  EXPECT_THROW(t.add(b), std::invalid_argument);
}

TEST(DependencyTracker, RejectsCyclicSchedule) {
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {1})};
  EXPECT_THROW(t.add(s), std::invalid_argument);
}

TEST(DependencyTracker, UpdateAccessor) {
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(7, {})};
  t.add(s);
  EXPECT_TRUE(t.knows(7));
  EXPECT_FALSE(t.knows(8));
  EXPECT_EQ(t.update(7).switch_node, 7u);
}

TEST(DependencyTracker, AbandonRemovesTransitiveDependents) {
  // Giving up on 3 strands 2 and 1 (blocked behind it) — abandon must
  // retire all three so the tracker drains.
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {3}), make(3, {})};
  t.add(s);
  auto removed = t.abandon(3);
  std::sort(removed.begin(), removed.end());
  EXPECT_EQ(removed, (std::vector<UpdateId>{1, 2, 3}));
  EXPECT_EQ(t.in_flight(), 0u);
  EXPECT_EQ(t.blocked(), 0u);
  EXPECT_TRUE(t.idle());
}

TEST(DependencyTracker, AbandonLeavesDisjointChainsAlone) {
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {}), make(11, {12}), make(12, {})};
  t.add(s);
  auto removed = t.abandon(2);
  std::sort(removed.begin(), removed.end());
  EXPECT_EQ(removed, (std::vector<UpdateId>{1, 2}));
  // Chain B is untouched and still completes normally.
  EXPECT_EQ(t.in_flight(), 1u);
  EXPECT_EQ(t.blocked(), 1u);
  EXPECT_EQ(t.complete(12), (std::vector<UpdateId>{11}));
  t.complete(11);
  EXPECT_TRUE(t.idle());
}

TEST(DependencyTracker, AbandonIsIdempotentAndSkipsCompleted) {
  DependencyTracker t;
  UpdateSchedule s;
  s.updates = {make(1, {2}), make(2, {})};
  t.add(s);
  t.complete(2);  // 1 now in flight
  auto removed = t.abandon(2);  // already completed: nothing to do
  EXPECT_TRUE(removed.empty());
  removed = t.abandon(1);
  EXPECT_EQ(removed, (std::vector<UpdateId>{1}));
  EXPECT_TRUE(t.abandon(1).empty());  // idempotent
  EXPECT_TRUE(t.idle());
}

}  // namespace
}  // namespace cicero::sched
