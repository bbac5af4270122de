// Property-based test: the dense DependencyTracker against a naive
// reference model, over seeded random DAG schedules and random ack
// orders.  For every operation the two must agree on the released set,
// and at quiescence neither may leak in-flight or blocked state.  Runs
// under `ctest -L property`.
#include "sched/depgraph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace cicero::sched {
namespace {

/// Straight-line reference semantics of the tracker, kept deliberately
/// dumb: explicit unmet sets, linear scans, no indices.  Mirrors the
/// documented contract, not the implementation.
class ReferenceTracker {
 public:
  std::vector<UpdateId> add(const UpdateSchedule& schedule) {
    std::vector<UpdateId> released;
    for (const auto& su : schedule.updates) known_.insert(su.update.id);
    for (const auto& su : schedule.updates) {
      std::set<UpdateId> unmet;
      for (const UpdateId d : su.deps) {
        if (completed_.count(d) == 0) unmet.insert(d);
      }
      if (unmet.empty()) {
        in_flight_.insert(su.update.id);
        released.push_back(su.update.id);
      } else {
        blocked_[su.update.id] = std::move(unmet);
      }
    }
    return released;
  }

  std::vector<UpdateId> complete(UpdateId id) {
    std::vector<UpdateId> released;
    if (known_.count(id) == 0 || completed_.count(id) != 0) return released;
    completed_.insert(id);
    // Out-of-order ack of a still-blocked update: it just stops being
    // blocked, it is never released locally.
    blocked_.erase(id);
    in_flight_.erase(id);
    for (auto it = blocked_.begin(); it != blocked_.end();) {
      it->second.erase(id);
      if (it->second.empty()) {
        released.push_back(it->first);
        in_flight_.insert(it->first);
        it = blocked_.erase(it);
      } else {
        ++it;
      }
    }
    return released;
  }

  std::size_t in_flight() const { return in_flight_.size(); }
  std::size_t blocked() const { return blocked_.size(); }

 private:
  std::set<UpdateId> known_, completed_, in_flight_;
  std::map<UpdateId, std::set<UpdateId>> blocked_;
};

std::vector<UpdateId> sorted(std::vector<UpdateId> v) {
  std::sort(v.begin(), v.end());
  return v;
}

/// Random DAG batch: update i may depend on earlier updates of the same
/// batch (forward-reference-free by construction => acyclic) and, with
/// some probability, on ids from earlier batches (completed or not).
ScheduledUpdate scheduled(UpdateId id, std::vector<UpdateId> deps) {
  ScheduledUpdate su;
  su.update.id = id;
  su.deps = std::move(deps);
  return su;
}

UpdateSchedule random_batch(util::Rng& rng, UpdateId first_id, std::size_t n,
                            const std::vector<UpdateId>& earlier_ids) {
  UpdateSchedule schedule;
  for (std::size_t i = 0; i < n; ++i) {
    ScheduledUpdate su;
    su.update.id = first_id + i;
    su.update.switch_node = static_cast<net::NodeIndex>(rng.next_below(64));
    for (std::size_t j = 0; j < i; ++j) {
      if (rng.chance(0.25)) su.deps.push_back(first_id + j);
    }
    if (!earlier_ids.empty() && rng.chance(0.3)) {
      su.deps.push_back(earlier_ids[rng.next_below(earlier_ids.size())]);
    }
    schedule.updates.push_back(std::move(su));
  }
  return schedule;
}

TEST(DepgraphProperty, MatchesReferenceModelAcrossSeeds) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    util::Rng rng(seed);
    DependencyTracker dense;
    ReferenceTracker ref;
    std::vector<UpdateId> all_ids;
    std::vector<UpdateId> unacked;
    UpdateId next_id = 1;

    for (int batch = 0; batch < 12; ++batch) {
      const std::size_t n = 1 + rng.next_below(12);
      const UpdateSchedule schedule = random_batch(rng, next_id, n, all_ids);
      next_id += n;
      for (const auto& su : schedule.updates) {
        all_ids.push_back(su.update.id);
        unacked.push_back(su.update.id);
      }

      const auto dense_rel = dense.add(schedule);
      const auto ref_rel = ref.add(schedule);
      ASSERT_EQ(sorted(dense_rel), sorted(ref_rel)) << "seed " << seed << " batch " << batch;
      ASSERT_EQ(dense.in_flight(), ref.in_flight()) << "seed " << seed;
      ASSERT_EQ(dense.blocked(), ref.blocked()) << "seed " << seed;

      // Ack a random prefix of the outstanding updates, in random order —
      // including, sometimes, updates that are still blocked (the
      // out-of-order-ack case a remote replica's release can produce).
      rng.shuffle(unacked);
      const std::size_t acks = rng.next_below(unacked.size() + 1);
      for (std::size_t a = 0; a < acks; ++a) {
        const UpdateId id = unacked.back();
        unacked.pop_back();
        const auto dr = dense.complete(id);
        const auto rr = ref.complete(id);
        ASSERT_EQ(sorted(dr), sorted(rr)) << "seed " << seed << " ack of " << id;
        ASSERT_EQ(dense.in_flight(), ref.in_flight()) << "seed " << seed;
        ASSERT_EQ(dense.blocked(), ref.blocked()) << "seed " << seed;
      }
    }

    // Drain everything: both models must reach the same quiescent state
    // with no in-flight or blocked residue (the leak the chaos suite
    // guards at deployment level, here at the structure level).
    rng.shuffle(unacked);
    while (!unacked.empty()) {
      const UpdateId id = unacked.back();
      unacked.pop_back();
      ASSERT_EQ(sorted(dense.complete(id)), sorted(ref.complete(id))) << "seed " << seed;
    }
    EXPECT_EQ(dense.in_flight(), 0u) << "seed " << seed;
    EXPECT_EQ(dense.blocked(), 0u) << "seed " << seed;
    EXPECT_EQ(ref.in_flight(), 0u) << "seed " << seed;
    EXPECT_EQ(ref.blocked(), 0u) << "seed " << seed;
    EXPECT_TRUE(dense.idle()) << "seed " << seed;
  }
}

TEST(DepgraphProperty, DuplicateAcksAndUnknownIdsAreInert) {
  for (std::uint64_t seed = 100; seed < 110; ++seed) {
    util::Rng rng(seed);
    DependencyTracker dense;
    ReferenceTracker ref;
    const UpdateSchedule schedule = random_batch(rng, 1, 10, {});
    ASSERT_EQ(sorted(dense.add(schedule)), sorted(ref.add(schedule)));
    for (int i = 0; i < 50; ++i) {
      // Ids 1..10 exist (possibly already acked); 11..20 are unknown.
      const UpdateId id = 1 + rng.next_below(20);
      ASSERT_EQ(sorted(dense.complete(id)), sorted(ref.complete(id)))
          << "seed " << seed << " id " << id;
      ASSERT_EQ(dense.in_flight(), ref.in_flight());
      ASSERT_EQ(dense.blocked(), ref.blocked());
    }
  }
}

TEST(DepgraphProperty, RandomCyclesAreRejected) {
  for (std::uint64_t seed = 1; seed <= 30; ++seed) {
    util::Rng rng(seed);
    const std::size_t n = 3 + rng.next_below(10);
    UpdateSchedule schedule = random_batch(rng, 1, n, {});
    // Close a random back edge: pick a < b and make a depend on b, then
    // force b to (transitively) depend on a via the direct edge b <- a
    // already implied?  Simplest guaranteed cycle: a -> b and b -> a.
    const std::size_t a = rng.next_below(n - 1);
    const std::size_t b = a + 1 + rng.next_below(n - a - 1);
    schedule.updates[a].deps.push_back(schedule.updates[b].update.id);
    schedule.updates[b].deps.push_back(schedule.updates[a].update.id);

    EXPECT_TRUE(has_cycle(schedule)) << "seed " << seed;
    DependencyTracker dense;
    EXPECT_THROW(dense.add(schedule), std::invalid_argument) << "seed " << seed;
    // A rejected batch must leave the tracker untouched and usable.
    EXPECT_TRUE(dense.idle());
    UpdateSchedule ok;
    ok.updates.push_back(scheduled(999, {}));
    EXPECT_EQ(dense.add(ok), std::vector<UpdateId>{999u});
  }
}

TEST(DepgraphProperty, UnknownDependenceRejectedCleanly) {
  DependencyTracker dense;
  UpdateSchedule schedule;
  schedule.updates.push_back(scheduled(1, {42}));  // 42 never added
  EXPECT_THROW(dense.add(schedule), std::invalid_argument);
  EXPECT_TRUE(dense.idle());
  EXPECT_FALSE(dense.knows(1));  // nothing half-inserted
}

}  // namespace
}  // namespace cicero::sched
