// Runtime dependency tracking for in-flight update schedules.
//
// Controllers feed schedules into a `DependencyTracker`; updates with
// empty dependence sets are released immediately and, as switch
// acknowledgements arrive, `complete()` returns the updates that become
// ready — this is the release machinery behind the paper's intra-domain
// update parallelism (§3.3): updates whose dependence sets are disjoint
// flow through the tracker concurrently.
//
// Representation: one dense node array indexed by a flat-hash id->slot
// map, with reverse-dependence edges in an intrusive per-node linked list
// threaded through a shared edge pool.  The old implementation kept three
// `std::map`s (updates, blocked-with-unmet-sets, rdeps) whose node churn
// dominated controller CPU once schedules reached fat-tree path lengths;
// here `complete()` is one hash probe plus a walk of the completed
// node's edge chain, decrementing each dependent's unmet counter — no
// allocation, no tree rebalancing.  External semantics are unchanged and
// pinned by tests/sched/depgraph_property_test.cpp, which replays random
// schedules against a map-based reference model.
//
// `has_cycle` validates schedules (a cyclic schedule could never make
// progress; the paper's optimal-order work shows such cases exist, and a
// correct scheduler must fall back to packet-waits instead of emitting a
// cycle).
#pragma once

#include <cstdint>
#include <vector>

#include "sched/update.hpp"
#include "util/flat_hash.hpp"

namespace cicero::sched {

/// True if the schedule's dependence relation contains a cycle or a
/// dependence on an id outside the schedule.
bool has_cycle(const UpdateSchedule& schedule);

class DependencyTracker {
 public:
  /// Adds a schedule; returns the ids that are immediately ready.
  /// Throws std::invalid_argument on duplicate ids or cyclic schedules.
  std::vector<UpdateId> add(const UpdateSchedule& schedule);

  /// Marks `id` complete; returns newly ready ids.  Unknown or
  /// already-complete ids return empty (idempotent, since duplicate acks
  /// can arrive from a faulty network).
  std::vector<UpdateId> complete(UpdateId id);

  /// Abandons `id` and, transitively, every dependent that could now
  /// never be released: each uncompleted update in the closure is marked
  /// completed (so counters drain and late acks stay idempotent no-ops)
  /// and its edges are cleared.  Returns the ids actually abandoned in
  /// discovery order; empty for unknown or already-completed ids.
  std::vector<UpdateId> abandon(UpdateId id);

  /// Updates released but not yet completed.
  std::size_t in_flight() const { return in_flight_; }
  /// Updates not yet released.
  std::size_t blocked() const { return blocked_; }
  /// Updates not yet completed (released + blocked); the chaos suite
  /// asserts this drains to zero at quiescence under message loss.
  std::size_t pending() const { return in_flight_ + blocked_; }
  bool idle() const { return in_flight_ == 0 && blocked_ == 0; }

  const Update& update(UpdateId id) const;
  bool knows(UpdateId id) const { return index_.contains(id); }
  /// True once `id` has completed (acked or abandoned); false for
  /// unknown ids.
  bool completed(UpdateId id) const {
    const std::uint32_t* slot = index_.find(id);
    return slot != nullptr && nodes_[*slot].state == State::kCompleted;
  }

 private:
  static constexpr std::uint32_t kNoEdge = UINT32_MAX;

  enum class State : std::uint8_t { kBlocked, kInFlight, kCompleted };

  struct Node {
    Update update;
    State state = State::kBlocked;
    std::uint32_t unmet = 0;      ///< uncompleted dependencies (kBlocked only)
    std::uint32_t rdep_head = kNoEdge;  ///< first dependent edge
    std::uint32_t rdep_tail = kNoEdge;  ///< appended in insertion order, so
                                        ///< release order matches the old maps
  };
  struct Edge {
    std::uint32_t dependent;  ///< node slot waiting on the owner of this edge
    std::uint32_t next = kNoEdge;
  };

  void add_rdep(std::uint32_t dep_slot, std::uint32_t dependent_slot);

  util::FlatHashMap<UpdateId, std::uint32_t> index_;  ///< id -> slot in nodes_
  std::vector<Node> nodes_;
  std::vector<Edge> edges_;
  std::size_t in_flight_ = 0;
  std::size_t blocked_ = 0;
};

}  // namespace cicero::sched
