// Decentralized (ez-Segway-style) execution planning.
//
// In decentralized mode the controller stops driving the chain segment by
// segment: once the BFT-ordered intent is scheduled, every segment ships
// at once as a signed SegmentManifest and the switches sequence the chain
// in-band with signed SegmentDone signals (see DESIGN.md §15).  This
// module turns one domain-filtered schedule into those manifests: each
// segment's upstream gates (preds), downstream signal targets (succs), and
// whether it is a chain sink — the segment whose apply acks the control
// plane for its whole ancestor closure.
//
// Every correct controller derives the identical plan for the same
// ordered event (the plan reads nothing but the deterministic schedule),
// which is what makes the threshold quorum over manifest_signing_bytes
// meaningful.
#pragma once

#include <map>
#include <vector>

#include "core/messages.hpp"
#include "net/topology.hpp"
#include "sched/update.hpp"
#include "sim/network.hpp"

namespace cicero::core {

/// One schedule's worth of decentralized manifests, in schedule order.
struct DecentralizedPlan {
  std::vector<SegmentManifest> manifests;
  std::map<sched::UpdateId, std::size_t> index;  ///< update id -> manifests slot
  std::vector<sched::UpdateId> sinks;            ///< segments with no local dependents

  /// Ancestor closure of `id` (preds-transitive, including `id` itself),
  /// ascending by update id for deterministic completion order.  Empty if
  /// the plan does not contain `id`.
  std::vector<sched::UpdateId> ancestors(sched::UpdateId id) const;
};

/// Builds the manifest set for `local`, an already-domain-filtered
/// schedule.  Predecessors are each update's own dependence set;
/// successors are those edges inverted, in schedule order; dependencies
/// outside the schedule are dropped, so the plan is a pure function of the
/// ordered event.  `switch_nodes` resolves each peer's sim address so
/// switches need no topology directory of their own.
DecentralizedPlan plan_decentralized(const sched::UpdateSchedule& local,
                                     const std::map<net::NodeIndex, sim::NodeId>& switch_nodes);

}  // namespace cicero::core
