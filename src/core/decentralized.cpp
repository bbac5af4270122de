#include "core/decentralized.hpp"

#include <algorithm>

namespace cicero::core {

std::vector<sched::UpdateId> DecentralizedPlan::ancestors(sched::UpdateId id) const {
  std::vector<sched::UpdateId> closure;
  if (index.find(id) == index.end()) return closure;
  std::vector<sched::UpdateId> frontier{id};
  while (!frontier.empty()) {
    const sched::UpdateId cur = frontier.back();
    frontier.pop_back();
    if (std::find(closure.begin(), closure.end(), cur) != closure.end()) continue;
    closure.push_back(cur);
    const auto slot = index.find(cur);
    if (slot == index.end()) continue;
    for (const SegmentPeer& p : manifests[slot->second].preds) {
      frontier.push_back(p.update_id);
    }
  }
  std::sort(closure.begin(), closure.end());
  return closure;
}

DecentralizedPlan plan_decentralized(const sched::UpdateSchedule& local,
                                     const std::map<net::NodeIndex, sim::NodeId>& switch_nodes) {
  DecentralizedPlan out;
  std::map<sched::UpdateId, net::NodeIndex> segment_switch;
  for (const auto& su : local.updates) segment_switch[su.update.id] = su.update.switch_node;

  const auto peer_of = [&](sched::UpdateId id) {
    SegmentPeer p;
    p.update_id = id;
    p.switch_node = segment_switch.at(id);
    const auto node = switch_nodes.find(p.switch_node);
    p.node = node != switch_nodes.end() ? node->second : sim::kInvalidNode;
    return p;
  };

  out.manifests.reserve(local.updates.size());
  for (const auto& su : local.updates) {
    SegmentManifest m;
    m.update = su.update;
    for (const sched::UpdateId d : su.deps) {
      if (segment_switch.count(d) != 0) m.preds.push_back(peer_of(d));
    }
    out.index[su.update.id] = out.manifests.size();
    out.manifests.push_back(std::move(m));
  }
  // Successors invert the dependence edges, walked in schedule order.
  for (const auto& su : local.updates) {
    for (const sched::UpdateId d : su.deps) {
      const auto slot = out.index.find(d);
      if (slot == out.index.end()) continue;
      out.manifests[slot->second].succs.push_back(peer_of(su.update.id));
    }
  }
  for (SegmentManifest& m : out.manifests) {
    m.sink = m.succs.empty();
    if (m.sink) out.sinks.push_back(m.update.id);
  }
  return out;
}

}  // namespace cicero::core
