#include "sched/depgraph.hpp"

#include <stdexcept>

namespace cicero::sched {

bool has_cycle(const UpdateSchedule& schedule) {
  // Dense formulation: map the schedule's ids to [0, n) once, then run an
  // iterative three-color DFS over index vectors.  Visit order follows the
  // schedule's own update order, as the original map-based version did for
  // sorted ids — the predicate's answer is order-independent either way.
  const std::size_t n = schedule.updates.size();
  util::FlatHashMap<UpdateId, std::uint32_t> index(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    index.try_emplace(schedule.updates[i].update.id, i);
  }
  // deps as dense child lists; a dependence on an id outside the schedule
  // counts as a cycle (dangling dependence).
  std::vector<std::vector<std::uint32_t>> children(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    children[i].reserve(schedule.updates[i].deps.size());
    for (const UpdateId d : schedule.updates[i].deps) {
      const std::uint32_t* slot = index.find(d);
      if (slot == nullptr) return true;  // dangling dependence
      children[i].push_back(*slot);
    }
  }

  enum class Color : std::uint8_t { kWhite, kGray, kBlack };
  std::vector<Color> color(n, Color::kWhite);
  std::vector<std::pair<std::uint32_t, std::size_t>> stack;
  for (std::uint32_t start = 0; start < n; ++start) {
    if (color[start] != Color::kWhite) continue;
    color[start] = Color::kGray;
    stack.assign(1, {start, 0});
    while (!stack.empty()) {
      auto& [id, next] = stack.back();
      if (next < children[id].size()) {
        const std::uint32_t child = children[id][next++];
        if (color[child] == Color::kGray) return true;
        if (color[child] == Color::kWhite) {
          color[child] = Color::kGray;
          stack.emplace_back(child, 0);
        }
      } else {
        color[id] = Color::kBlack;
        stack.pop_back();
      }
    }
  }
  return false;
}

const Update& DependencyTracker::update(UpdateId id) const {
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr) throw std::out_of_range("DependencyTracker::update: unknown id");
  return nodes_[*slot].update;
}

void DependencyTracker::add_rdep(std::uint32_t dep_slot, std::uint32_t dependent_slot) {
  const std::uint32_t e = static_cast<std::uint32_t>(edges_.size());
  edges_.push_back(Edge{dependent_slot, kNoEdge});
  Node& dep = nodes_[dep_slot];
  if (dep.rdep_tail == kNoEdge) {
    dep.rdep_head = e;
  } else {
    edges_[dep.rdep_tail].next = e;
  }
  dep.rdep_tail = e;
}

std::vector<UpdateId> DependencyTracker::add(const UpdateSchedule& schedule) {
  // Cycle detection considers only this schedule's internal dependence
  // edges; a dependence on an update from an EARLIER schedule (known or
  // already completed) is a legitimate cross-schedule ordering.
  util::FlatHashSet<UpdateId> ids;
  ids.reserve(schedule.updates.size());
  for (const auto& su : schedule.updates) ids.insert(su.update.id);
  UpdateSchedule internal;
  internal.updates.reserve(schedule.updates.size());
  for (const auto& su : schedule.updates) {
    ScheduledUpdate filtered{su.update, {}};
    for (const UpdateId d : su.deps) {
      if (ids.contains(d)) filtered.deps.push_back(d);
    }
    internal.updates.push_back(std::move(filtered));
  }
  if (has_cycle(internal)) {
    throw std::invalid_argument("DependencyTracker::add: cyclic schedule");
  }
  for (const auto& su : schedule.updates) {
    for (const UpdateId d : su.deps) {
      if (!ids.contains(d) && !index_.contains(d)) {
        throw std::invalid_argument("DependencyTracker::add: unknown dependence");
      }
    }
  }
  for (const auto& su : schedule.updates) {
    if (index_.contains(su.update.id)) {
      throw std::invalid_argument("DependencyTracker::add: duplicate update id");
    }
  }

  // Validation passed: insert every node first (intra-schedule deps may
  // point forward), then wire the edges and count unmet dependencies.
  // NB: no reserve(size + k) here — that would realloc the arena to the
  // exact new size on every batch (quadratic copying); push_back's
  // geometric growth amortizes instead.
  const std::uint32_t base = static_cast<std::uint32_t>(nodes_.size());
  for (const auto& su : schedule.updates) {
    index_.try_emplace(su.update.id, static_cast<std::uint32_t>(nodes_.size()));
    Node node;
    node.update = su.update;
    nodes_.push_back(std::move(node));
  }

  std::vector<UpdateId> ready;
  for (std::uint32_t i = 0; i < schedule.updates.size(); ++i) {
    const auto& su = schedule.updates[i];
    Node& node = nodes_[base + i];
    for (const UpdateId d : su.deps) {
      const std::uint32_t dep_slot = *index_.find(d);
      if (nodes_[dep_slot].state == State::kCompleted) continue;
      ++node.unmet;
      add_rdep(dep_slot, base + i);
    }
    if (node.unmet == 0) {
      node.state = State::kInFlight;
      ready.push_back(su.update.id);
      ++in_flight_;
    } else {
      ++blocked_;
    }
  }
  return ready;
}

std::vector<UpdateId> DependencyTracker::complete(UpdateId id) {
  std::vector<UpdateId> ready;
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr || nodes_[*slot].state == State::kCompleted) return ready;
  Node& node = nodes_[*slot];
  if (node.state == State::kBlocked) {
    // Completed while still blocked here: another replica released it and
    // the switch's ack overtook our own dependency acks.  Marking it
    // completed keeps it from ever being released locally — re-releasing
    // a completed update would bump in_flight_ with no completion left to
    // drain it.
    --blocked_;
  } else if (in_flight_ > 0) {
    --in_flight_;
  }
  node.state = State::kCompleted;

  for (std::uint32_t e = node.rdep_head; e != kNoEdge; e = edges_[e].next) {
    Node& dependent = nodes_[edges_[e].dependent];
    if (dependent.state != State::kBlocked) continue;  // acked out of order
    if (--dependent.unmet == 0) {
      dependent.state = State::kInFlight;
      --blocked_;
      ++in_flight_;
      ready.push_back(dependent.update.id);
    }
  }
  node.rdep_head = kNoEdge;
  node.rdep_tail = kNoEdge;
  return ready;
}

std::vector<UpdateId> DependencyTracker::abandon(UpdateId id) {
  std::vector<UpdateId> removed;
  const std::uint32_t* slot = index_.find(id);
  if (slot == nullptr || nodes_[*slot].state == State::kCompleted) return removed;

  // BFS over reverse-dependence chains; `removed` doubles as the frontier.
  // Each abandoned node takes the same counter transitions complete()
  // would, so pending() drains and a late ack for an abandoned id is the
  // usual already-completed no-op.
  std::vector<std::uint32_t> frontier{*slot};
  while (!frontier.empty()) {
    const std::uint32_t s = frontier.back();
    frontier.pop_back();
    Node& node = nodes_[s];
    if (node.state == State::kCompleted) continue;
    if (node.state == State::kBlocked) {
      --blocked_;
    } else if (in_flight_ > 0) {
      --in_flight_;
    }
    node.state = State::kCompleted;
    removed.push_back(node.update.id);
    for (std::uint32_t e = node.rdep_head; e != kNoEdge; e = edges_[e].next) {
      frontier.push_back(edges_[e].dependent);
    }
    node.rdep_head = kNoEdge;
    node.rdep_tail = kNoEdge;
  }
  return removed;
}

}  // namespace cicero::sched
