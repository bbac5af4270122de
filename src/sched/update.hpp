// Network update types shared by schedulers, controllers and switches.
//
// A network update u = (s, r) applies rule r at switch s (paper §3.1);
// an update dependence (u, D) says every update in D must be applied (and
// acknowledged) before u may be sent.  `UpdateSchedule` is a scheduler's
// output: the full set of updates for one intent together with their
// dependence sets.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/flow_table.hpp"
#include "util/codec.hpp"

namespace cicero::sched {

using UpdateId = std::uint64_t;

enum class UpdateOp : std::uint8_t { kInstall = 0, kRemove = 1 };
constexpr UpdateOp wire_max(UpdateOp) { return UpdateOp::kRemove; }

struct Update {
  UpdateId id = 0;
  net::NodeIndex switch_node = net::kNoNode;
  UpdateOp op = UpdateOp::kInstall;
  net::FlowRule rule;  ///< for kRemove only rule.match is meaningful

  void serialize(util::Writer& w) const;  ///< the fields() layout below
  bool operator==(const Update&) const = default;
};

/// Wire layout of an Update (util/codec.hpp); also what threshold
/// partials sign, behind the "cicero/update" domain.
template <class IO, util::Of<Update> U>
void fields(IO& io, U& u) {
  io(u.id, u.switch_node, u.op, u.rule.match.src_host, u.rule.match.dst_host, u.rule.next_hop,
     u.rule.reserved_bps);
}

struct ScheduledUpdate {
  Update update;
  std::vector<UpdateId> deps;  ///< updates that must complete first
};

struct UpdateSchedule {
  std::vector<ScheduledUpdate> updates;

  bool empty() const { return updates.empty(); }
  std::size_t size() const { return updates.size(); }
};

/// What a controller application wants done for one flow: establish a
/// route along `path` (host, switches..., host) or tear it down.
struct RouteIntent {
  enum class Kind : std::uint8_t { kEstablish = 0, kTeardown = 1 };
  Kind kind = Kind::kEstablish;
  net::FlowMatch match;
  std::vector<net::NodeIndex> path;  ///< src host, switch..., dst host
  double reserved_bps = 0.0;
};

}  // namespace cicero::sched
