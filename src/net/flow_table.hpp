// Data-plane flow tables.
//
// A forwarding rule matches a (source host, destination host) flow and
// names the next hop; a switch's flow table is the set of rules it
// currently enforces (paper §2.1: the data plane state is the union of all
// flow tables).  Rules carry the bandwidth reservation of the flows they
// serve so the consistency checker can detect link over-provisioning
// (Fig. 3) as well as loops and black holes (Fig. 2).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/topology.hpp"
#include "util/flat_hash.hpp"

namespace cicero::net {

struct FlowMatch {
  NodeIndex src_host = kNoNode;
  NodeIndex dst_host = kNoNode;
  bool operator==(const FlowMatch&) const = default;
};

struct FlowRule {
  FlowMatch match;
  NodeIndex next_hop = kNoNode;  ///< adjacent node to forward to
  double reserved_bps = 0.0;     ///< bandwidth reserved for the flow
  bool operator==(const FlowRule&) const = default;
};

/// One switch's forwarding state.
class FlowTable {
 public:
  /// Installs (or overwrites) a rule; bumps the table version.
  void install(const FlowRule& rule);

  /// Removes the rule for `match` if present; returns whether it existed.
  bool remove(const FlowMatch& match);

  std::optional<FlowRule> lookup(const FlowMatch& match) const;
  bool has(const FlowMatch& match) const { return rules_.contains(key(match)); }

  std::size_t size() const { return rules_.size(); }
  std::uint64_t version() const { return version_; }

  /// Snapshot of all rules, sorted by (src_host, dst_host).  Consumers
  /// iterate the snapshot to emit events (crash recovery, link-failure
  /// re-routing) and to accumulate floating-point link loads, so the
  /// order must not leak hash placement (DESIGN.md §13).
  std::vector<FlowRule> rules() const;

 private:
  /// Flat-hash key: the (src, dst) host pair packed into one u64, so the
  /// per-packet lookup is one mix + probe and placement responds to the
  /// hash-salt determinism sweep like every other hot table.
  static std::uint64_t key(const FlowMatch& m) {
    return (static_cast<std::uint64_t>(m.src_host) << 32) | m.dst_host;
  }

  util::FlatHashMap<std::uint64_t, FlowRule> rules_;
  std::uint64_t version_ = 0;
};

}  // namespace cicero::net
