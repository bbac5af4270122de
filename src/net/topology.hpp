// Network topology: switches, hosts, links, and the builders for the
// paper's evaluation fabrics.
//
// The evaluation (paper §6) uses the Facebook data-center fabric: server
// pods of `racks` top-of-rack switches, each ToR connected to 4 edge
// switches (Fig. 10); pods are joined by spine switches; multiple data
// centers are joined by a WAN whose shape approximates the Deutsche
// Telekom topology from the Internet Topology Zoo.  `TopologyBuilder`
// reproduces those shapes at configurable scale.
//
// Every switch carries a `domain` label — Cicero's unit of control-plane
// isolation (§3.3) — assigned by the builders (one domain per pod, plus an
// interconnect domain) or manually.
//
// Routing is memoized: every controller replica of every domain on a
// flow's path asks for the same route, so `shortest_path` runs Dijkstra
// once per (src, dst) pair and answers repeats from a memo that the two
// route-changing mutators (`add_link`, `set_link_up`) clear.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "sim/time.hpp"
#include "util/bytes.hpp"
#include "util/flat_hash.hpp"
#include "util/thread_annotations.hpp"

namespace cicero::net {

using NodeIndex = std::uint32_t;
using DomainId = std::uint32_t;
constexpr NodeIndex kNoNode = UINT32_MAX;

enum class NodeKind : std::uint8_t { kSwitch, kHost };

/// Where a node lives in the fabric hierarchy (for locality accounting).
struct Placement {
  std::uint32_t dc = 0;    ///< data center index
  std::uint32_t pod = 0;   ///< pod within the data center
  std::uint32_t rack = 0;  ///< rack within the pod (hosts and ToRs)
};

struct TopoNode {
  std::string name;
  NodeKind kind = NodeKind::kSwitch;
  Placement placement;
  DomainId domain = 0;
};

struct TopoLink {
  NodeIndex a = kNoNode;
  NodeIndex b = kNoNode;
  double bandwidth_bps = 10e9;
  sim::SimTime latency = sim::microseconds(20);
  bool up = true;  ///< failed links are skipped by routing (paper §2: topology changes)
};

class Topology {
 public:
  Topology() = default;
  /// Copies and moves carry the graph but never the route memo, whose
  /// mutex can be neither copied nor moved: a constructed copy starts
  /// with an empty memo and a zero miss count, and an assignment clears
  /// the memo as any other graph change does.
  Topology(const Topology& other);
  Topology(Topology&& other) noexcept;
  Topology& operator=(const Topology& other);
  Topology& operator=(Topology&& other) noexcept;

  NodeIndex add_switch(std::string name, Placement placement, DomainId domain);
  NodeIndex add_host(std::string name, Placement placement, DomainId domain);
  /// Adds a bidirectional link; returns its index.
  std::size_t add_link(NodeIndex a, NodeIndex b, double bandwidth_bps, sim::SimTime latency);

  const TopoNode& node(NodeIndex i) const { return nodes_.at(i); }
  /// Relabels a node's control domain.  The domain is the only node field
  /// writable after construction: `kind` is a routing input (paths never
  /// transit a host), so a writable node would bypass the route memo.
  void set_domain(NodeIndex i, DomainId domain) { nodes_.at(i).domain = domain; }
  const TopoLink& link(std::size_t i) const { return links_.at(i); }
  std::size_t node_count() const { return nodes_.size(); }
  std::size_t link_count() const { return links_.size(); }

  bool is_switch(NodeIndex i) const { return node(i).kind == NodeKind::kSwitch; }
  std::vector<NodeIndex> switches() const;
  std::vector<NodeIndex> hosts() const;
  std::vector<NodeIndex> switches_in_domain(DomainId d) const;
  std::vector<DomainId> domains() const;  ///< distinct switch domains, sorted

  /// Neighbors of `i` as (neighbor, link index) pairs.
  const std::vector<std::pair<NodeIndex, std::size_t>>& neighbors(NodeIndex i) const {
    return adjacency_.at(i);
  }

  /// Latency-weighted shortest path (Dijkstra, deterministic tie-break on
  /// node index).  Returns the node sequence src..dst inclusive, or empty
  /// if unreachable.  Memoized per (src, dst) and safe to call from
  /// several threads at once; the path is returned by value because the
  /// memo's slots move when it grows.
  std::vector<NodeIndex> shortest_path(NodeIndex src, NodeIndex dst) const;

  /// Dijkstra runs (memo misses) since construction, and the number of
  /// routes memoized now.  Host-side bookkeeping only: neither feeds any
  /// simulated quantity.
  std::uint64_t dijkstra_runs() const;
  std::size_t route_memo_size() const;

  /// Sum of link latencies along a path.
  sim::SimTime path_latency(const std::vector<NodeIndex>& path) const;

  /// Link index between adjacent nodes; throws if not adjacent.
  std::size_t link_between(NodeIndex a, NodeIndex b) const;

  /// Marks a link up/down; routing ignores down links.  Models the
  /// topology changes of paper §2 ("failures happen in switch or fabric
  /// hardware ... may also result in network updates").
  void set_link_up(std::size_t link_index, bool up);
  bool link_up(NodeIndex a, NodeIndex b) const;

  /// The ToR switch a host attaches to (first switch neighbor).
  NodeIndex host_tor(NodeIndex host) const;

 private:
  NodeIndex add_node(TopoNode node);
  std::vector<NodeIndex> dijkstra(NodeIndex src, NodeIndex dst) const;
  void clear_route_memo();

  std::vector<TopoNode> nodes_;
  std::vector<TopoLink> links_;
  std::vector<std::vector<std::pair<NodeIndex, std::size_t>>> adjacency_;

  // Route memo, keyed by util::ordered_pair_key(src, dst).  The parallel
  // engine's shards share one Topology, so the memo is locked, and a miss
  // runs Dijkstra under the lock: each key misses exactly once between
  // invalidations.
  mutable util::Mutex memo_mu_;
  mutable util::FlatHashMap<std::uint64_t, std::vector<NodeIndex>> memo_
      CICERO_GUARDED_BY(memo_mu_);
  mutable std::uint64_t dijkstra_runs_ CICERO_GUARDED_BY(memo_mu_) = 0;
};

/// Scale parameters for the evaluation fabrics (paper defaults are large;
/// these defaults are sized for fast simulation and can be raised).
struct FabricParams {
  std::uint32_t racks_per_pod = 8;       ///< paper: 40
  std::uint32_t hosts_per_rack = 4;      ///< enough to generate traffic
  std::uint32_t edge_per_pod = 4;        ///< paper: 4 (Fig. 10)
  std::uint32_t pods_per_dc = 1;
  std::uint32_t spine_switches = 4;      ///< joins pods within a DC
  std::uint32_t data_centers = 1;
  double host_link_gbps = 10.0;
  double fabric_link_gbps = 40.0;
  double wan_link_gbps = 100.0;
  sim::SimTime intra_rack_latency = sim::microseconds(15);
  sim::SimTime fabric_latency = sim::microseconds(25);
  sim::SimTime wan_latency = sim::milliseconds(6);  ///< per WAN hop (DT scale)
  /// Domain assignment: one domain per pod when true, single domain 0 when
  /// false.  Multi-DC builds always get an extra interconnect domain for
  /// spine/WAN switches when per-pod domains are on.
  bool domain_per_pod = false;
};

/// Builds one server pod (Fig. 10): ToR + edge switches + hosts.
Topology build_pod(const FabricParams& params);

/// Builds a data center of `pods_per_dc` pods joined by spine switches.
Topology build_datacenter(const FabricParams& params);

/// Builds `data_centers` DCs joined by a WAN ring with chords, which mimics
/// the Deutsche Telekom national backbone's mesh density at small scale.
Topology build_multi_dc(const FabricParams& params);

}  // namespace cicero::net
