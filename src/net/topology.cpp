#include "net/topology.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <set>
#include <stdexcept>

namespace cicero::net {

NodeIndex Topology::add_node(TopoNode node) {
  const NodeIndex id = static_cast<NodeIndex>(nodes_.size());
  nodes_.push_back(std::move(node));
  adjacency_.emplace_back();
  return id;
}

NodeIndex Topology::add_switch(std::string name, Placement placement, DomainId domain) {
  return add_node(TopoNode{std::move(name), NodeKind::kSwitch, placement, domain});
}

NodeIndex Topology::add_host(std::string name, Placement placement, DomainId domain) {
  return add_node(TopoNode{std::move(name), NodeKind::kHost, placement, domain});
}

std::size_t Topology::add_link(NodeIndex a, NodeIndex b, double bandwidth_bps,
                               sim::SimTime latency) {
  if (a >= nodes_.size() || b >= nodes_.size() || a == b) {
    throw std::invalid_argument("Topology::add_link: bad endpoints");
  }
  const std::size_t id = links_.size();
  links_.push_back(TopoLink{a, b, bandwidth_bps, latency});
  adjacency_[a].emplace_back(b, id);
  adjacency_[b].emplace_back(a, id);
  return id;
}

std::vector<NodeIndex> Topology::switches() const {
  std::vector<NodeIndex> out;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kSwitch) out.push_back(i);
  }
  return out;
}

std::vector<NodeIndex> Topology::hosts() const {
  std::vector<NodeIndex> out;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kHost) out.push_back(i);
  }
  return out;
}

std::vector<NodeIndex> Topology::switches_in_domain(DomainId d) const {
  std::vector<NodeIndex> out;
  for (NodeIndex i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].kind == NodeKind::kSwitch && nodes_[i].domain == d) out.push_back(i);
  }
  return out;
}

std::vector<DomainId> Topology::domains() const {
  std::set<DomainId> ds;
  for (const auto& n : nodes_) {
    if (n.kind == NodeKind::kSwitch) ds.insert(n.domain);
  }
  return std::vector<DomainId>(ds.begin(), ds.end());
}

std::vector<NodeIndex> Topology::shortest_path(NodeIndex src, NodeIndex dst) const {
  if (src >= nodes_.size() || dst >= nodes_.size()) {
    throw std::invalid_argument("Topology::shortest_path: bad endpoints");
  }
  if (src == dst) return {src};
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  std::vector<std::int64_t> dist(nodes_.size(), kInf);
  std::vector<NodeIndex> prev(nodes_.size(), kNoNode);
  using Entry = std::pair<std::int64_t, NodeIndex>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> pq;
  dist[src] = 0;
  pq.emplace(0, src);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d != dist[u]) continue;
    if (u == dst) break;
    for (const auto& [v, link_id] : adjacency_[u]) {
      if (!links_[link_id].up) continue;  // failed links carry no traffic
      // Hosts forward only as endpoints: paths may not transit a host.
      if (nodes_[v].kind == NodeKind::kHost && v != dst) continue;
      const std::int64_t nd = d + links_[link_id].latency;
      if (nd < dist[v] || (nd == dist[v] && u < prev[v])) {
        dist[v] = nd;
        prev[v] = u;
        pq.emplace(nd, v);
      }
    }
  }
  if (dist[dst] == kInf) return {};
  std::vector<NodeIndex> path;
  for (NodeIndex at = dst; at != kNoNode; at = prev[at]) path.push_back(at);
  std::reverse(path.begin(), path.end());
  return path;
}

sim::SimTime Topology::path_latency(const std::vector<NodeIndex>& path) const {
  sim::SimTime total = 0;
  for (std::size_t i = 1; i < path.size(); ++i) {
    total += links_[link_between(path[i - 1], path[i])].latency;
  }
  return total;
}

std::size_t Topology::link_between(NodeIndex a, NodeIndex b) const {
  for (const auto& [n, link_id] : adjacency_.at(a)) {
    if (n == b) return link_id;
  }
  throw std::invalid_argument("Topology::link_between: nodes not adjacent");
}

void Topology::set_link_up(std::size_t link_index, bool up) {
  links_.at(link_index).up = up;
}

bool Topology::link_up(NodeIndex a, NodeIndex b) const {
  return links_.at(link_between(a, b)).up;
}

NodeIndex Topology::host_tor(NodeIndex host) const {
  if (node(host).kind != NodeKind::kHost) {
    throw std::invalid_argument("Topology::host_tor: not a host");
  }
  for (const auto& [n, link_id] : adjacency_.at(host)) {
    (void)link_id;
    if (nodes_[n].kind == NodeKind::kSwitch) return n;
  }
  throw std::logic_error("Topology::host_tor: host has no switch neighbor");
}

namespace {

/// Adds one pod's switches and hosts to `topo`; returns the pod's edge
/// switch indices (for uplinks).
std::vector<NodeIndex> add_pod(Topology& topo, const FabricParams& p, std::uint32_t dc,
                               std::uint32_t pod, DomainId domain) {
  const std::string prefix =
      "dc" + std::to_string(dc) + ".pod" + std::to_string(pod) + ".";
  std::vector<NodeIndex> edges;
  for (std::uint32_t e = 0; e < p.edge_per_pod; ++e) {
    edges.push_back(topo.add_switch(prefix + "edge" + std::to_string(e),
                                    Placement{dc, pod, 0}, domain));
  }
  for (std::uint32_t r = 0; r < p.racks_per_pod; ++r) {
    const NodeIndex tor =
        topo.add_switch(prefix + "tor" + std::to_string(r), Placement{dc, pod, r}, domain);
    for (const NodeIndex e : edges) {
      topo.add_link(tor, e, p.fabric_link_gbps * 1e9, p.fabric_latency);
    }
    for (std::uint32_t h = 0; h < p.hosts_per_rack; ++h) {
      const NodeIndex host =
          topo.add_host(prefix + "r" + std::to_string(r) + ".h" + std::to_string(h),
                        Placement{dc, pod, r}, domain);
      topo.add_link(host, tor, p.host_link_gbps * 1e9, p.intra_rack_latency);
    }
  }
  return edges;
}

DomainId pod_domain(const FabricParams& p, std::uint32_t dc, std::uint32_t pod) {
  return p.domain_per_pod ? dc * p.pods_per_dc + pod : 0;
}

/// Domain used for spine/WAN interconnect switches.
DomainId interconnect_domain(const FabricParams& p) {
  return p.domain_per_pod ? p.data_centers * p.pods_per_dc : 0;
}

void add_dc(Topology& topo, const FabricParams& p, std::uint32_t dc,
            std::vector<NodeIndex>& dc_spines) {
  std::vector<std::vector<NodeIndex>> pod_edges;
  for (std::uint32_t pod = 0; pod < p.pods_per_dc; ++pod) {
    pod_edges.push_back(add_pod(topo, p, dc, pod, pod_domain(p, dc, pod)));
  }
  if (p.pods_per_dc > 1 || p.data_centers > 1) {
    const DomainId spine_dom = interconnect_domain(p);
    for (std::uint32_t s = 0; s < p.spine_switches; ++s) {
      const NodeIndex spine = topo.add_switch(
          "dc" + std::to_string(dc) + ".spine" + std::to_string(s), Placement{dc, 0, 0},
          spine_dom);
      dc_spines.push_back(spine);
      for (const auto& edges : pod_edges) {
        // Each spine connects to one edge switch per pod (staggered), which
        // keeps fan-in realistic at small scale.
        topo.add_link(edges[s % edges.size()], spine, p.fabric_link_gbps * 1e9,
                      p.fabric_latency);
      }
    }
  }
}

}  // namespace

Topology build_pod(const FabricParams& params) {
  FabricParams p = params;
  p.pods_per_dc = 1;
  p.data_centers = 1;
  Topology topo;
  add_pod(topo, p, 0, 0, pod_domain(p, 0, 0));
  return topo;
}

Topology build_datacenter(const FabricParams& params) {
  FabricParams p = params;
  p.data_centers = 1;
  Topology topo;
  std::vector<NodeIndex> spines;
  add_dc(topo, p, 0, spines);
  return topo;
}

Topology build_multi_dc(const FabricParams& params) {
  Topology topo;
  std::vector<std::vector<NodeIndex>> spines_per_dc(params.data_centers);
  for (std::uint32_t dc = 0; dc < params.data_centers; ++dc) {
    std::vector<NodeIndex> spines;
    add_dc(topo, params, dc, spines);
    spines_per_dc[dc] = std::move(spines);
  }
  if (params.data_centers < 2) return topo;

  // WAN: ring over the DCs plus chords every other DC — a small-scale
  // approximation of the Deutsche Telekom backbone's ring-with-chords mesh.
  const DomainId wan_dom = interconnect_domain(params);
  std::vector<NodeIndex> wan_routers;
  for (std::uint32_t dc = 0; dc < params.data_centers; ++dc) {
    const NodeIndex router = topo.add_switch("wan" + std::to_string(dc), Placement{dc, 0, 0},
                                             wan_dom);
    wan_routers.push_back(router);
    for (const NodeIndex spine : spines_per_dc[dc]) {
      topo.add_link(spine, router, params.wan_link_gbps * 1e9, params.fabric_latency);
    }
  }
  for (std::uint32_t dc = 0; dc < params.data_centers; ++dc) {
    const std::uint32_t next = (dc + 1) % params.data_centers;
    if (next != dc) {
      topo.add_link(wan_routers[dc], wan_routers[next], params.wan_link_gbps * 1e9,
                    params.wan_latency);
    }
  }
  if (params.data_centers > 3) {
    for (std::uint32_t dc = 0; dc + 2 < params.data_centers; dc += 2) {
      topo.add_link(wan_routers[dc], wan_routers[dc + 2], params.wan_link_gbps * 1e9,
                    params.wan_latency);
    }
  }
  return topo;
}

}  // namespace cicero::net
