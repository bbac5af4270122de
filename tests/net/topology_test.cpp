#include "net/topology.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <set>
#include <utility>

#include "workload/topo_gen.hpp"

namespace cicero::net {
namespace {

FabricParams small_params() {
  FabricParams p;
  p.racks_per_pod = 3;
  p.hosts_per_rack = 2;
  return p;
}

TEST(Topology, PodShape) {
  const Topology t = build_pod(small_params());
  // 4 edge + 3 ToR switches, 6 hosts.
  EXPECT_EQ(t.switches().size(), 7u);
  EXPECT_EQ(t.hosts().size(), 6u);
  // Each ToR connects to all 4 edges plus its hosts.
  for (const NodeIndex sw : t.switches()) {
    if (t.node(sw).name.find("tor") != std::string::npos) {
      EXPECT_EQ(t.neighbors(sw).size(), 4u + 2u);
    }
  }
}

TEST(Topology, HostsAttachToSingleTor) {
  const Topology t = build_pod(small_params());
  for (const NodeIndex h : t.hosts()) {
    EXPECT_EQ(t.neighbors(h).size(), 1u);
    const NodeIndex tor = t.host_tor(h);
    EXPECT_TRUE(t.is_switch(tor));
    EXPECT_NE(t.node(tor).name.find("tor"), std::string::npos);
  }
}

TEST(Topology, HostTorRejectsSwitch) {
  const Topology t = build_pod(small_params());
  EXPECT_THROW(t.host_tor(t.switches().front()), std::invalid_argument);
}

TEST(Topology, ShortestPathSameRack) {
  const Topology t = build_pod(small_params());
  // Two hosts in rack 0: path host -> tor0 -> host.
  std::vector<NodeIndex> rack0;
  for (const NodeIndex h : t.hosts()) {
    if (t.node(h).placement.rack == 0) rack0.push_back(h);
  }
  ASSERT_GE(rack0.size(), 2u);
  const auto path = t.shortest_path(rack0[0], rack0[1]);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path[1], t.host_tor(rack0[0]));
}

TEST(Topology, ShortestPathCrossRackGoesThroughEdge) {
  const Topology t = build_pod(small_params());
  NodeIndex h0 = kNoNode, h1 = kNoNode;
  for (const NodeIndex h : t.hosts()) {
    if (t.node(h).placement.rack == 0 && h0 == kNoNode) h0 = h;
    if (t.node(h).placement.rack == 1 && h1 == kNoNode) h1 = h;
  }
  const auto path = t.shortest_path(h0, h1);
  // host, tor, edge, tor, host.
  ASSERT_EQ(path.size(), 5u);
  EXPECT_NE(t.node(path[2]).name.find("edge"), std::string::npos);
}

TEST(Topology, PathsNeverTransitHosts) {
  FabricParams p = small_params();
  const Topology t = build_pod(p);
  const auto hosts = t.hosts();
  for (std::size_t i = 0; i < hosts.size(); ++i) {
    for (std::size_t j = i + 1; j < hosts.size(); ++j) {
      const auto path = t.shortest_path(hosts[i], hosts[j]);
      ASSERT_GE(path.size(), 3u);
      for (std::size_t k = 1; k + 1 < path.size(); ++k) {
        EXPECT_TRUE(t.is_switch(path[k]));
      }
    }
  }
}

TEST(Topology, PathLatencyAndBandwidth) {
  const Topology t = build_pod(small_params());
  const auto hosts = t.hosts();
  const auto path = t.shortest_path(hosts[0], hosts[1]);
  EXPECT_GT(t.path_latency(path), 0);
  for (std::size_t i = 1; i < path.size(); ++i) {
    EXPECT_GT(t.link(t.link_between(path[i - 1], path[i])).bandwidth_bps, 0.0);
  }
}

TEST(Topology, LinkBetweenValidatesAdjacency) {
  const Topology t = build_pod(small_params());
  const auto hosts = t.hosts();
  EXPECT_NO_THROW(t.link_between(hosts[0], t.host_tor(hosts[0])));
  EXPECT_THROW(t.link_between(hosts[0], hosts[1]), std::invalid_argument);
}

TEST(Topology, MultiPodDatacenterConnected) {
  FabricParams p = small_params();
  p.pods_per_dc = 3;
  const Topology t = build_datacenter(p);
  NodeIndex a = kNoNode, b = kNoNode;
  for (const NodeIndex h : t.hosts()) {
    if (t.node(h).placement.pod == 0 && a == kNoNode) a = h;
    if (t.node(h).placement.pod == 2 && b == kNoNode) b = h;
  }
  ASSERT_NE(a, kNoNode);
  ASSERT_NE(b, kNoNode);
  EXPECT_FALSE(t.shortest_path(a, b).empty());
}

TEST(Topology, MultiDcConnectedAndSlower) {
  FabricParams p = small_params();
  p.pods_per_dc = 1;
  p.data_centers = 4;
  const Topology t = build_multi_dc(p);
  NodeIndex a = kNoNode, b = kNoNode, a2 = kNoNode;
  for (const NodeIndex h : t.hosts()) {
    const auto& pl = t.node(h).placement;
    if (pl.dc == 0 && a == kNoNode) a = h;
    else if (pl.dc == 0 && a2 == kNoNode) a2 = h;
    if (pl.dc == 2 && b == kNoNode) b = h;
  }
  const auto far = t.shortest_path(a, b);
  const auto near = t.shortest_path(a, a2);
  ASSERT_FALSE(far.empty());
  ASSERT_FALSE(near.empty());
  EXPECT_GT(t.path_latency(far), t.path_latency(near));
}

TEST(Topology, DomainPerPodAssignsDomains) {
  FabricParams p = small_params();
  p.pods_per_dc = 2;
  p.domain_per_pod = true;
  const Topology t = build_datacenter(p);
  const auto domains = t.domains();
  // 2 pod domains + 1 interconnect domain (spines).
  EXPECT_EQ(domains.size(), 3u);
  for (const NodeIndex sw : t.switches_in_domain(0)) {
    EXPECT_EQ(t.node(sw).placement.pod, 0u);
  }
}

TEST(Topology, SingleDomainByDefault) {
  const Topology t = build_pod(small_params());
  EXPECT_EQ(t.domains().size(), 1u);
}

TEST(Topology, SelfPathIsTrivial) {
  const Topology t = build_pod(small_params());
  const auto hosts = t.hosts();
  EXPECT_EQ(t.shortest_path(hosts[0], hosts[0]), std::vector<NodeIndex>{hosts[0]});
}

/// Property sweep: structural invariants across fabric scales.
class TopologySweep
    : public ::testing::TestWithParam<std::tuple<std::uint32_t, std::uint32_t, std::uint32_t>> {
 protected:
  Topology build() const {
    FabricParams p;
    p.racks_per_pod = std::get<0>(GetParam());
    p.hosts_per_rack = 2;
    p.pods_per_dc = std::get<1>(GetParam());
    p.data_centers = std::get<2>(GetParam());
    return p.data_centers > 1 ? build_multi_dc(p)
                              : (p.pods_per_dc > 1 ? build_datacenter(p) : build_pod(p));
  }
};

INSTANTIATE_TEST_SUITE_P(Scales, TopologySweep,
                         ::testing::Values(std::make_tuple(2u, 1u, 1u),
                                           std::make_tuple(6u, 1u, 1u),
                                           std::make_tuple(3u, 3u, 1u),
                                           std::make_tuple(2u, 2u, 3u),
                                           std::make_tuple(2u, 2u, 5u)));

TEST_P(TopologySweep, AllHostPairsConnected) {
  const Topology t = build();
  const auto hosts = t.hosts();
  // Sample pairs (full O(n^2) is wasteful at the larger scales).
  for (std::size_t i = 0; i < hosts.size(); i += 3) {
    for (std::size_t j = 1; j < hosts.size(); j += 5) {
      if (hosts[i] == hosts[j]) continue;
      EXPECT_FALSE(t.shortest_path(hosts[i], hosts[j]).empty());
    }
  }
}

TEST_P(TopologySweep, PathsAreSimple) {
  const Topology t = build();
  const auto hosts = t.hosts();
  for (std::size_t i = 0; i + 1 < hosts.size(); i += 2) {
    const auto path = t.shortest_path(hosts[i], hosts[i + 1]);
    std::set<NodeIndex> uniq(path.begin(), path.end());
    EXPECT_EQ(uniq.size(), path.size());
    // Consecutive path nodes are adjacent over up links.
    for (std::size_t k = 1; k < path.size(); ++k) {
      EXPECT_NO_THROW(t.link_between(path[k - 1], path[k]));
      EXPECT_TRUE(t.link_up(path[k - 1], path[k]));
    }
  }
}

TEST_P(TopologySweep, PathsAreSymmetricInLength) {
  const Topology t = build();
  const auto hosts = t.hosts();
  for (std::size_t i = 0; i + 1 < hosts.size(); i += 4) {
    const auto ab = t.shortest_path(hosts[i], hosts[i + 1]);
    const auto ba = t.shortest_path(hosts[i + 1], hosts[i]);
    EXPECT_EQ(t.path_latency(ab), t.path_latency(ba));
  }
}

TEST_P(TopologySweep, EverySwitchHasADomain) {
  const Topology t = build();
  const auto domains = t.domains();
  std::size_t covered = 0;
  for (const auto d : domains) covered += t.switches_in_domain(d).size();
  EXPECT_EQ(covered, t.switches().size());
}

TEST(Topology, AddLinkValidation) {
  Topology t;
  const NodeIndex a = t.add_switch("a", {}, 0);
  EXPECT_THROW(t.add_link(a, a, 1e9, 1), std::invalid_argument);
  EXPECT_THROW(t.add_link(a, 42, 1e9, 1), std::invalid_argument);
}

// --- route memo -------------------------------------------------------------

using Pairs = std::vector<std::pair<NodeIndex, NodeIndex>>;

Pairs all_host_pairs(const Topology& t) {
  Pairs out;
  for (const NodeIndex a : t.hosts()) {
    for (const NodeIndex b : t.hosts()) {
      if (a != b) out.emplace_back(a, b);
    }
  }
  return out;
}

/// Every ordered host pair is asked twice, in a shuffled order, of one
/// memoizing topology; each answer must equal Dijkstra's on a fresh copy,
/// whose empty memo makes every one of its answers a miss.
void expect_memo_matches_fresh_copy(const Topology& t) {
  const Pairs pairs = all_host_pairs(t);
  const Topology fresh(t);
  std::vector<std::vector<NodeIndex>> expected;
  for (const auto& [a, b] : pairs) expected.push_back(fresh.shortest_path(a, b));
  ASSERT_EQ(fresh.dijkstra_runs(), pairs.size());

  std::vector<std::size_t> order;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i < pairs.size(); ++i) order.push_back(i);
  }
  std::shuffle(order.begin(), order.end(), std::mt19937_64(7));
  for (const std::size_t i : order) {
    ASSERT_EQ(t.shortest_path(pairs[i].first, pairs[i].second), expected[i])
        << "pair " << pairs[i].first << "->" << pairs[i].second;
  }
  EXPECT_EQ(t.dijkstra_runs(), pairs.size());
  EXPECT_EQ(t.route_memo_size(), pairs.size());
}

TEST(TopologyRouteMemo, WanAnswersMatchFreshCopy) {
  expect_memo_matches_fresh_copy(workload::wan(100));
}

TEST(TopologyRouteMemo, FatTreeAnswersMatchFreshCopy) {
  expect_memo_matches_fresh_copy(workload::fat_tree(4));
}

TEST(TopologyRouteMemo, LinkFailureReroutesAndRestoreReturns) {
  Topology t = workload::fat_tree(4);
  const auto hosts = t.hosts();
  const NodeIndex src = hosts.front();
  const NodeIndex dst = hosts.back();
  const auto before = t.shortest_path(src, dst);
  ASSERT_GE(before.size(), 5u);
  EXPECT_EQ(t.shortest_path(src, dst), before);  // a memo hit
  EXPECT_EQ(t.dijkstra_runs(), 1u);

  const std::size_t cut = t.link_between(before[1], before[2]);
  t.set_link_up(cut, false);
  EXPECT_EQ(t.route_memo_size(), 0u);
  const auto detour = t.shortest_path(src, dst);
  ASSERT_FALSE(detour.empty());
  EXPECT_NE(detour, before);
  for (std::size_t k = 1; k < detour.size(); ++k) {
    EXPECT_TRUE(t.link_up(detour[k - 1], detour[k]));
  }

  t.set_link_up(cut, true);
  EXPECT_EQ(t.shortest_path(src, dst), before);
  EXPECT_EQ(t.dijkstra_runs(), 3u);
}

TEST(TopologyRouteMemo, AddedShortcutReroutes) {
  // h0 - s0 - s1 - s2 - s3 - h1, then a direct s0 - s3 shortcut.
  Topology t;
  std::vector<NodeIndex> s;
  for (const char* name : {"s0", "s1", "s2", "s3"}) s.push_back(t.add_switch(name, {}, 0));
  const NodeIndex h0 = t.add_host("h0", {}, 0);
  const NodeIndex h1 = t.add_host("h1", {}, 0);
  t.add_link(h0, s[0], 1e9, 10);
  for (int i = 0; i + 1 < 4; ++i) t.add_link(s[i], s[i + 1], 1e9, 10);
  t.add_link(s[3], h1, 1e9, 10);
  EXPECT_EQ(t.shortest_path(h0, h1), (std::vector<NodeIndex>{h0, s[0], s[1], s[2], s[3], h1}));

  t.add_link(s[0], s[3], 1e9, 10);
  EXPECT_EQ(t.shortest_path(h0, h1), (std::vector<NodeIndex>{h0, s[0], s[3], h1}));
}

TEST(TopologyRouteMemo, DijkstraRunsCountDistinctPairsPerEpoch) {
  Topology t = workload::fat_tree(4);
  const auto hosts = t.hosts();
  // Epoch 1: 6 distinct pairs, each asked three times.
  for (int rep = 0; rep < 3; ++rep) {
    for (std::size_t i = 0; i < 6; ++i) t.shortest_path(hosts[i], hosts[i + 1]);
  }
  EXPECT_EQ(t.dijkstra_runs(), 6u);
  EXPECT_EQ(t.route_memo_size(), 6u);
  // A trivial self-route is no Dijkstra run and takes no memo slot.
  t.shortest_path(hosts[0], hosts[0]);
  EXPECT_EQ(t.dijkstra_runs(), 6u);

  // Epoch 2 (after a link change): 4 distinct pairs, two of them repeats
  // of epoch 1, each asked twice.
  t.set_link_up(0, false);
  for (int rep = 0; rep < 2; ++rep) {
    for (std::size_t i = 4; i < 8; ++i) t.shortest_path(hosts[i], hosts[i + 1]);
  }
  EXPECT_EQ(t.dijkstra_runs(), 6u + 4u);
  EXPECT_EQ(t.route_memo_size(), 4u);
}

TEST(TopologyRouteMemo, CopyAndMoveAnswerAlike) {
  const Topology original = workload::wan(40);
  const Pairs pairs = all_host_pairs(original);
  std::vector<std::vector<NodeIndex>> expected;
  for (const auto& [a, b] : pairs) expected.push_back(original.shortest_path(a, b));

  Topology copied(original);
  EXPECT_EQ(copied.dijkstra_runs(), 0u);
  EXPECT_EQ(copied.route_memo_size(), 0u);
  Topology moved(std::move(copied));
  Topology copy_assigned;
  copy_assigned = original;
  EXPECT_EQ(copy_assigned.route_memo_size(), 0u);
  Topology move_assigned;
  move_assigned = Topology(original);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const auto [a, b] = pairs[i];
    ASSERT_EQ(moved.shortest_path(a, b), expected[i]);
    ASSERT_EQ(copy_assigned.shortest_path(a, b), expected[i]);
    ASSERT_EQ(move_assigned.shortest_path(a, b), expected[i]);
  }
  EXPECT_EQ(moved.dijkstra_runs(), pairs.size());
}

TEST(TopologyRouteMemo, SetDomainRelabelsWithoutRerouting) {
  Topology t = workload::fat_tree(4);
  const auto hosts = t.hosts();
  const auto path = t.shortest_path(hosts.front(), hosts.back());
  t.set_domain(path[2], 7);
  EXPECT_EQ(t.node(path[2]).domain, 7u);
  EXPECT_EQ(t.switches_in_domain(7), std::vector<NodeIndex>{path[2]});
  EXPECT_EQ(t.shortest_path(hosts.front(), hosts.back()), path);
}

}  // namespace
}  // namespace cicero::net
