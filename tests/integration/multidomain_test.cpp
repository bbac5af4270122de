// Multi-domain behaviour (§3.3): domain isolation, cross-domain event
// forwarding, and parallel per-domain processing.
#include <gtest/gtest.h>

#include <map>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::make_deployment;
using testing::small_workload;

net::Topology two_pod_topology() {
  net::FabricParams p;
  p.racks_per_pod = 2;
  p.hosts_per_rack = 2;
  p.pods_per_dc = 2;
  p.domain_per_pod = true;  // one domain per pod + interconnect domain
  return net::build_datacenter(p);
}

TEST(MultiDomain, OneControlPlanePerDomain) {
  auto dep = make_deployment(FrameworkKind::kCicero, two_pod_topology());
  const auto domains = dep->topology().domains();
  ASSERT_EQ(domains.size(), 3u);  // pod 0, pod 1, interconnect
  for (const auto d : domains) {
    EXPECT_EQ(dep->domain_controller_ids(d).size(), 4u);
  }
  // Distinct control planes own distinct threshold keys.
  EXPECT_FALSE(dep->group_pk(domains[0]) == dep->group_pk(domains[1]));
}

TEST(MultiDomain, LocalFlowTouchesOnlyItsDomain) {
  auto dep = make_deployment(FrameworkKind::kCicero, two_pod_topology());
  // A flow within pod 0.
  net::NodeIndex src = net::kNoNode, dst = net::kNoNode;
  for (const auto h : dep->topology().hosts()) {
    const auto& pl = dep->topology().node(h).placement;
    if (pl.pod == 0 && pl.rack == 0 && src == net::kNoNode) src = h;
    if (pl.pod == 0 && pl.rack == 1 && dst == net::kNoNode) dst = h;
  }
  workload::Flow f;
  f.arrival = sim::milliseconds(1);
  f.src_host = src;
  f.dst_host = dst;
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  dep->inject({f});
  dep->run(sim::seconds(10));
  EXPECT_EQ(completed_count(*dep), 1u);
  // Pod 1's controllers never processed an event for it.
  const auto domains = dep->topology().domains();
  for (const auto id : dep->domain_controller_ids(domains[1])) {
    EXPECT_EQ(dep->controller(id).events_processed(), 0u);
  }
}

TEST(MultiDomain, CrossPodFlowForwardedAndCompleted) {
  auto dep = make_deployment(FrameworkKind::kCicero, two_pod_topology());
  net::NodeIndex src = net::kNoNode, dst = net::kNoNode;
  for (const auto h : dep->topology().hosts()) {
    const auto& pl = dep->topology().node(h).placement;
    if (pl.pod == 0 && src == net::kNoNode) src = h;
    if (pl.pod == 1 && dst == net::kNoNode) dst = h;
  }
  workload::Flow f;
  f.arrival = sim::milliseconds(1);
  f.src_host = src;
  f.dst_host = dst;
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  dep->inject({f});
  dep->run(sim::seconds(10));
  EXPECT_EQ(completed_count(*dep), 1u);

  // All three domains (both pods + spine interconnect) processed the
  // event, and the origin domain forwarded it.
  const auto domains = dep->topology().domains();
  for (const auto d : domains) {
    std::uint64_t processed = 0;
    for (const auto id : dep->domain_controller_ids(d)) {
      processed += dep->controller(id).events_processed();
    }
    EXPECT_GT(processed, 0u) << "domain " << d;
  }
  std::uint64_t forwarded = 0;
  for (const auto id : dep->controller_ids()) {
    forwarded += dep->controller(id).events_forwarded();
  }
  EXPECT_GT(forwarded, 0u);
}

TEST(MultiDomain, ForwardReachesDomainAfterLowestIdMemberRemoved) {
  // Cross-domain events go to the remote domain's lowest-id member; once
  // that member is removed, every other domain must forward to its
  // successor, not to the silenced ex-member.
  auto dep = make_deployment(FrameworkKind::kCicero, two_pod_topology());
  net::NodeIndex src = net::kNoNode, dst = net::kNoNode;
  for (const auto h : dep->topology().hosts()) {
    const auto& pl = dep->topology().node(h).placement;
    if (pl.pod == 0 && src == net::kNoNode) src = h;
    if (pl.pod == 1 && dst == net::kNoNode) dst = h;
  }
  const net::DomainId dst_domain = dep->topology().node(dep->topology().host_tor(dst)).domain;
  const auto before = dep->domain_controller_ids(dst_domain);
  dep->simulator().at(sim::milliseconds(10), [&] { dep->remove_controller(before.front()); });
  dep->run(sim::seconds(5));
  const auto after = dep->domain_controller_ids(dst_domain);
  ASSERT_EQ(after.size(), before.size() - 1);
  std::map<std::uint32_t, std::uint64_t> processed;  // the removal event so far
  for (const auto id : after) processed[id] = dep->controller(id).events_processed();

  workload::Flow f;
  f.arrival = sim::milliseconds(1);
  f.src_host = src;
  f.dst_host = dst;
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  dep->inject({f});
  dep->run(sim::seconds(15));
  EXPECT_EQ(completed_count(*dep), 1u);
  for (const auto id : after) {
    EXPECT_EQ(dep->controller(id).events_processed(), processed[id] + 1) << "controller " << id;
  }
}

TEST(MultiDomain, FullWorkloadCompletes) {
  auto dep = make_deployment(FrameworkKind::kCicero, two_pod_topology());
  const auto flows = small_workload(dep->topology(), 40);
  dep->inject(flows);
  dep->run(sim::seconds(30));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(MultiDomain, EventShareDropsWithDomains) {
  // Fig. 12b's mechanism: splitting the network reduces each control
  // plane's share of total events.
  auto single = make_deployment(FrameworkKind::kCicero, [&] {
    net::FabricParams p;
    p.racks_per_pod = 2;
    p.hosts_per_rack = 2;
    p.pods_per_dc = 2;
    p.domain_per_pod = false;
    return net::build_datacenter(p);
  }());
  auto multi = make_deployment(FrameworkKind::kCicero, two_pod_topology());
  for (auto* dep : {single.get(), multi.get()}) {
    dep->inject(small_workload(dep->topology(), 60, workload::WorkloadKind::kWebServer));
    dep->run(sim::seconds(30));
  }
  const auto single_share = single->events_share_per_domain();
  const auto multi_share = multi->events_share_per_domain();
  ASSERT_EQ(single_share.size(), 1u);
  EXPECT_NEAR(single_share.begin()->second, 1.0, 0.05);
  for (const auto& [d, share] : multi_share) {
    EXPECT_LT(share, 0.95) << "domain " << d;
  }
}

TEST(MultiDomain, FaultyDomainCannotTouchOtherDomains) {
  // §3.3 isolation: a Byzantine controller in pod 0 cannot install rules
  // on pod 1 switches (different threshold key entirely).
  auto dep = make_deployment(FrameworkKind::kCicero, two_pod_topology());
  const auto domains = dep->topology().domains();
  net::NodeIndex victim = dep->topology().switches_in_domain(domains[1]).front();

  const auto hosts = dep->topology().hosts();
  sched::Update rogue;
  rogue.id = 0xBEEF;
  rogue.switch_node = victim;
  rogue.op = sched::UpdateOp::kInstall;
  rogue.rule = {{hosts[0], hosts[1]}, victim, 1e6};

  const auto attacker_id = dep->domain_controller_ids(domains[0])[0];
  dep->simulator().at(sim::milliseconds(1), [&] {
    dep->controller(attacker_id).inject_rogue_update(victim, rogue);
  });
  dep->run(sim::seconds(2));
  EXPECT_FALSE(dep->switch_at(victim).table().has({hosts[0], hosts[1]}));
}

TEST(MultiDomain, CentralizedSpansAllDomains) {
  // Baselines ignore the domain split: one controller runs everything.
  auto dep = make_deployment(FrameworkKind::kCentralized, two_pod_topology());
  EXPECT_EQ(dep->controller_ids().size(), 1u);
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(30));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

}  // namespace
}  // namespace cicero
