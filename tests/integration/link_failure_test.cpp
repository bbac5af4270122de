// Link failures and consistent repair (paper §2's topology-change events;
// §7 future work "topology discovery and link state probing").
#include <gtest/gtest.h>

#include <algorithm>

#include "integration/helpers.hpp"
#include "net/checker.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::make_deployment;
using testing::small_pod;
using testing::small_workload;

/// Finds an installed flow and the first fabric link on its route.
struct EstablishedFlow {
  net::FlowMatch match;
  net::NodeIndex link_a = net::kNoNode;
  net::NodeIndex link_b = net::kNoNode;
};

EstablishedFlow establish_cross_rack_flow(core::Deployment& dep) {
  net::NodeIndex src = net::kNoNode, dst = net::kNoNode;
  for (const auto h : dep.topology().hosts()) {
    const auto rack = dep.topology().node(h).placement.rack;
    if (rack == 0 && src == net::kNoNode) src = h;
    if (rack == 1 && dst == net::kNoNode) dst = h;
  }
  workload::Flow f;
  f.arrival = sim::milliseconds(1);
  f.src_host = src;
  f.dst_host = dst;
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  dep.inject({f});
  dep.run(dep.simulator().now() + sim::seconds(5));

  const auto path = dep.topology().shortest_path(src, dst);
  // tor -> edge link (path: host, tor, edge, tor, host).
  return EstablishedFlow{{src, dst}, path[1], path[2]};
}

TEST(LinkFailure, FlowReroutedAroundDeadLink) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flow = establish_cross_rack_flow(*dep);
  ASSERT_EQ(completed_count(*dep), 1u);

  dep->fail_link(flow.link_a, flow.link_b);
  dep->run(dep->simulator().now() + sim::seconds(5));

  const auto trace =
      net::trace_flow(dep->topology(), dep->table_map(), flow.match.src_host,
                      flow.match.dst_host);
  ASSERT_EQ(trace.status, net::TraceStatus::kDelivered);
  // The repaired route avoids the failed link.
  for (std::size_t i = 0; i + 1 < trace.path.size(); ++i) {
    EXPECT_FALSE((trace.path[i] == flow.link_a && trace.path[i + 1] == flow.link_b) ||
                 (trace.path[i] == flow.link_b && trace.path[i + 1] == flow.link_a));
  }
}

TEST(LinkFailure, OffPathFailureWhileFlowWaits) {
  // A link change drops every cached route while flows still wait for
  // their rules; the flow driver must recompute the route when those
  // rules land rather than read the dropped cache entry.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto& topo = dep->topology();
  const auto hosts = topo.hosts();
  workload::Flow f;
  f.arrival = sim::milliseconds(1);
  f.src_host = hosts.front();
  f.dst_host = hosts.back();
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  dep->inject({f});
  dep->run(sim::milliseconds(2));
  ASSERT_EQ(completed_count(*dep), 0u);  // still waiting for its route

  const auto path = topo.shortest_path(f.src_host, f.dst_host);
  const auto on_path = [&](net::NodeIndex n) {
    return std::find(path.begin(), path.end(), n) != path.end();
  };
  std::size_t off_path = topo.link_count();
  for (std::size_t i = 0; i < topo.link_count() && off_path == topo.link_count(); ++i) {
    const auto& l = topo.link(i);
    if (topo.is_switch(l.a) && topo.is_switch(l.b) && !on_path(l.a) && !on_path(l.b)) off_path = i;
  }
  ASSERT_LT(off_path, topo.link_count());
  dep->fail_link(topo.link(off_path).a, topo.link(off_path).b);
  dep->run(sim::seconds(5));
  EXPECT_EQ(completed_count(*dep), 1u);
}

TEST(LinkFailure, RepairIsConsistentAtEveryStep) {
  // Until the diverge switch flips, packets unavoidably die AT the failed
  // link — but the Fig. 2 guarantee still holds for everything the control
  // plane can control: at every instant of the repair the flow either
  // delivers or black-holes exactly at the dead link.  It never loops and
  // never black-holes on the half-built detour (the reverse-path scheduler
  // builds the detour downstream-first, flipping the diverge switch last).
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flow = establish_cross_rack_flow(*dep);
  const auto diverge_switch = flow.link_a;  // the ToR feeding the dead link

  std::size_t checks = 0;
  bool invariant = true;
  bool delivered_at_end = false;
  for (const auto sw : dep->topology().switches()) {
    dep->switch_at(sw).add_applied_observer([&](const sched::Update& u) {
      if (u.rule.match == flow.match) {
        ++checks;
        const auto t = net::trace_flow(dep->topology(), dep->table_map(),
                                       flow.match.src_host, flow.match.dst_host);
        delivered_at_end = (t.status == net::TraceStatus::kDelivered);
        const bool ok =
            t.status == net::TraceStatus::kDelivered ||
            (t.status == net::TraceStatus::kBlackHole && t.path.back() == diverge_switch);
        invariant &= ok;
      }
    });
  }
  dep->fail_link(flow.link_a, flow.link_b);
  dep->run(dep->simulator().now() + sim::seconds(5));
  EXPECT_GT(checks, 0u);
  EXPECT_TRUE(invariant);
  EXPECT_TRUE(delivered_at_end);
}

TEST(LinkFailure, UnaffectedFlowsUndisturbed) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flows = small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  ASSERT_EQ(completed_count(*dep), flows.size());

  // Fail one tor-edge link; afterwards every flow must still trace.
  const auto flow = establish_cross_rack_flow(*dep);
  dep->fail_link(flow.link_a, flow.link_b);
  dep->run(dep->simulator().now() + sim::seconds(10));

  std::vector<net::FlowMatch> matches;
  for (const auto& r : dep->flow_records()) {
    matches.push_back({r.flow.src_host, r.flow.dst_host});
  }
  const auto tables = dep->table_map();
  EXPECT_TRUE(net::check_consistency(dep->topology(), tables, matches).empty());
}

TEST(LinkFailure, NewFlowsAvoidDeadLink) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto probe = establish_cross_rack_flow(*dep);
  dep->fail_link(probe.link_a, probe.link_b);
  dep->run(dep->simulator().now() + sim::seconds(2));

  // A brand-new flow between different hosts of the same racks routes
  // around the failure from the start.
  net::NodeIndex src = net::kNoNode, dst = net::kNoNode;
  for (const auto h : dep->topology().hosts()) {
    const auto rack = dep->topology().node(h).placement.rack;
    if (rack == 0 && h != probe.match.src_host && src == net::kNoNode) src = h;
    if (rack == 1 && h != probe.match.dst_host && dst == net::kNoNode) dst = h;
  }
  workload::Flow f;
  f.arrival = sim::milliseconds(1);
  f.src_host = src;
  f.dst_host = dst;
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  dep->inject({f});
  dep->run(dep->simulator().now() + sim::seconds(5));
  const auto trace = net::trace_flow(dep->topology(), dep->table_map(), src, dst);
  EXPECT_EQ(trace.status, net::TraceStatus::kDelivered);
}

TEST(LinkFailure, RestoreAllowsReuse) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flow = establish_cross_rack_flow(*dep);
  dep->fail_link(flow.link_a, flow.link_b);
  dep->run(dep->simulator().now() + sim::seconds(2));
  dep->restore_link(flow.link_a, flow.link_b);
  EXPECT_TRUE(dep->topology().link_up(flow.link_a, flow.link_b));
  // The restored link participates in routing again.
  const auto path = dep->topology().shortest_path(flow.match.src_host, flow.match.dst_host);
  EXPECT_FALSE(path.empty());
}

TEST(LinkFailure, AuditLogsStayConsistentThroughRepair) {
  // Honest controllers' decision logs agree on every event, including the
  // re-route events caused by the failure; all chains verify.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto flow = establish_cross_rack_flow(*dep);
  dep->fail_link(flow.link_a, flow.link_b);
  dep->run(dep->simulator().now() + sim::seconds(5));

  const auto ids = dep->controller_ids();
  for (const auto id : ids) {
    auto& ctrl = dep->controller(id);
    ctrl.seal_audit();
    EXPECT_TRUE(core::AuditLog::verify_chain(ctrl.audit().entries(), ctrl.config().key.pk));
  }
  for (std::size_t i = 1; i < ids.size(); ++i) {
    EXPECT_FALSE(core::AuditLog::first_divergence(dep->controller(ids[0]).audit().entries(),
                                                  dep->controller(ids[i]).audit().entries())
                     .has_value());
  }
}

}  // namespace
}  // namespace cicero
