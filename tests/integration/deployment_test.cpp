// End-to-end protocol tests over complete deployments (paper §6.2 shapes
// plus the §4.4 guarantees, checked with real cryptography).
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "integration/helpers.hpp"
#include "net/checker.hpp"

namespace cicero {
namespace {

using core::FrameworkKind;
using testing::completed_count;
using testing::make_deployment;
using testing::small_pod;
using testing::small_workload;

class AllFrameworks : public ::testing::TestWithParam<FrameworkKind> {};
INSTANTIATE_TEST_SUITE_P(Frameworks, AllFrameworks,
                         ::testing::Values(FrameworkKind::kCentralized,
                                           FrameworkKind::kCrashTolerant,
                                           FrameworkKind::kCicero, FrameworkKind::kCiceroAgg),
                         [](const auto& info) {
                           switch (info.param) {
                             case FrameworkKind::kCentralized: return "Centralized";
                             case FrameworkKind::kCrashTolerant: return "CrashTolerant";
                             case FrameworkKind::kCicero: return "Cicero";
                             default: return "CiceroAgg";
                           }
                         });

TEST_P(AllFrameworks, AllFlowsComplete) {
  auto dep = make_deployment(GetParam(), net::build_pod(small_pod()));
  const auto flows = small_workload(dep->topology());
  dep->inject(flows);
  dep->run(sim::seconds(20));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST_P(AllFrameworks, DataPlaneConsistentAtQuiescence) {
  auto dep = make_deployment(GetParam(), net::build_pod(small_pod()));
  const auto flows = small_workload(dep->topology());
  dep->inject(flows);
  dep->run(sim::seconds(20));
  // Every flow's route must trace to delivery with no loops or overloads.
  std::vector<net::FlowMatch> matches;
  for (const auto& r : dep->flow_records()) {
    matches.push_back({r.flow.src_host, r.flow.dst_host});
  }
  const auto tables = dep->table_map();
  EXPECT_TRUE(net::check_consistency(dep->topology(), tables, matches).empty());
}

TEST_P(AllFrameworks, RulesAreReused) {
  auto dep = make_deployment(GetParam(), net::build_pod(small_pod()));
  // Two identical flows back to back: the second must reuse the rule.
  const auto hosts = dep->topology().hosts();
  workload::Flow f;
  f.src_host = hosts[0];
  f.dst_host = hosts[3];
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  f.arrival = sim::milliseconds(1);
  workload::Flow g = f;
  g.arrival = sim::milliseconds(500);
  dep->inject({f, g});
  dep->run(sim::seconds(5));
  ASSERT_EQ(completed_count(*dep), 2u);
  EXPECT_FALSE(dep->flow_records()[0].rule_reused);
  EXPECT_TRUE(dep->flow_records()[1].rule_reused);
}

TEST_P(AllFrameworks, TeardownRemovesRules) {
  auto dep = make_deployment(GetParam(), net::build_pod(small_pod()), true, /*teardown=*/true);
  const auto hosts = dep->topology().hosts();
  workload::Flow f;
  f.src_host = hosts[0];
  f.dst_host = hosts[3];
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  f.arrival = sim::milliseconds(1);
  dep->inject({f});
  dep->run(sim::seconds(10));
  ASSERT_EQ(completed_count(*dep), 1u);
  // After teardown no switch holds the rule.
  for (const auto& [sw, table] : dep->table_map()) {
    EXPECT_FALSE(table->has({f.src_host, f.dst_host}));
  }
}

TEST(Deployment, SetupLatencyOrderingMatchesPaper) {
  // §6.2: centralized < crash tolerant < Cicero < Cicero Agg.
  std::map<FrameworkKind, double> mean_setup;
  for (const auto fw : {FrameworkKind::kCentralized, FrameworkKind::kCrashTolerant,
                        FrameworkKind::kCicero, FrameworkKind::kCiceroAgg}) {
    auto dep = make_deployment(fw, net::build_pod(small_pod()));
    dep->inject(small_workload(dep->topology(), 30));
    dep->run(sim::seconds(20));
    const auto setup = dep->setup_cdf();
    ASSERT_FALSE(setup.empty());
    mean_setup[fw] = setup.mean();
  }
  EXPECT_LT(mean_setup[FrameworkKind::kCentralized], mean_setup[FrameworkKind::kCrashTolerant]);
  EXPECT_LT(mean_setup[FrameworkKind::kCrashTolerant], mean_setup[FrameworkKind::kCicero]);
  EXPECT_LT(mean_setup[FrameworkKind::kCicero], mean_setup[FrameworkKind::kCiceroAgg]);
}

TEST(Deployment, ReverseInstallOrderObserved) {
  // The reverse-path scheduler's defining property: for every flow, the
  // ingress switch's rule is installed last (downstream-first).
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  const auto hosts = dep->topology().hosts();
  const net::NodeIndex src = hosts[0], dst = hosts[5];
  const auto path = dep->topology().shortest_path(src, dst);
  ASSERT_GE(path.size(), 4u);  // needs at least two switches

  std::vector<net::NodeIndex> install_order;
  for (std::size_t i = 1; i + 1 < path.size(); ++i) {
    dep->switch_at(path[i]).add_applied_observer(
        [&install_order](const sched::Update& u) {
          if (u.op == sched::UpdateOp::kInstall) install_order.push_back(u.switch_node);
        });
  }
  workload::Flow f;
  f.src_host = src;
  f.dst_host = dst;
  f.size_bytes = 1e5;
  f.reserved_bps = 1e6;
  f.arrival = sim::milliseconds(1);
  dep->inject({f});
  dep->run(sim::seconds(5));
  const std::vector<net::NodeIndex> expect(path.rbegin() + 1, path.rend() - 1);
  EXPECT_EQ(install_order, expect);
}

TEST(Deployment, CiceroAcksAreVerified) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  dep->inject(small_workload(dep->topology(), 10));
  dep->run(sim::seconds(10));
  for (const auto id : dep->controller_ids()) {
    EXPECT_GT(dep->controller(id).acks_received(), 0u);
  }
}

TEST(Deployment, SwitchCpuHigherUnderCiceroThanCentralized) {
  // Fig. 11d's headline: quorum verification costs switch CPU.
  double cicero_busy = 0.0, central_busy = 0.0;
  {
    auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
    dep->inject(small_workload(dep->topology(), 40));
    dep->run(sim::seconds(20));
    for (const auto sw : dep->topology().switches()) {
      cicero_busy += static_cast<double>(dep->switch_at(sw).cpu().busy_total());
    }
  }
  {
    auto dep = make_deployment(FrameworkKind::kCentralized, net::build_pod(small_pod()));
    dep->inject(small_workload(dep->topology(), 40));
    dep->run(sim::seconds(20));
    for (const auto sw : dep->topology().switches()) {
      central_busy += static_cast<double>(dep->switch_at(sw).cpu().busy_total());
    }
  }
  EXPECT_GT(cicero_busy, central_busy * 1.5);
}

TEST(Deployment, ControllerAggregationHalvesSwitchCpu) {
  // Fig. 11d: "controller aggregation halves switch CPU usage".
  double sw_agg = 0.0, ctrl_agg = 0.0;
  for (const auto fw : {FrameworkKind::kCicero, FrameworkKind::kCiceroAgg}) {
    auto dep = make_deployment(fw, net::build_pod(small_pod()));
    dep->inject(small_workload(dep->topology(), 40));
    dep->run(sim::seconds(20));
    double busy = 0.0;
    for (const auto sw : dep->topology().switches()) {
      busy += static_cast<double>(dep->switch_at(sw).cpu().busy_total());
    }
    (fw == FrameworkKind::kCicero ? sw_agg : ctrl_agg) = busy;
  }
  EXPECT_LT(ctrl_agg, sw_agg * 0.8);
}

TEST(Deployment, CostOnlyModeMatchesBehaviour) {
  // real_crypto=false (large-sweep mode) must preserve protocol behaviour.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()),
                             /*real_crypto=*/false);
  const auto flows = small_workload(dep->topology(), 30);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(Deployment, EventLinearizability) {
  // §4.4: Cicero's execution is indistinguishable from a correct
  // sequential single controller processing the same events.  Both runs
  // share deterministic routing, so at quiescence every switch's flow
  // table under Cicero must equal the centralized (sequential) outcome.
  auto cicero = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  auto sequential = make_deployment(FrameworkKind::kCentralized, net::build_pod(small_pod()));
  const auto flows = small_workload(cicero->topology(), 35);
  for (auto* dep : {cicero.get(), sequential.get()}) {
    dep->inject(flows);
    dep->run(sim::seconds(25));
  }
  for (const auto sw : cicero->topology().switches()) {
    const auto& a = cicero->switch_at(sw).table();
    const auto& b = sequential->switch_at(sw).table();
    ASSERT_EQ(a.size(), b.size()) << "switch " << sw;
    for (const auto& rule : a.rules()) {
      const auto other = b.lookup(rule.match);
      ASSERT_TRUE(other.has_value()) << "switch " << sw;
      EXPECT_EQ(other->next_hop, rule.next_hop) << "switch " << sw;
    }
  }
}

TEST(Deployment, PublishesLargestSwitchIdRecordCount) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
  dep->inject(small_workload(dep->topology(), 10));
  dep->run(sim::seconds(10));
  std::size_t largest = 0;
  for (const auto sw : dep->topology().switches()) {
    largest = std::max(largest, dep->switch_at(sw).id_records());
  }
  EXPECT_GT(largest, 0u);
  const auto& gauges = dep->obs().metrics.gauges();
  ASSERT_EQ(gauges.count("switch.id_records_max"), 1u);
  EXPECT_EQ(*gauges.at("switch.id_records_max"), static_cast<double>(largest));
}

TEST(Deployment, VerifyMemoStaysWithinItsWindow) {
  // Teardown after each flow, so every flow installs its rules afresh.
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()),
                             /*real_crypto=*/true, /*teardown=*/true);
  std::set<util::Bytes> acks;  // distinct switch-signed acks on the wire
  dep->network().set_mutate_fn([&acks](sim::NodeId, sim::NodeId, util::Bytes& m) {
    if (!m.empty() && m[0] == static_cast<std::uint8_t>(core::CoreMsgTag::kAck)) acks.insert(m);
  });
  dep->inject(small_workload(dep->topology(), 150));
  dep->run(sim::seconds(30));
  const std::size_t window = core::PkiDirectory::kVerifyMemoWindow;
  ASSERT_GT(acks.size(), window);
  const auto& gauges = dep->obs().metrics.gauges();
  EXPECT_GT(*gauges.at("crypto.verify_memo_hits"), 0.0);
  EXPECT_EQ(*gauges.at("crypto.verify_memo_entries"), static_cast<double>(window));
}

TEST(Deployment, ModeledRunLeavesTheVerifyMemoEmpty) {
  auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()),
                             /*real_crypto=*/false);
  dep->inject(small_workload(dep->topology(), 25));
  dep->run(sim::seconds(10));
  const auto& gauges = dep->obs().metrics.gauges();
  EXPECT_EQ(*gauges.at("crypto.verify_memo_hits"), 0.0);
  EXPECT_EQ(*gauges.at("crypto.verify_memo_entries"), 0.0);
}

TEST(Deployment, DeterministicAcrossRuns) {
  auto run_once = [] {
    auto dep = make_deployment(FrameworkKind::kCicero, net::build_pod(small_pod()));
    dep->inject(small_workload(dep->topology(), 25));
    dep->run(sim::seconds(20));
    std::vector<double> times;
    for (const auto& r : dep->flow_records()) {
      times.push_back(sim::to_ms(r.completion - r.flow.arrival));
    }
    return times;
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace cicero
