// End-to-end observability: a small Cicero deployment with metrics and
// tracing enabled must produce the documented span taxonomy and non-zero
// subsystem counters, and its run report must serialize every section.
#include <gtest/gtest.h>

#include <sstream>

#include "core/deployment.hpp"
#include "integration/helpers.hpp"
#include "obs/report.hpp"

namespace cicero {
namespace {

std::unique_ptr<core::Deployment> traced_deployment() {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.controllers_per_domain = 4;
  dp.real_crypto = false;  // cost-model mode keeps the test fast
  dp.seed = 12345;
  dp.trace = true;
  auto dep = std::make_unique<core::Deployment>(net::build_pod(testing::small_pod()), dp);
  const auto flows = testing::small_workload(dep->topology(), 20);
  dep->inject(flows);
  dep->run(sim::seconds(20));
  return dep;
}

TEST(ObsIntegration, TraceContainsUpdateLifecycleSpans) {
  auto dep = traced_deployment();
  ASSERT_TRUE(dep->obs().trace.enabled());
  EXPECT_GT(dep->obs().trace.event_count(), 0u);

  std::ostringstream os;
  dep->obs().trace.write_chrome_trace(os);
  const std::string json = os.str();

  // The per-event ordering track and the per-update lifecycle track
  // (begin at route computation, "sign" and "apply" nested, end at ack).
  EXPECT_NE(json.find("\"cat\":\"event\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"order\""), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"update\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"update\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"sign\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"apply\""), std::string::npos);
  // Named CPU ops appear as complete spans.
  EXPECT_NE(json.find("\"name\":\"route.compute\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"flow_table.update\""), std::string::npos);
  // Node metadata: every simulated node is a Perfetto "process".
  EXPECT_NE(json.find("\"process_name\""), std::string::npos);
  EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
}

TEST(ObsIntegration, SubsystemCountersAreWired) {
  auto dep = traced_deployment();
  const auto& reg = dep->obs().metrics;
  EXPECT_GT(reg.counter_value("net.messages_sent"), 0u);
  EXPECT_GT(reg.counter_value("net.messages_delivered"), 0u);
  EXPECT_GT(reg.counter_value("cpu.tasks"), 0u);
  EXPECT_GT(reg.counter_value("bft.delivered"), 0u);
  EXPECT_GT(reg.counter_value("ctrl.events_seen"), 0u);
  EXPECT_GT(reg.counter_value("ctrl.updates_sent"), 0u);
  EXPECT_GT(reg.counter_value("ctrl.acks_received"), 0u);
  EXPECT_GT(reg.counter_value("switch.events_emitted"), 0u);
  EXPECT_GT(reg.counter_value("switch.updates_applied"), 0u);

  // Counters must agree with the pre-existing per-object stats.
  std::uint64_t applied = 0;
  for (const auto sw : dep->topology().switches()) {
    applied += dep->switch_at(sw).updates_applied();
  }
  EXPECT_EQ(reg.counter_value("switch.updates_applied"), applied);

  // Latency histograms recorded samples.
  const auto& hists = reg.histograms();
  const auto it = hists.find("ctrl.update_ack_ms");
  ASSERT_NE(it, hists.end());
  EXPECT_GT(it->second->count, 0u);
  EXPECT_GT(it->second->sum, 0.0);
}

TEST(ObsIntegration, RunReportRoundTrip) {
  auto dep = traced_deployment();
  obs::RunReport report("obs_integration");
  report.set_meta("framework", "cicero");
  report.add_metrics(dep->obs().metrics);
  report.add_cdf("completion_ms", dep->completion_cdf());
  const std::string json = report.to_json();
  EXPECT_NE(json.find(obs::kRunReportSchema), std::string::npos);
  EXPECT_NE(json.find("\"net.messages_sent\""), std::string::npos);
  EXPECT_NE(json.find("\"cpu.queue_wait_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"completion_ms\""), std::string::npos);
}

}  // namespace
}  // namespace cicero
