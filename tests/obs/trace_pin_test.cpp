// Byte pins of the observability output: one small traced run per
// `Delivery`, plus a lossy run that exhausts its retries, a FROST run and
// a multi-domain run.  Each run is reduced to two SHA-256 digests — the
// Chrome trace-event JSON exactly as exported, and a text fingerprint of
// the critical-path summary (per-phase bytes and times) and every
// registry counter and histogram — and compared with digests recorded
// from a known-good build.  A refactor of the recording sites must leave
// both unchanged; an intended change to the trace re-records them (the
// failure message prints the new digests).
#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "crypto/sha256.hpp"
#include "integration/helpers.hpp"

namespace cicero {
namespace {

struct Pin {
  std::string trace;
  std::string record;
};

std::string hex_digest(const std::string& s) {
  const auto d = crypto::Sha256::hash(std::string_view(s));
  std::string out;
  char buf[3];
  for (const auto b : d) {
    std::snprintf(buf, sizeof(buf), "%02x", b);
    out += buf;
  }
  return out;
}

// Critical-path summary and registry contents, as stable text.
std::string record_text(const obs::Observability& o) {
  std::ostringstream os;
  os.precision(17);
  const auto s = o.critpath.summarize();
  os << "completed=" << s.completed << " incomplete=" << s.incomplete
     << " e2e=" << s.end_to_end_total_ms << "\n";
  for (std::size_t i = 0; i < obs::kCritPhaseCount; ++i) {
    os << obs::crit_phase_name(static_cast<obs::CritPhase>(i)) << " bytes=" << s.phases[i].bytes
       << " ms=" << s.phases[i].total_ms << "\n";
  }
  for (const auto& [name, cell] : o.metrics.counters()) os << name << "=" << *cell << "\n";
  for (const auto& [name, h] : o.metrics.histograms()) {
    os << name << " n=" << h->count << " sum=" << h->sum << "\n";
  }
  return os.str();
}

Pin run(core::DeploymentParams dp, net::Topology topo, std::size_t flows, double loss,
        workload::WorkloadKind kind = workload::WorkloadKind::kHadoop) {
  dp.controllers_per_domain = 4;
  dp.seed = 12345;
  dp.trace = true;
  core::Deployment dep(std::move(topo), dp);
  if (loss > 0.0) dep.faults().set_uniform_loss(loss);
  dep.inject(testing::small_workload(dep.topology(), flows, kind));
  dep.run(sim::seconds(30));
  std::ostringstream json;
  dep.obs().trace.write_chrome_trace(json);
  return Pin{hex_digest(json.str()), hex_digest(record_text(dep.obs()))};
}

Pin run_pod(core::DeploymentParams dp, std::size_t flows = 12, double loss = 0.05) {
  dp.real_crypto = false;
  return run(dp, net::build_pod(testing::small_pod()), flows, loss);
}

void expect_pin(const Pin& got, const char* trace, const char* record) {
  EXPECT_EQ(got.trace, trace) << "trace digest moved; new value " << got.trace;
  EXPECT_EQ(got.record, record) << "record digest moved; new value " << got.record;
}

TEST(TracePin, Direct) {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  expect_pin(run_pod(dp),
             "89fa8954496c9164328b98fa1d02899e1d05a81e44124b2d6fb2688bc2a2c967",
             "52b960e0fc4b1ed44827f42ec0af408c6b4df8c12ed5da85535d75a1d246654f");
}

TEST(TracePin, ControllerAgg) {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCiceroAgg;
  expect_pin(run_pod(dp),
             "2556af8b9eb5f7bc5d855822470bf3f026bdc64f004e9853611866d615549eee",
             "3bbd33412e34f8e8aa9ec8111bedbddaa1e12608713c8bba6da747ecdab53b7e");
}

TEST(TracePin, Decentralized) {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.execution_mode = core::ExecutionMode::kDecentralized;
  expect_pin(run_pod(dp),
             "a21b135df9b67d6394fe2491f1873b05784dfeb5f987574feb1631ff621565af",
             "5148e263c093d8d285659de799abd1f8af1ca18b8b274a8250e84d35438529ed");
}

TEST(TracePin, InNetwork) {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.aggregation = core::AggregationMode::kInNetwork;
  expect_pin(run_pod(dp),
             "1fd9d1d116bdfcd03ff8e7c45c78ca31e1a1c22316e485d56ff334322055a6ae",
             "8c95ca35ffa0f223eb9bc5d1e121e5f53f25a748bea877715379e51c56477176");
}

// Heavy loss with a single retry: updates are retransmitted and then
// abandoned, which exercises the resend and abandonment records.
TEST(TracePin, RetriesExhausted) {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.ack_timeout = sim::milliseconds(50);
  dp.update_max_retries = 1;
  expect_pin(run_pod(dp, 6, 0.15),
             "8c0a96905cb6d2f8e45191cbbfd797cc634cefb75a22c0c414917a22430a6d8f",
             "41e87bcee93e9b350c74e38bde96b427167ad08f18929a8c8fbac95885bb00e9");
}

TEST(TracePin, ControllerAggFrost) {
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCiceroAgg;
  dp.backend = core::ThresholdBackend::kFrost;
  dp.real_crypto = true;
  expect_pin(run(dp, net::build_pod(testing::small_pod()), 4, 0.05),
             "7b8628bb908435990004b0cd72c9851ee22971f4df982e65d8bfa11789fcf939",
             "3c408a7299905f4761fef753978709d750c85896584dde156789f4ab1d975c9a");
}

TEST(TracePin, MultiDomain) {
  net::FabricParams fabric;
  fabric.racks_per_pod = 2;
  fabric.hosts_per_rack = 2;
  fabric.pods_per_dc = 2;
  fabric.domain_per_pod = true;
  core::DeploymentParams dp;
  dp.framework = core::FrameworkKind::kCicero;
  dp.real_crypto = false;
  expect_pin(run(dp, net::build_datacenter(fabric), 12, 0.0, workload::WorkloadKind::kWebServer),
             "542aec16c72d300aed101a07457b5a352b315cf94c95a4cf3bc5cc35b547ec3b",
             "8e65255393548f9d33dd98aff71f11f9f7d6ada1831cf153584090bcd476944c");
}

}  // namespace
}  // namespace cicero
