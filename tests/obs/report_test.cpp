#include "obs/report.hpp"

#include <gtest/gtest.h>

#include "util/stats.hpp"

namespace cicero::obs {
namespace {

constexpr std::int64_t sim_ms(std::int64_t v) { return v * 1'000'000; }

TEST(RunReport, SerializesAllSections) {
  MetricsRegistry reg;
  reg.counter("net.messages_sent").inc(42);
  reg.gauge("cpu.util").set(0.5);
  Histogram h = reg.histogram("lat_ms", {1.0, 10.0});
  h.observe(0.5);
  h.observe(50.0);

  util::CdfCollector cdf;
  for (int i = 1; i <= 100; ++i) cdf.add(static_cast<double>(i));

  RunReport r("unit_test");
  r.set_meta("framework", "cicero");
  r.set_meta("flows", std::int64_t{100});
  r.add_metrics(reg, "run1.");
  r.add_cdf("setup_ms", cdf);

  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"schema\": \"cicero-run-report/v1\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"experiment\": \"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"framework\": \"cicero\""), std::string::npos);
  EXPECT_NE(json.find("\"flows\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"run1.net.messages_sent\": 42"), std::string::npos);
  EXPECT_NE(json.find("\"run1.cpu.util\": 0.5"), std::string::npos);
  EXPECT_NE(json.find("\"run1.lat_ms\""), std::string::npos);
  // Histogram counts: 2 bounds + overflow, one sample each in 0 and 2.
  EXPECT_NE(json.find("\"counts\": [1,0,1]"), std::string::npos) << json;
  EXPECT_NE(json.find("\"setup_ms\""), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos);
}

TEST(RunReport, CryptoOpsSnapshot) {
  CryptoOpCounters ops;
  ops.schnorr_sign = 3;
  ops.threshold_verify = 9;
  RunReport r("x");
  r.add_crypto_ops(ops, "cicero.");
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"cicero.crypto.ops.schnorr_sign\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"cicero.crypto.ops.threshold_verify\": 9"), std::string::npos);
}

TEST(RunReport, EmptyCdfHasZeroCount) {
  RunReport r("x");
  r.add_cdf("empty_ms", util::CdfCollector{});
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"empty_ms\": {\"unit\": \"ms\", \"n\": 0"), std::string::npos) << json;
}

TEST(RunReport, EscapesMetaStrings) {
  RunReport r("x");
  r.set_meta("note", "line1\nline2 \"quoted\"");
  const std::string json = r.to_json();
  EXPECT_NE(json.find("line1\\nline2 \\\"quoted\\\""), std::string::npos) << json;
}

TEST(RunReport, CriticalPathSectionShape) {
  CritPath cp;
  cp.event_submitted(0, 1, 0);
  cp.update_scheduled(7, 0, 1, sim_ms(10));
  cp.update_released(7, sim_ms(15));
  cp.update_signed(7, sim_ms(20));
  cp.update_rx(7, sim_ms(25));
  cp.update_applied(7, sim_ms(30));
  cp.update_acked(7, sim_ms(35));
  cp.add_phase_bytes(CritPhase::kOrder, 1234);

  RunReport r("x");
  r.add_critical_path("run1", cp.summarize());
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"critical_path\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"run1\": {\"updates\": 1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"end_to_end\""), std::string::npos);
  EXPECT_NE(json.find("\"attributed\": {\"min\": 1, \"mean\": 1}"), std::string::npos) << json;
  // All six phases appear, in enum order, with a bytes field.
  for (const char* name :
       {"order", "dependency_wait", "sign", "propagate", "apply", "retransmit"}) {
    EXPECT_NE(json.find("\"" + std::string(name) + "\": {\"total_ms\""), std::string::npos)
        << name;
  }
  EXPECT_NE(json.find("\"bytes\": 1234"), std::string::npos) << json;
  EXPECT_NE(json.find("\"slowest\": [\n        {\"update\": 7"), std::string::npos) << json;
}

TEST(RunReport, ShardsSectionShape) {
  RunReport r("x");
  std::vector<ShardTelemetryEntry> rows(2);
  rows[0].shard = 0;
  rows[0].windows = 10;
  rows[0].events = 500;
  rows[0].posts_out = 3;
  rows[1].shard = 1;
  rows[1].stall_windows = 2;
  rows[1].posts_in = 3;
  rows[1].barrier_wait_sec = 0.25;
  r.add_shards("run1", rows);
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"shards\""), std::string::npos);
  EXPECT_NE(json.find("{\"shard\": 0, \"windows\": 10, \"events\": 500"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"stall_windows\": 2"), std::string::npos);
  EXPECT_NE(json.find("\"barrier_wait_sec\": 0.25"), std::string::npos);
}

TEST(RunReport, EmptySectionsStayValidObjects) {
  RunReport r("x");
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"critical_path\": {}"), std::string::npos) << json;
  EXPECT_NE(json.find("\"shards\": {}"), std::string::npos) << json;
}

TEST(RunReport, MultiplePrefixesDoNotCollide) {
  MetricsRegistry reg;
  reg.counter("c").inc(1);
  RunReport r("x");
  r.add_metrics(reg, "a.");
  reg.counter("c").inc(1);
  r.add_metrics(reg, "b.");
  const std::string json = r.to_json();
  EXPECT_NE(json.find("\"a.c\": 1"), std::string::npos);
  EXPECT_NE(json.find("\"b.c\": 2"), std::string::npos);
}

}  // namespace
}  // namespace cicero::obs
