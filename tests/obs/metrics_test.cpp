#include "obs/metrics.hpp"
#include "obs/obs.hpp"

#include <gtest/gtest.h>

namespace cicero::obs {
namespace {

TEST(MetricsRegistry, CountersShareCellsByName) {
  MetricsRegistry reg;
  Counter a = reg.counter("x");
  Counter b = reg.counter("x");
  a.inc();
  b.inc(4);
  EXPECT_EQ(a.value(), 5u);
  EXPECT_EQ(reg.counter_value("x"), 5u);
  EXPECT_EQ(reg.counters().size(), 1u);
}

// Two nodes' counts of one fact: each answers its own tally, the shared
// registry cell holds their sum, and a node without metrics still counts.
TEST(MetricsRegistry, NodeCountersKeepOwnTallyAndFeedSharedCell) {
  MetricsRegistry reg;
  NodeCounter a(reg.counter("x"));
  NodeCounter b(reg.counter("x"));
  NodeCounter detached{Counter{}};
  a.inc();
  b.inc(4);
  detached.inc(2);
  EXPECT_EQ(a.value(), 1u);
  EXPECT_EQ(b.value(), 4u);
  EXPECT_EQ(detached.value(), 2u);
  EXPECT_EQ(reg.counter_value("x"), 5u);
}

TEST(MetricsRegistry, HandlesSurviveRegistryGrowth) {
  MetricsRegistry reg;
  Counter first = reg.counter("first");
  // Force many cells; the deque must not invalidate `first`'s pointer.
  for (int i = 0; i < 1000; ++i) reg.counter("c" + std::to_string(i)).inc();
  first.inc();
  EXPECT_EQ(reg.counter_value("first"), 1u);
}

TEST(MetricsRegistry, DisabledRegistryHandsOutNoops) {
  MetricsRegistry reg(/*enabled=*/false);
  Counter c = reg.counter("x");
  Gauge g = reg.gauge("y");
  Histogram h = reg.histogram("z", {1.0, 2.0});
  c.inc();
  g.set(7.0);
  h.observe(1.5);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
  EXPECT_EQ(h.cell(), nullptr);
  EXPECT_TRUE(reg.counters().empty());
  EXPECT_TRUE(reg.gauges().empty());
  EXPECT_TRUE(reg.histograms().empty());
}

TEST(MetricsRegistry, DefaultConstructedHandlesAreNoops) {
  Counter c;
  Gauge g;
  Histogram h;
  c.inc();
  g.add(1.0);
  h.observe(3.0);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(g.value(), 0.0);
}

TEST(Histogram, BucketsIncludingOverflow) {
  MetricsRegistry reg;
  Histogram h = reg.histogram("lat", {1.0, 10.0, 100.0});
  h.observe(0.5);    // bucket 0 (<= 1)
  h.observe(1.0);    // bucket 0 (boundary is inclusive)
  h.observe(5.0);    // bucket 1
  h.observe(1000.0); // overflow
  const HistogramCell* cell = h.cell();
  ASSERT_NE(cell, nullptr);
  ASSERT_EQ(cell->counts.size(), 4u);  // bounds + overflow
  EXPECT_EQ(cell->counts[0], 2u);
  EXPECT_EQ(cell->counts[1], 1u);
  EXPECT_EQ(cell->counts[2], 0u);
  EXPECT_EQ(cell->counts[3], 1u);
  EXPECT_EQ(cell->count, 4u);
  EXPECT_DOUBLE_EQ(cell->min, 0.5);
  EXPECT_DOUBLE_EQ(cell->max, 1000.0);
  EXPECT_DOUBLE_EQ(cell->sum, 1006.5);
}

TEST(Histogram, SharedCellAcrossHandles) {
  MetricsRegistry reg;
  Histogram a = reg.histogram("h", latency_buckets_ms());
  Histogram b = reg.histogram("h", latency_buckets_ms());
  a.observe(1.0);
  b.observe(2.0);
  EXPECT_EQ(a.cell(), b.cell());
  EXPECT_EQ(a.cell()->count, 2u);
}

TEST(BucketLadders, AreAscending) {
  for (const auto& bounds : {latency_buckets_ms(), size_buckets_bytes()}) {
    ASSERT_FALSE(bounds.empty());
    for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_LT(bounds[i - 1], bounds[i]);
  }
}

TEST(MergeSum, MismatchedHistogramBucketLayoutsThrow) {
  MetricsRegistry dst;
  dst.histogram("lat", {1.0, 10.0}).observe(0.5);
  MetricsRegistry src;
  src.histogram("lat", {1.0, 10.0, 100.0}).observe(0.5);
  EXPECT_THROW(dst.merge_sum({&src}), std::logic_error);
}

TEST(MergeSum, ZeroedRegistryIsIdentity) {
  MetricsRegistry dst;
  dst.counter("acks").inc(7);
  dst.gauge("depth").set(3.0);
  dst.histogram("lat", {1.0, 10.0}).observe(5.0);
  MetricsRegistry zero;
  zero.counter("acks");  // materialized but never incremented
  zero.histogram("lat", {1.0, 10.0});
  dst.merge_sum({&zero});
  EXPECT_EQ(dst.counter_value("acks"), 7u);
  const HistogramCell* cell = dst.histogram("lat", {1.0, 10.0}).cell();
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 1u);
  // min/max must not be clobbered by the empty source's sentinels.
  EXPECT_DOUBLE_EQ(cell->min, 5.0);
  EXPECT_DOUBLE_EQ(cell->max, 5.0);
}

TEST(MergeSum, SumsAcrossShardsFieldwise) {
  MetricsRegistry a;
  a.counter("acks").inc(2);
  a.histogram("lat", {1.0}).observe(0.5);
  MetricsRegistry b;
  b.counter("acks").inc(3);
  b.gauge("depth").set(4.0);
  b.histogram("lat", {1.0}).observe(9.0);
  MetricsRegistry dst;
  dst.merge_sum({&a, &b});
  EXPECT_EQ(dst.counter_value("acks"), 5u);
  const HistogramCell* cell = dst.histogram("lat", {1.0}).cell();
  ASSERT_NE(cell, nullptr);
  EXPECT_EQ(cell->count, 2u);
  EXPECT_DOUBLE_EQ(cell->min, 0.5);
  EXPECT_DOUBLE_EQ(cell->max, 9.0);
  EXPECT_DOUBLE_EQ(cell->sum, 9.5);
}

TEST(MetricsRegistry, CrossKindNameCollisionThrows) {
  MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x", {1.0}), std::logic_error);
  reg.gauge("g");
  EXPECT_THROW(reg.counter("g"), std::logic_error);
  // Same-kind re-request stays fine (shared cell).
  EXPECT_NO_THROW(reg.counter("x"));
}

TEST(MergeSum, GaugeVsCounterCollisionAcrossRegistriesThrows) {
  MetricsRegistry dst;
  dst.gauge("speed").set(1.0);
  MetricsRegistry src;
  src.counter("speed").inc();
  EXPECT_THROW(dst.merge_sum({&src}), std::logic_error);
}

TEST(CryptoOpCounters, ResetClearsEverything) {
  CryptoOpCounters& ops = crypto_ops();
  ops.reset();
  ++ops.schnorr_sign;
  ++ops.aggregate;
  EXPECT_EQ(crypto_ops().schnorr_sign, 1u);
  ops.reset();
  EXPECT_EQ(crypto_ops().schnorr_sign, 0u);
  EXPECT_EQ(crypto_ops().aggregate, 0u);
}

}  // namespace
}  // namespace cicero::obs
