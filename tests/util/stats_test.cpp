#include "util/stats.hpp"

#include <gtest/gtest.h>

#include <limits>

namespace cicero::util {
namespace {

TEST(CdfCollector, Quantiles) {
  CdfCollector c;
  for (int i = 1; i <= 100; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 100.0);
  EXPECT_NEAR(c.median(), 50.5, 1e-9);
  EXPECT_NEAR(c.p99(), 99.01, 0.01);
}

TEST(CdfCollector, QuantileOutOfRangeClampsToExtremes) {
  CdfCollector c;
  for (int i = 1; i <= 4; ++i) c.add(i);
  EXPECT_DOUBLE_EQ(c.quantile(-0.1), 1.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.1), 4.0);
  EXPECT_DOUBLE_EQ(c.quantile(std::numeric_limits<double>::quiet_NaN()), 1.0);
}

TEST(CdfCollector, EmptyQuantileIsZero) {
  CdfCollector c;
  EXPECT_DOUBLE_EQ(c.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(c.p99(), 0.0);
}

TEST(CdfCollector, SingleSampleIsEveryQuantile) {
  CdfCollector c;
  c.add(42.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.0), 42.0);
  EXPECT_DOUBLE_EQ(c.quantile(0.37), 42.0);
  EXPECT_DOUBLE_EQ(c.quantile(1.0), 42.0);
}

TEST(CdfCollector, SeriesMonotone) {
  CdfCollector c;
  for (int i = 0; i < 57; ++i) c.add((i * 31) % 100);
  const auto series = c.cdf_series(20);
  ASSERT_EQ(series.size(), 20u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_LE(series[i - 1].first, series[i].first);
    EXPECT_LE(series[i - 1].second, series[i].second);
  }
  EXPECT_DOUBLE_EQ(series.front().second, 0.0);
  EXPECT_DOUBLE_EQ(series.back().second, 1.0);
}

}  // namespace
}  // namespace cicero::util
