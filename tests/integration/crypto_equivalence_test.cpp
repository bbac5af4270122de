// Real-vs-modeled crypto equivalence (DESIGN.md §4.2): a modeled run
// charges every simulated cost a real run charges, so with no loss one
// seeded workload must give the same per-flow timings and the same
// message count in both modes.  Only the signature bytes differ.  Runs
// under `ctest -L consistency`.
//
// Decentralized execution is left out: modeled runs charge nothing for
// SegmentDone verification, the one documented mode read outside the
// CryptoSuite, so its flow timings differ between the modes.
#include <gtest/gtest.h>

#include <ostream>
#include <tuple>
#include <vector>

#include "integration/helpers.hpp"

namespace cicero {
namespace {

using core::AggregationMode;
using core::FrameworkKind;
using core::ThresholdBackend;

struct Shape {
  const char* name;
  FrameworkKind framework;
  ThresholdBackend backend = ThresholdBackend::kSimBls;
  AggregationMode aggregation = AggregationMode::kNone;
};

// Keeps the registered test names stable (gtest would print raw bytes).
void PrintTo(const Shape& shape, std::ostream* os) { *os << shape.name; }

struct Outcome {
  std::vector<std::tuple<sim::SimTime, bool>> flows;  ///< (route_ready, completed)
  std::uint64_t messages = 0;
};

Outcome run(const Shape& shape, bool real_crypto) {
  core::DeploymentParams dp;
  dp.framework = shape.framework;
  dp.backend = shape.backend;
  dp.aggregation = shape.aggregation;
  dp.real_crypto = real_crypto;
  dp.seed = 4242;
  core::Deployment dep(net::build_pod(testing::small_pod()), dp);
  dep.inject(testing::small_workload(dep.topology(), 40));
  dep.run(sim::seconds(30));
  Outcome out;
  for (const auto& r : dep.flow_records()) out.flows.emplace_back(r.route_ready, r.completed);
  out.messages = dep.network().messages_sent();
  return out;
}

class CryptoEquivalence : public ::testing::TestWithParam<Shape> {};

TEST_P(CryptoEquivalence, RealAndModeledRunsMatch) {
  const Outcome real = run(GetParam(), true);
  const Outcome modeled = run(GetParam(), false);
  std::size_t completed = 0;
  for (const auto& [ready, done] : real.flows) completed += done;
  EXPECT_EQ(completed, 40u);
  EXPECT_EQ(real.flows, modeled.flows);
  EXPECT_EQ(real.messages, modeled.messages);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CryptoEquivalence,
    ::testing::Values(Shape{"Centralized", FrameworkKind::kCentralized},
                      Shape{"CrashTolerant", FrameworkKind::kCrashTolerant},
                      Shape{"Cicero", FrameworkKind::kCicero},
                      Shape{"CiceroAggSimBls", FrameworkKind::kCiceroAgg},
                      Shape{"CiceroAggFrost", FrameworkKind::kCiceroAgg, ThresholdBackend::kFrost},
                      Shape{"CiceroInNetwork", FrameworkKind::kCicero, ThresholdBackend::kSimBls,
                            AggregationMode::kInNetwork}),
    [](const ::testing::TestParamInfo<Shape>& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace cicero
