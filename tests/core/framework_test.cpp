#include "core/framework.hpp"

#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <tuple>

#include "core/deployment.hpp"

namespace cicero::core {
namespace {

TEST(Framework, Names) {
  EXPECT_STREQ(framework_name(FrameworkKind::kCentralized), "Centralized");
  EXPECT_STREQ(framework_name(FrameworkKind::kCrashTolerant), "Crash Tolerant");
  EXPECT_STREQ(framework_name(FrameworkKind::kCicero), "Cicero");
  EXPECT_STREQ(framework_name(FrameworkKind::kCiceroAgg), "Cicero Agg");
}

TEST(Framework, Table2HasCiceroRowWithAllCapabilities) {
  const auto rows = table2_rows();
  const auto it = std::find_if(rows.begin(), rows.end(), [](const Capabilities& c) {
    return c.system.find("Cicero") != std::string::npos;
  });
  ASSERT_NE(it, rows.end());
  EXPECT_TRUE(it->crash_tolerant);
  EXPECT_TRUE(it->byzantine_tolerant);
  EXPECT_TRUE(it->controller_authentication);
  EXPECT_TRUE(it->dynamic_membership);
  EXPECT_TRUE(it->update_consistent);
  EXPECT_TRUE(it->update_domains);
}

TEST(Framework, Table2OnlyCiceroHasUpdateDomains) {
  // The paper's Table 2: no related system combines all six properties.
  for (const auto& row : table2_rows()) {
    if (row.system.find("Cicero") == std::string::npos) {
      const bool all = row.crash_tolerant && row.byzantine_tolerant &&
                       row.controller_authentication && row.dynamic_membership &&
                       row.update_consistent && row.update_domains;
      EXPECT_FALSE(all) << row.system;
    }
  }
}

TEST(Framework, Table2MatchesPaperRowCount) {
  EXPECT_EQ(table2_rows().size(), 12u);
}

TEST(Delivery, EveryParamCombination) {
  // All 32 framework x execution x aggregation x backend combinations:
  // the 9 with a delivery path map to it, the other 23 are configuration
  // errors, never a silent fallback.
  using F = FrameworkKind;
  using E = ExecutionMode;
  using A = AggregationMode;
  using B = ThresholdBackend;
  const std::map<std::tuple<F, E, A, B>, Delivery> valid = {
      {{F::kCentralized, E::kControllerDriven, A::kNone, B::kSimBls}, Delivery::kDirect},
      {{F::kCentralized, E::kDecentralized, A::kNone, B::kSimBls}, Delivery::kDecentralized},
      {{F::kCrashTolerant, E::kControllerDriven, A::kNone, B::kSimBls}, Delivery::kDirect},
      {{F::kCrashTolerant, E::kDecentralized, A::kNone, B::kSimBls}, Delivery::kDecentralized},
      {{F::kCicero, E::kControllerDriven, A::kNone, B::kSimBls}, Delivery::kDirect},
      {{F::kCicero, E::kDecentralized, A::kNone, B::kSimBls}, Delivery::kDecentralized},
      {{F::kCicero, E::kControllerDriven, A::kInNetwork, B::kSimBls}, Delivery::kInNetwork},
      {{F::kCiceroAgg, E::kControllerDriven, A::kNone, B::kSimBls}, Delivery::kControllerAgg},
      {{F::kCiceroAgg, E::kControllerDriven, A::kNone, B::kFrost}, Delivery::kControllerAgg},
  };
  std::size_t rejected = 0;
  for (const F f : {F::kCentralized, F::kCrashTolerant, F::kCicero, F::kCiceroAgg}) {
    for (const E e : {E::kControllerDriven, E::kDecentralized}) {
      for (const A a : {A::kNone, A::kInNetwork}) {
        for (const B b : {B::kSimBls, B::kFrost}) {
          DeploymentParams dp;
          dp.framework = f;
          dp.execution_mode = e;
          dp.aggregation = a;
          dp.backend = b;
          const auto it = valid.find({f, e, a, b});
          SCOPED_TRACE(std::string(framework_name(f)) + " / " + execution_mode_name(e) +
                       " / " + aggregation_mode_name(a) + " / backend " +
                       std::to_string(static_cast<int>(b)));
          if (it != valid.end()) {
            EXPECT_EQ(delivery_of(dp), it->second);
          } else {
            EXPECT_THROW(delivery_of(dp), std::invalid_argument);
            ++rejected;
          }
        }
      }
    }
  }
  EXPECT_EQ(rejected, 23u);
}

TEST(Delivery, DeploymentRejectsWhatDeliveryOfRejects) {
  // The constructor goes through delivery_of: an invalid combination
  // never reaches the runtimes.
  DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;  // switch aggregation
  dp.backend = ThresholdBackend::kFrost;  // needs a controller coordinator
  dp.real_crypto = false;
  EXPECT_THROW(Deployment(net::build_pod(net::FabricParams{}), dp), std::invalid_argument);
}

}  // namespace
}  // namespace cicero::core
