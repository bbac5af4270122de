// Decentralized-vs-controller-driven equivalence: for every seed, under
// loss, on the sequential and the sharded parallel engine, both
// execution modes must land the exact same set of completed flows with
// fully drained trackers; the decentralized interleaving must keep every
// intermediate table state invariant-clean (no loops, no black holes,
// waypoints intact); and a decentralized run must be bit-identical to
// its own rerun.  Runs under `ctest -L consistency`.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "integration/helpers.hpp"
#include "net/checker.hpp"
#include "workload/topo_gen.hpp"

namespace cicero {
namespace {

using core::ExecutionMode;
using core::FrameworkKind;
using testing::abandoned_count;
using testing::completed_count;

std::unique_ptr<core::Deployment> make_dep(ExecutionMode mode, std::uint64_t seed,
                                           std::uint32_t threads, bool multi_domain = true) {
  core::DeploymentParams dp;
  dp.framework = FrameworkKind::kCicero;
  dp.execution_mode = mode;
  dp.real_crypto = false;  // cost-model mode: these runs stress outcomes, not crypto
  dp.seed = seed;
  dp.threads = threads;
  workload::FatTreeOptions opt;
  opt.domain_per_pod = multi_domain;  // multi-domain, so threads=4 really shards
  return std::make_unique<core::Deployment>(workload::fat_tree(4, opt), dp);
}

std::set<std::size_t> completed_set(const core::Deployment& dep) {
  std::set<std::size_t> done;
  const auto& records = dep.flow_records();
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (records[i].completed) done.insert(i);
  }
  return done;
}

TEST(DecentralizedEquivalence, SameCompletionSetsUnderLossAcrossSeeds) {
  // 10% loss, threads=1 and 4.  The two modes lose different messages
  // (their send orders differ), but both must recover every flow —
  // identical completion sets, nothing stranded, for every seed.
  for (const std::uint32_t threads : {1u, 4u}) {
    SCOPED_TRACE(::testing::Message() << "threads " << threads);
    for (const std::uint64_t seed : {7ull, 21ull, 99ull}) {
      const auto run_mode = [seed, threads](ExecutionMode mode) {
        auto dep = make_dep(mode, seed, threads);
        dep->faults().set_uniform_loss(0.10);
        const auto flows = workload::scale_flows(dep->topology(), 30, /*rate=*/300.0, seed);
        dep->inject(flows);
        dep->run(sim::seconds(120));
        EXPECT_EQ(completed_count(*dep), flows.size()) << "seed " << seed;
        EXPECT_EQ(dep->pending_updates(), 0u) << "seed " << seed;
        EXPECT_EQ(abandoned_count(*dep), 0u) << "seed " << seed;
        return completed_set(*dep);
      };
      const auto driven = run_mode(ExecutionMode::kControllerDriven);
      const auto dec = run_mode(ExecutionMode::kDecentralized);
      EXPECT_FALSE(driven.empty()) << "seed " << seed;
      EXPECT_EQ(driven, dec) << "seed " << seed;
    }
  }
}

TEST(DecentralizedEquivalence, EveryApplyStepIsInvariantCleanUnderLoss) {
  // Sequential engine (observers probe cross-switch tables, which only
  // one thread may do) on a single-domain fabric (cross-domain deps are
  // filtered out of each domain's schedule in either execution mode, so
  // the per-apply invariant is a single-domain contract — same as the
  // ConsistencyInvariant suite): after EVERY decentralized rule
  // application, tracing each injected pair through the live tables must
  // never see a loop or black hole — the in-band sequencing preserves
  // the same intermediate-state consistency the controller-driven
  // scheduler guarantees.
  auto dep =
      make_dep(ExecutionMode::kDecentralized, 12345, /*threads=*/1, /*multi_domain=*/false);
  dep->faults().set_uniform_loss(0.10);
  const auto flows = workload::scale_flows(dep->topology(), 30, /*rate=*/300.0, 7);
  std::set<std::pair<net::NodeIndex, net::NodeIndex>> pairs;
  for (const auto& f : flows) pairs.insert({f.src_host, f.dst_host});
  std::uint64_t applies = 0;
  for (const net::NodeIndex sw : dep->topology().switches()) {
    dep->switch_at(sw).add_applied_observer([&](const sched::Update& u) {
      ++applies;
      const net::TableMap tables = dep->table_map();
      const auto probe = [&](net::NodeIndex src, net::NodeIndex dst) {
        if (src == net::kNoNode || dst == net::kNoNode) return;
        const net::TraceResult trace = net::trace_flow(dep->topology(), tables, src, dst);
        ASSERT_NE(trace.status, net::TraceStatus::kBlackHole)
            << "black hole for (" << src << ", " << dst << ")";
        ASSERT_NE(trace.status, net::TraceStatus::kLoop)
            << "loop for (" << src << ", " << dst << ")";
        if (trace.status == net::TraceStatus::kDelivered) {
          ASSERT_TRUE(net::passes_waypoint(trace, dep->topology().host_tor(dst)));
        }
      };
      probe(u.rule.match.src_host, u.rule.match.dst_host);
      if (applies % 16 == 0) {
        for (const auto& [src, dst] : pairs) probe(src, dst);
      }
    });
  }
  dep->inject(flows);
  dep->run(sim::seconds(120));
  EXPECT_GT(applies, 0u);
  EXPECT_EQ(completed_count(*dep), flows.size());
}

TEST(DecentralizedEquivalence, RerunIsBitIdentical) {
  // A decentralized run, sequential or parallel, is a pure function of
  // its seeds: same per-flow timestamps, same message/drop counts, run
  // to run.
  const auto run_once = [](std::uint32_t threads) {
    auto dep = make_dep(ExecutionMode::kDecentralized, 777, threads);
    dep->faults().set_uniform_loss(0.05);
    const auto flows = workload::scale_flows(dep->topology(), 30, /*rate=*/300.0, 7);
    dep->inject(flows);
    dep->run(sim::seconds(120));
    std::vector<std::pair<sim::SimTime, sim::SimTime>> stamps;
    for (const auto& r : dep->flow_records()) {
      stamps.emplace_back(r.route_ready, r.completion);
    }
    stamps.emplace_back(static_cast<sim::SimTime>(dep->faults().dropped_total()),
                        static_cast<sim::SimTime>(dep->network().messages_sent()));
    return stamps;
  };
  for (const std::uint32_t threads : {1u, 4u}) {
    EXPECT_EQ(run_once(threads), run_once(threads)) << "threads " << threads;
  }
}

}  // namespace
}  // namespace cicero
