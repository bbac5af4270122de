// Route memo under concurrent readers: the parallel engine's shards share
// one net::Topology, so several threads may ask for routes at once.  Every
// answer must equal the sequential one, and each distinct pair must miss
// the memo exactly once (Dijkstra runs under the memo's lock).  Runs
// under `ctest -L parallel`, which the ThreadSanitizer CI job covers.
#include <gtest/gtest.h>

#include <thread>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "workload/topo_gen.hpp"

namespace cicero::net {
namespace {

TEST(TopologyConcurrency, SharedMemoAnswersMatchSequential) {
  const Topology shared = workload::wan(32);
  std::vector<std::pair<NodeIndex, NodeIndex>> pairs;
  for (const NodeIndex a : shared.hosts()) {
    for (const NodeIndex b : shared.hosts()) {
      if (a != b) pairs.emplace_back(a, b);
    }
  }
  const Topology sequential(shared);
  std::vector<std::vector<NodeIndex>> expected;
  for (const auto& [a, b] : pairs) expected.push_back(sequential.shortest_path(a, b));

  constexpr std::size_t kThreads = 4;
  std::vector<std::vector<std::vector<NodeIndex>>> answers(
      kThreads, std::vector<std::vector<NodeIndex>>(pairs.size()));
  std::vector<std::thread> workers;
  for (std::size_t w = 0; w < kThreads; ++w) {
    workers.emplace_back([&, w] {
      // Each thread starts a quarter further along the same pair list, so
      // the threads race on the same keys from different positions.
      const std::size_t start = w * pairs.size() / kThreads;
      for (std::size_t k = 0; k < pairs.size(); ++k) {
        const std::size_t i = (start + k) % pairs.size();
        answers[w][i] = shared.shortest_path(pairs[i].first, pairs[i].second);
      }
    });
  }
  for (auto& t : workers) t.join();

  for (std::size_t w = 0; w < kThreads; ++w) {
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      ASSERT_EQ(answers[w][i], expected[i]) << "thread " << w << " pair " << i;
    }
  }
  EXPECT_EQ(shared.dijkstra_runs(), pairs.size());
  EXPECT_EQ(shared.route_memo_size(), pairs.size());
}

}  // namespace
}  // namespace cicero::net
