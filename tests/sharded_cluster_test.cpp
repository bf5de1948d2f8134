// Independent clusters composed on a ParallelFor pool: each cluster owns a
// private sim::Simulator and shares no mutable state, so running several at
// once on 1, 2 or 4 worker threads must leave every one of them exactly
// like the same cluster run alone, event for event. The failure-injection
// variant drives the full kill/detect/recover machinery on every composed
// cluster at once, which is the TSan lane's concurrency workout for the
// protocol stack.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/parallel.h"
#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"

namespace hoplite {
namespace {

struct SoloResult {
  SimTime finish = 0;
  std::uint64_t executed = 0;
};

SoloResult RunCollective(const std::string& op, int nodes, std::int64_t bytes) {
  core::HopliteCluster cluster(bench::PaperCluster(nodes));
  const auto ready = bench::Staggered(nodes, Microseconds(10));
  const auto done = bench::StartHopliteCollective(op, cluster, bytes, ready);
  SoloResult result;
  done.Then([&] { result.finish = cluster.Now(); });
  cluster.RunAll();
  EXPECT_TRUE(done.ready()) << op;
  result.executed = cluster.simulator().executed_events();
  return result;
}

TEST(ShardedClusterTest, ComposedClustersReproduceSoloRunsExactly) {
  const std::vector<std::string> ops = {"broadcast", "gather", "reduce", "allreduce"};
  const int nodes = 8;
  const std::int64_t bytes = 1 << 20;
  std::vector<SoloResult> solo;
  solo.reserve(ops.size());
  for (const std::string& op : ops) solo.push_back(RunCollective(op, nodes, bytes));

  for (const int workers : {1, 2, 4}) {
    std::vector<SoloResult> composed(ops.size());
    ParallelFor(ops.size(), workers, [&](std::size_t i) {
      composed[i] = RunCollective(ops[i], nodes, bytes);
    });
    for (std::size_t i = 0; i < ops.size(); ++i) {
      EXPECT_EQ(composed[i].finish, solo[i].finish) << ops[i] << " workers=" << workers;
      EXPECT_EQ(composed[i].executed, solo[i].executed) << ops[i] << " workers=" << workers;
    }
  }
}

// Issues a broadcast, kills a mid-tree receiver mid-transfer (the others
// must fail over), recovers it, and drains. Exercises failure detection,
// directory cleanup and membership notification.
SoloResult ChurnWorkload(int nodes, std::int64_t bytes) {
  core::HopliteCluster cluster(bench::PaperCluster(nodes));
  auto& sim = cluster.simulator();
  const auto done =
      bench::StartHopliteBroadcast(cluster, bytes, bench::Staggered(nodes, Microseconds(5)));
  const NodeID victim = static_cast<NodeID>(nodes / 2);
  At(sim, Milliseconds(1)).Then([&cluster, victim] {
    if (cluster.IsAlive(victim)) cluster.KillNode(victim);
  });
  At(sim, Milliseconds(400)).Then([&cluster, victim] {
    if (!cluster.IsAlive(victim)) cluster.RecoverNode(victim);
  });
  SoloResult result;
  done.Then([&cluster, &result] { result.finish = cluster.Now(); });
  cluster.RunAll();
  result.executed = sim.executed_events();
  return result;
}

TEST(ShardedClusterTest, ConcurrentFailureInjectionMatchesSoloRuns) {
  const int nodes = 8;
  const std::int64_t bytes = 4 << 20;
  const SoloResult solo = ChurnWorkload(nodes, bytes);
  ASSERT_GT(solo.executed, 0u);

  // Four identical churn clusters killed and recovered concurrently; every
  // one must reproduce the solo run exactly.
  constexpr std::size_t kClusters = 4;
  for (const int workers : {1, 2, 4}) {
    std::vector<SoloResult> composed(kClusters);
    ParallelFor(kClusters, workers,
                [&](std::size_t i) { composed[i] = ChurnWorkload(nodes, bytes); });
    for (std::size_t i = 0; i < kClusters; ++i) {
      EXPECT_EQ(composed[i].finish, solo.finish) << "cluster " << i << " workers=" << workers;
      EXPECT_EQ(composed[i].executed, solo.executed)
          << "cluster " << i << " workers=" << workers;
    }
  }
}

}  // namespace
}  // namespace hoplite
