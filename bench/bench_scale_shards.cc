// Cluster-composition scaling figure: wall-clock speedup and simulated-time
// equivalence versus worker count.
//
// Three identical 1024-node rack collective jobs, each a cluster on its own
// private sim::Simulator running broadcast, reduce and allreduce
// concurrently, run on ParallelFor (common/parallel.h) with W in
// {1, 2, 4, 8} workers. A cluster is one coupling unit (its fabric couples
// every flow), so independent clusters are the unit of host parallelism;
// identical jobs keep the workers balanced, so the wall-clock rows measure
// the pool, not the job mix. The `shards` coordinate (and the registered
// title, kept so result documents stay comparable) names the worker count.
// Two row families:
//
//   * `sim-<op>` rows (unit `seconds`): job 0's simulated finish time, with
//     every job checked equal to it. These must be identical at every
//     worker count: the determinism sweep diffs them, so a worker-dependent
//     result shows up as a byte diff.
//   * `wall` / `wall-speedup` rows: how long the composition took (cluster
//     setup, run and teardown) and the speedup over W = 1. With three jobs
//     at most three workers are busy, so the ceiling is 3x at W >= 3 on a
//     host with >= 3 free cores. A single sample per W is noisy; judge the
//     speedup by the median and IQR of repeated runs.
//
// Run: bench_all --figure scale_shards (scale: --max-nodes, --max-bytes).
//
// hoplite-lint: allow-file(nondet-source) -- the wall-clock rows are this
// bench's payload; nothing here feeds back into simulated behavior.
#include <algorithm>
#include <chrono>
#include <cstddef>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/units.h"
#include "core/cluster.h"
#include "net/fabric.h"
#include "store/buffer.h"

namespace hoplite::bench {
namespace {

[[nodiscard]] core::HopliteCluster::Options RackJob(int nodes) {
  core::HopliteCluster::Options options = PaperCluster(nodes);
  options.network.fabric.topology = net::TopologyKind::kRack;
  options.network.fabric.num_racks = std::max(2, nodes / 32);
  options.network.fabric.oversubscription = 4.0;
  return options;
}

std::vector<Row> Run(const RunOptions& opt) {
  const int nodes = opt.Nodes(1024);
  const std::int64_t bytes = opt.Bytes(MB(32));
  const std::vector<std::string> ops = {"broadcast", "reduce", "allreduce"};
  constexpr std::size_t kJobs = 3;
  std::vector<Row> rows;

  double base_wall = 0;
  for (const int workers : {1, 2, 4, 8}) {
    // finish[job][op]: each job's per-op finish time, written only by the
    // worker that runs the job.
    std::vector<std::vector<SimTime>> finish(kJobs, std::vector<SimTime>(ops.size(), 0));
    const auto start = std::chrono::steady_clock::now();
    ParallelFor(kJobs, workers, [&](std::size_t job) {
      core::HopliteCluster cluster(RackJob(nodes));
      std::vector<Ref<std::vector<store::Buffer>>> done;
      for (std::size_t i = 0; i < ops.size(); ++i) {
        done.push_back(bench::StartHopliteCollective(ops[i], cluster, bytes,
                                                     Staggered(nodes, Microseconds(10))));
        SimTime& out = finish[job][i];
        done.back().Then([&cluster, &out] { out = cluster.Now(); });
      }
      cluster.RunAll();
      for (const auto& op_done : done) HOPLITE_CHECK(op_done.ready());
    });
    const auto stop = std::chrono::steady_clock::now();
    const double wall = std::chrono::duration<double>(stop - start).count();
    if (workers == 1) base_wall = wall;
    for (const std::vector<SimTime>& job_finish : finish) {
      HOPLITE_CHECK(job_finish == finish[0]) << "identical jobs finished apart";
    }

    for (std::size_t i = 0; i < ops.size(); ++i) {
      rows.push_back(Row{.series = "sim-" + ops[i],
                         .coords = {{"shards", static_cast<double>(workers)},
                                    {"nodes", static_cast<double>(nodes)},
                                    {"bytes", static_cast<double>(bytes)}},
                         .value = ToSeconds(finish[0][i]),
                         .unit = "seconds"});
    }
    rows.push_back(Row{.series = "wall",
                       .coords = {{"shards", static_cast<double>(workers)}},
                       .value = wall,
                       .unit = "wall_seconds"});
    rows.push_back(Row{.series = "wall-speedup",
                       .coords = {{"shards", static_cast<double>(workers)}},
                       .value = wall > 0 ? base_wall / wall : 0.0,
                       .unit = "x_wall"});
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(scale_shards, "scale_shards",
                        "Parallel engine: three 1024-node rack collectives "
                        "composed on 1-8 shards (speedup + equivalence)",
                        Run);

}  // namespace hoplite::bench
