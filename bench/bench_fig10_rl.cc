// Figure 10: RLlib-style reinforcement-learning training throughput
// (samples/s) for IMPALA (samples optimization) and A3C (gradients
// optimization) on 8 and 16 nodes, Hoplite vs Ray.
//
// Paper reference: IMPALA 1.9x (8 nodes) / 1.8x (16, compute-bound by then);
// A3C 2.2x (8) / 3.9x (16). The policy is a 64 MB feed-forward network.
#include <vector>

#include "apps/rl.h"
#include "bench/registry.h"
#include "common/stats.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

using apps::Backend;
using apps::RlMode;

double Throughput(const RunOptions& opt, RlMode mode, int nodes, Backend backend) {
  RunStats stats;
  for (int i = 0; i < opt.Repeats(3); ++i) {
    apps::RlOptions options;
    options.backend = backend;
    options.mode = mode;
    options.num_nodes = nodes;
    options.model_bytes = opt.Bytes(options.model_bytes);
    options.sample_bytes = opt.Bytes(options.sample_bytes);
    // Rollouts dominate IMPALA compute; A3C's gradient passes are similar in
    // magnitude. The 64 MB policy broadcast is the communication load.
    // IMPALA's trainer-side learner step is substantial (it consumes the
    // gathered sample batches), which is why the paper sees it become
    // compute-bound at 16 nodes; A3C's update is a cheap gradient apply.
    options.rollout_compute = apps::ComputeModel{Milliseconds(250), 0.3};
    options.update_compute = mode == RlMode::kSamplesOptimization
                                 ? apps::ComputeModel{Milliseconds(130), 0.1}
                                 : apps::ComputeModel{Milliseconds(30), 0.1};
    options.rounds = opt.Rounds(10);
    options.seed = static_cast<std::uint64_t>(i + 1);
    stats.Add(apps::RunRl(options).samples_per_second);
  }
  return stats.mean();
}

std::vector<Row> Run(const RunOptions& opt) {
  struct AlgoSpec {
    const char* name;
    RlMode mode;
    double paper_8;
    double paper_16;
  };
  const AlgoSpec algos[] = {
      {"IMPALA", RlMode::kSamplesOptimization, 1.9, 1.8},
      {"A3C", RlMode::kGradientsOptimization, 2.2, 3.9},
  };
  std::vector<Row> rows;
  for (const AlgoSpec& algo : algos) {
    for (const int nodes : opt.NodeCounts({8, 16})) {
      const double hoplite = Throughput(opt, algo.mode, nodes, Backend::kHoplite);
      const double ray = Throughput(opt, algo.mode, nodes, Backend::kRay);
      const auto point = [&](const char* series, double value, const char* unit) {
        rows.push_back(Row{.series = series,
                           .labels = {{"algorithm", algo.name}},
                           .coords = {{"nodes", static_cast<double>(nodes)}},
                           .value = value,
                           .unit = unit});
      };
      point("Hoplite", hoplite, "samples_per_second");
      point("Ray", ray, "samples_per_second");
      rows.push_back(
          Row{.series = "speedup",
              .labels = {{"algorithm", algo.name}},
              .coords = {{"nodes", static_cast<double>(nodes)},
                         {"paper_speedup", nodes == 8 ? algo.paper_8 : algo.paper_16}},
              .value = ray > 0 ? hoplite / ray : 0.0,
              .unit = "ratio"});
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig10, "fig10",
                        "Figure 10: RL training throughput (IMPALA / A3C), Hoplite vs Ray",
                        Run);

}  // namespace hoplite::bench
