// Figure 11: Ray Serve ensemble throughput (queries/s) for an ensemble of
// image-classification models on 8 and 16 replica nodes, Hoplite vs Ray.
//
// Paper reference: 2.2x (8 nodes) and 3.3x (16 nodes) speedup. Each query
// broadcasts a 64-image 256x256 batch to every replica and gathers the
// majority vote.
#include <vector>

#include "apps/serving.h"
#include "bench/registry.h"
#include "common/stats.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

using apps::Backend;

double Throughput(const RunOptions& opt, int replicas, Backend backend) {
  RunStats stats;
  for (int i = 0; i < opt.Repeats(3); ++i) {
    apps::ServingOptions options;
    options.backend = backend;
    options.num_nodes = replicas + 1;
    options.query_bytes = opt.Bytes(options.query_bytes);
    options.inference_compute = apps::ComputeModel{Milliseconds(40), 0.15};
    options.num_queries = opt.Rounds(25);
    options.seed = static_cast<std::uint64_t>(i + 1);
    stats.Add(apps::RunServing(options).queries_per_second);
  }
  return stats.mean();
}

std::vector<Row> Run(const RunOptions& opt) {
  const double paper_speedup[] = {2.2, 3.3};
  std::vector<Row> rows;
  int idx = 0;
  int last_replicas = -1;
  for (const int paper_replicas : {8, 16}) {
    // The frontend occupies one node, so the replica count shrinks with
    // --max-nodes; skip duplicates once both paper points collapse.
    const int replicas = opt.Nodes(paper_replicas + 1) - 1;
    const double paper = paper_speedup[idx++];
    if (replicas == last_replicas) continue;
    last_replicas = replicas;
    const double hoplite = Throughput(opt, replicas, Backend::kHoplite);
    const double ray = Throughput(opt, replicas, Backend::kRay);
    const auto point = [&](const char* series, double value, const char* unit) {
      rows.push_back(Row{.series = series,
                         .coords = {{"replicas", static_cast<double>(replicas)}},
                         .value = value,
                         .unit = unit});
    };
    point("Hoplite", hoplite, "queries_per_second");
    point("Ray", ray, "queries_per_second");
    rows.push_back(Row{.series = "speedup",
                       .coords = {{"replicas", static_cast<double>(replicas)},
                                  {"paper_speedup", paper}},
                       .value = ray > 0 ? hoplite / ray : 0.0,
                       .unit = "ratio"});
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig11, "fig11",
                        "Figure 11: model-serving ensemble throughput, Hoplite vs Ray",
                        Run);

}  // namespace hoplite::bench
