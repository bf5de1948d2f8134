// Figure 9: asynchronous-SGD training throughput (samples/s) for AlexNet,
// VGG-16 and ResNet-50 on 8 and 16 nodes, Hoplite vs Ray.
//
// Paper reference (16 nodes): Hoplite speeds up training by 7.8x (AlexNet),
// 7.0x (VGG-16) and 5.0x (ResNet-50). The parameter server is the Ray
// example implementation; it reduces the first half of finishers and
// broadcasts the new weights to them.
//
// Per-model compute delays stand in for the V100 forward+backward pass (see
// DESIGN.md §1); the communication-to-computation ratio — which determines
// the speedup — follows the model sizes the paper lists.
#include <vector>

#include "apps/async_sgd.h"
#include "bench/registry.h"
#include "common/stats.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

using apps::Backend;

struct ModelSpec {
  const char* name;
  std::int64_t bytes;
  SimDuration compute;
  double paper_speedup_16;  ///< reference from the paper's text
};

double Throughput(const RunOptions& opt, const ModelSpec& model, int nodes,
                  Backend backend) {
  RunStats stats;
  for (int i = 0; i < opt.Repeats(3); ++i) {
    apps::AsyncSgdOptions options;
    options.backend = backend;
    options.num_nodes = nodes;
    options.model_bytes = opt.Bytes(model.bytes);
    options.gradient_compute = apps::ComputeModel{model.compute, 0.2};
    options.rounds = opt.Rounds(10);
    options.seed = static_cast<std::uint64_t>(i + 1);
    stats.Add(apps::RunAsyncSgd(options).samples_per_second);
  }
  return stats.mean();
}

std::vector<Row> Run(const RunOptions& opt) {
  const ModelSpec models[] = {
      {"AlexNet", MB(233), Milliseconds(60), 7.8},
      {"VGG-16", MB(528), Milliseconds(350), 7.0},
      {"ResNet-50", MB(97), Milliseconds(200), 5.0},
  };
  std::vector<Row> rows;
  for (const int nodes : opt.NodeCounts({8, 16})) {
    for (const ModelSpec& model : models) {
      const double hoplite = Throughput(opt, model, nodes, Backend::kHoplite);
      const double ray = Throughput(opt, model, nodes, Backend::kRay);
      const auto point = [&](const char* series, double value, const char* unit) {
        rows.push_back(Row{.series = series,
                           .labels = {{"model", model.name}},
                           .coords = {{"nodes", static_cast<double>(nodes)},
                                      {"model_bytes",
                                       static_cast<double>(opt.Bytes(model.bytes))}},
                           .value = value,
                           .unit = unit});
      };
      point("Hoplite", hoplite, "samples_per_second");
      point("Ray", ray, "samples_per_second");
      rows.push_back(Row{.series = "speedup",
                         .labels = {{"model", model.name}},
                         .coords = {{"nodes", static_cast<double>(nodes)},
                                    {"paper_speedup_16", model.paper_speedup_16}},
                         .value = ray > 0 ? hoplite / ray : 0.0,
                         .unit = "ratio"});
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig9, "fig9",
                        "Figure 9: async SGD training throughput, Hoplite vs Ray", Run);

}  // namespace hoplite::bench
