// Figure 13: synchronous data-parallel training throughput (samples/s) for
// AlexNet / VGG-16 / ResNet-50 on 8 and 16 nodes: Hoplite vs OpenMPI vs
// Gloo vs Ray.
//
// Paper reference: Hoplite ~ OpenMPI, 12-24% slower than Gloo's
// ring-chunked allreduce, and far ahead of Ray. (Our serialized-FIFO NIC
// model costs the reduce+broadcast composition a further ~10% relative to
// Gloo; see EXPERIMENTS.md.)
#include <vector>

#include "apps/sync_training.h"
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
};

double Throughput(const RunOptions& opt, const ModelSpec& model, int nodes,
                  Backend backend) {
  RunStats stats;
  for (int i = 0; i < opt.Repeats(3); ++i) {
    apps::SyncTrainingOptions options;
    options.backend = backend;
    options.num_nodes = nodes;
    options.model_bytes = opt.Bytes(model.bytes);
    options.gradient_compute = apps::ComputeModel{model.compute, 0.05};
    options.rounds = opt.Rounds(6);
    options.seed = static_cast<std::uint64_t>(i + 1);
    stats.Add(apps::RunSyncTraining(options).samples_per_second);
  }
  return stats.mean();
}

std::vector<Row> Run(const RunOptions& opt) {
  const ModelSpec models[] = {
      {"AlexNet", MB(233), Milliseconds(400)},
      {"VGG-16", MB(528), Milliseconds(700)},
      {"ResNet-50", MB(97), Milliseconds(300)},
  };
  const std::pair<const char*, Backend> backends[] = {
      {"Hoplite", Backend::kHoplite},
      {"OpenMPI", Backend::kMpi},
      {"Gloo", Backend::kGloo},
      {"Ray", Backend::kRay},
  };
  std::vector<Row> rows;
  for (const int nodes : opt.NodeCounts({8, 16})) {
    for (const ModelSpec& model : models) {
      for (const auto& [series, backend] : backends) {
        rows.push_back(Row{.series = series,
                           .labels = {{"model", model.name}},
                           .coords = {{"nodes", static_cast<double>(nodes)},
                                      {"model_bytes",
                                       static_cast<double>(opt.Bytes(model.bytes))}},
                           .value = Throughput(opt, model, nodes, backend),
                           .unit = "samples_per_second"});
      }
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fig13, "fig13",
                        "Figure 13: synchronous data-parallel training throughput", Run);

}  // namespace hoplite::bench
