// Synchronous data-parallel training (§5.6, Figure 13).
//
// Every node is a worker: compute a gradient, allreduce it, repeat. This is
// exactly the workload Hoplite was NOT designed for — the paper runs it to
// quantify the cost of choosing a task-based system for static workloads:
// Hoplite (tree reduce + dynamic broadcast) lands near OpenMPI and within
// 12-24% of Gloo's bandwidth-optimal ring, while Ray pays the full
// point-to-point penalty.
#pragma once

#include <cstdint>

#include "apps/common.h"
#include "common/units.h"

namespace hoplite::apps {

struct SyncTrainingOptions {
  Backend backend = Backend::kHoplite;
  int num_nodes = 16;  ///< all nodes are workers
  std::int64_t model_bytes = 0;
  ComputeModel gradient_compute;  ///< small jitter: same batch size everywhere
  int batch_size = 32;
  int rounds = 8;
  std::uint64_t seed = 1;
};

struct SyncTrainingResult {
  double samples_per_second = 0;
  double total_seconds = 0;
  int rounds_completed = 0;
  double mean_round_seconds = 0;
};

[[nodiscard]] SyncTrainingResult RunSyncTraining(const SyncTrainingOptions& options);

}  // namespace hoplite::apps
