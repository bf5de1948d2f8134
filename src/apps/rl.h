// Distributed reinforcement-learning training (§5.3, Figure 10).
//
// Two algorithm classes, per the paper:
//  * samples optimization (IMPALA): workers run rollouts and ship sample
//    batches to the trainer, which gathers the first half of finishers,
//    updates the model, and broadcasts the new policy (64 MB) to them;
//  * gradients optimization (A3C): workers compute 64 MB gradients, the
//    trainer reduces the first half and broadcasts the updated model.
//
// The trainer is node 0. Hoplite accelerates the policy broadcast (both
// modes) and the gradient reduce (A3C); Ray moves every object point to
// point through the trainer's NIC.
#pragma once

#include <cstdint>
#include <vector>

#include "apps/common.h"
#include "common/ids.h"
#include "common/units.h"

namespace hoplite::apps {

enum class RlMode {
  kSamplesOptimization,    ///< IMPALA-like
  kGradientsOptimization,  ///< A3C-like
};

struct RlOptions {
  Backend backend = Backend::kHoplite;
  RlMode mode = RlMode::kSamplesOptimization;
  int num_nodes = 16;  ///< 1 trainer + (n-1) workers
  /// Policy size: "a two-layer feed-forward neural network with 64 MB of
  /// parameters" (§5.3).
  std::int64_t model_bytes = 64LL * 1024 * 1024;
  /// Sample-batch size shipped per rollout (samples mode).
  std::int64_t sample_bytes = 8LL * 1024 * 1024;
  /// Simulation traces per rollout (converts rounds to samples/s).
  int samples_per_rollout = 50;
  ComputeModel rollout_compute;  ///< per-worker rollout / gradient computation
  ComputeModel update_compute;   ///< trainer-side model update
  int rounds = 12;
  std::uint64_t seed = 1;
};

struct RlResult {
  double samples_per_second = 0;
  double total_seconds = 0;
  int rounds_completed = 0;
};

[[nodiscard]] RlResult RunRl(const RlOptions& options);

}  // namespace hoplite::apps
