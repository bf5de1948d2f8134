// cache_policy: eviction-policy quality under the zipf-serving workload.
//
// The `zipf-serving` scenario (Zipf-popular reads over a fixed hot set, no
// garbage collection) runs on Hoplite once per {policy x store capacity}
// cell. Hot ranks accumulate replicas that keep getting re-read; the cold
// tail streams one-touch replicas past them. Recency-only LRU lets the
// tail flush the hot replicas; the scan-resistant policies (2Q's probation
// FIFO + ghost list, segmented LRU's probation/protected split) hold the
// hot set — which shows up directly as local hit rate, eviction count and
// the latency tail as capacity tightens. Reported per cell: hit rate
// (hits / (hits + misses) over every Get), total evictions, p99.
#include <cstdint>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "cache/cache_config.h"
#include "common/units.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace hoplite::bench {
namespace {

using workload::LoadReport;

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  const int nodes = opt.Nodes(8);
  const SimDuration horizon = Milliseconds(100) * opt.Rounds(10);

  for (const cache::EvictionPolicyKind policy :
       {cache::EvictionPolicyKind::kLru, cache::EvictionPolicyKind::kTwoQ,
        cache::EvictionPolicyKind::kSegmentedLru}) {
    // Unlimited first (every policy ties there), then tighter and tighter
    // stores until only a fraction of the hot set fits per node.
    for (const std::int64_t capacity : {std::int64_t{0}, MB(16), MB(8), MB(4)}) {
      workload::ScenarioTuning tuning;
      tuning.num_nodes = nodes;
      tuning.horizon = horizon;
      tuning.max_object_bytes = opt.Bytes(KB(256));
      workload::ScenarioSpec spec = workload::BuildScenario("zipf-serving", tuning);
      spec.store_capacity_bytes = capacity;
      spec.cache.policy = policy;

      const LoadReport report =
          workload::RunScenario(spec, workload::BackendKind::kHoplite);
      const double capacity_mb =
          capacity == 0 ? 0.0
                        : static_cast<double>(capacity) / static_cast<double>(MB(1));
      const auto point = [&](const char* metric, double value, const char* unit) {
        rows.push_back(Row{.series = cache::PolicyName(policy),
                           .labels = {{"metric", metric}},
                           .coords = {{"capacity_mb", capacity_mb}},  // 0 = unlimited
                           .value = value,
                           .unit = unit});
      };
      const double looked_up =
          static_cast<double>(report.store.hits + report.store.misses);
      point("hit_rate",
            looked_up > 0.0 ? static_cast<double>(report.store.hits) / looked_up : 0.0,
            "fraction");
      point("evictions", static_cast<double>(report.store.evictions), "count");
      point("p99", report.total.latency.p99, "seconds");
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(cache_policy, "cache_policy",
                        "Eviction policy x store capacity under zipf-serving "
                        "(hit rate, evictions, p99)",
                        Run);

}  // namespace hoplite::bench
