// mem_pressure: the memory-pressure scenario against shrinking stores.
//
// The `memory-pressure` scenario (no garbage collection, hot re-reads)
// runs on Hoplite while the per-node store capacity sweeps from unlimited
// down to a few object sizes. This is the first workload that actually
// drives `ClusterConfig::store_capacity_bytes`: pinned primaries overshoot
// the limit, LRU evicts replicas, re-reads land on stale directory
// locations and recover through the evicted-since-granted retry path —
// all while the latency tail records what that churn costs. Reported per
// capacity: p50/p99 latency, total evictions, the per-node used-bytes
// high-water mark, and the op completion rate.
#include <string>
#include <vector>

#include "bench/registry.h"
#include "common/units.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace hoplite::bench {
namespace {

using workload::LoadReport;

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  const int nodes = opt.Nodes(16);
  const SimDuration horizon = Milliseconds(100) * opt.Rounds(10);

  // 0 = unlimited (the baseline cell); then tighter and tighter stores,
  // down to a couple of object sizes per node.
  for (const std::int64_t capacity : {std::int64_t{0}, MB(64), MB(24), MB(8)}) {
    workload::ScenarioTuning tuning;
    tuning.num_nodes = nodes;
    tuning.horizon = horizon;
    tuning.load_scale = 4.0;  // ~520 ops/s aggregate: enough churn to fill stores
    tuning.max_object_bytes = opt.Bytes(MB(4));
    workload::ScenarioSpec spec = workload::BuildScenario("memory-pressure", tuning);
    spec.store_capacity_bytes = capacity;

    const LoadReport report = workload::RunScenario(spec, workload::BackendKind::kHoplite);
    const double capacity_mb =
        capacity == 0 ? 0.0 : static_cast<double>(capacity) / static_cast<double>(MB(1));
    const auto point = [&](const char* metric, double value, const char* unit) {
      rows.push_back(Row{.series = "Hoplite",
                         .labels = {{"metric", metric}},
                         .coords = {{"capacity_mb", capacity_mb}},  // 0 = unlimited
                         .value = value,
                         .unit = unit});
    };
    point("p50", report.total.latency.p50, "seconds");
    point("p99", report.total.latency.p99, "seconds");
    // Per-tenant tails: the `scan` tenant is mostly hot re-reads, so its
    // latency is where eviction churn (stale locations, re-fetches) shows
    // first, while `churn` carries the broadcast-heavy baseline tail.
    for (const workload::TenantLoad& tenant : report.tenants) {
      point((tenant.name + "_p99").c_str(), tenant.latency.p99, "seconds");
    }
    point("evictions", static_cast<double>(report.store.evictions), "count");
    point("peak_node_bytes", static_cast<double>(report.store.peak_used_bytes), "bytes");
    point("completed_fraction",
          static_cast<double>(report.total.completed) /
              static_cast<double>(report.total.offered),
          "fraction");
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(mem_pressure, "mem_pressure",
                        "Memory pressure: eviction + stale-location retries vs "
                        "store capacity under sustained no-GC load",
                        Run);

}  // namespace hoplite::bench
