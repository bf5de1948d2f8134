// load_sweep: latency vs offered load under the open-loop workload engine.
//
// The multi-tenant `mixed` scenario (Put / Get / broadcast / Reduce over
// the Fig. 6 / Fig. 14 size band) is lowered to one trace per cell and
// replayed at *matched offered load* on Hoplite and the Ray-like baseline,
// across the flat testbed fabric and an oversubscribed rack fabric. Axes:
// offered load (x), tenant count, fabric; lines: backend; metrics: p50 /
// p95 / p99 latency, achieved throughput, and Jain fairness across
// tenants. This is the regime none of the one-shot figures can show —
// tail latency and fairness only emerge under sustained concurrent
// traffic (cf. §5.4's serving load and the flow-fairness literature).
#include <string>
#include <vector>

#include "bench/registry.h"
#include "common/units.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace hoplite::bench {
namespace {

using workload::BackendKind;
using workload::LoadReport;

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  const int nodes = opt.Nodes(16);
  // `--rounds` scales the measurement window (paper: a 1 s open-loop
  // window; the smoke run shrinks it to 200 ms).
  const SimDuration horizon = Milliseconds(100) * opt.Rounds(10);

  for (const double load_scale : {0.5, 2.0, 8.0}) {
    for (const int tenants : {1, 4}) {
      for (const std::string fabric : {"flat", "rack"}) {
        workload::ScenarioTuning tuning;
        tuning.num_nodes = nodes;
        tuning.load_scale = load_scale;
        tuning.horizon = horizon;
        tuning.num_tenants = tenants;
        tuning.max_object_bytes = opt.Bytes(MB(16));
        workload::ScenarioSpec spec = workload::BuildScenario("mixed", tuning);
        if (fabric == "rack") {
          spec.fabric.topology = net::TopologyKind::kRack;
          spec.fabric.num_racks = 4;
          spec.fabric.oversubscription = 4.0;
        }
        // One trace per cell: both backends replay exactly the same
        // arrivals — matched offered load by construction.
        const workload::WorkloadTrace trace = workload::BuildTrace(spec);

        for (const BackendKind kind : {BackendKind::kHoplite, BackendKind::kRay}) {
          const auto backend = workload::MakeBackend(kind, spec);
          const LoadReport report = workload::RunTrace(trace, *backend);
          const auto point = [&](const char* metric, double value, const char* unit) {
            rows.push_back(
                Row{.series = report.backend,
                    .labels = {{"fabric", fabric}, {"metric", metric}},
                    .coords = {{"offered_ops_per_s", report.total.offered_ops_per_s},
                               {"tenants", static_cast<double>(tenants)},
                               {"load_scale", load_scale}},
                    .value = value,
                    .unit = unit});
          };
          point("p50", report.total.latency.p50, "seconds");
          point("p95", report.total.latency.p95, "seconds");
          point("p99", report.total.latency.p99, "seconds");
          point("throughput", report.total.completed_ops_per_s, "ops_per_second");
          point("fairness", report.fairness, "jain_index");
        }
      }
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(load_sweep, "load_sweep",
                        "Open-loop load sweep: latency vs offered load x tenants x "
                        "fabric, Hoplite vs Ray-like",
                        Run);

}  // namespace hoplite::bench
