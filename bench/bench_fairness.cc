// fairness: per-tenant QoS mechanisms under the misbehaving-tenant regime.
//
// The `misbehaving-tenant` scenario (one open-loop aggressor broadcasting
// across a 16:1-oversubscribed ToR uplink, closed-loop interactive victims
// with an 11 ms SLO sharing it) runs once per {mechanism x aggressor
// intensity} cell, where the mechanism axis stacks the QoS layers the way
// an operator would turn them on:
//
//   none            per-flow max-min only — the aggressor's flow count is
//                   its bandwidth share
//   wfq             tenant-first weighted fair queuing at shared links
//   wfq+aqm         + flow-queuing AQM at the ToR uplink (a sojourn mark
//                   pauses the tenant's whole virtual queue and
//                   backpressures its senders)
//   wfq+aqm+adm     + client-side admission control (token-bucket pacing
//                   and outstanding-op caps at the aggressor's client)
//
// The aggressor is deliberately deadline-free: its completion share stays
// 1.0 under every mechanism, so the Jain index over per-tenant completion
// shares is monotone in victim damage — each layer that saves victim ops
// strictly raises it, and no cell can score "fair" by making everyone
// uniformly miserable. A `baseline` series (the victims with the rack to
// themselves, QoS off) anchors the victim-p99 bound.
//
// Reported per cell: the Jain index, the worst victim p99, and the
// aggressor's own completion share (admission must tame it, not execute
// it). The CI gate asserts Jain strictly improves along the mechanism
// stack at the highest intensity and holds the full-stack victim p99
// within 2x of the baseline cell's.
#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "common/units.h"
#include "qos/qos.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace hoplite::bench {
namespace {

using workload::LoadReport;

struct Mechanism {
  const char* name;
  bool wfq;
  bool aqm;
  bool admission;
};

constexpr Mechanism kMechanisms[] = {
    {"none", false, false, false},
    {"wfq", true, false, false},
    {"wfq+aqm", true, true, false},
    {"wfq+aqm+adm", true, true, true},
};

workload::ScenarioSpec BuildCell(const RunOptions& opt, double intensity) {
  workload::ScenarioTuning tuning;
  tuning.num_nodes = opt.Nodes(8);
  tuning.horizon = Milliseconds(50) * opt.Rounds(10);
  tuning.load_scale = intensity;
  tuning.max_object_bytes = opt.Bytes(MB(2));
  return workload::BuildScenario("misbehaving-tenant", tuning);
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  const auto point = [&rows](const char* series, double intensity,
                             const char* metric, double value, const char* unit) {
    rows.push_back(Row{.series = series,
                       .labels = {{"metric", metric}},
                       .coords = {{"intensity", intensity}},
                       .value = value,
                       .unit = unit});
  };

  // The aggressor-free reference: the victims with the rack to themselves,
  // QoS off. The CI gate bounds the full-stack victim p99 as a multiple of
  // this cell's.
  {
    workload::ScenarioSpec spec = BuildCell(opt, 1.0);
    spec.tenants.erase(spec.tenants.begin());
    const LoadReport report =
        workload::RunScenario(spec, workload::BackendKind::kHoplite);
    double p99 = 0.0;
    for (const workload::TenantLoad& tenant : report.tenants) {
      p99 = std::max(p99, tenant.latency.p99);
    }
    point("baseline", 0.0, "victim_p99", p99, "seconds");
    point("baseline", 0.0, "jain", report.fairness, "index");
  }

  for (const Mechanism& mech : kMechanisms) {
    for (const double intensity : {1.0, 2.0, 4.0}) {
      workload::ScenarioSpec spec = BuildCell(opt, intensity);
      spec.qos.wfq = mech.wfq;
      spec.qos.aqm = mech.aqm;
      spec.qos.admission = mech.admission;

      const LoadReport report =
          workload::RunScenario(spec, workload::BackendKind::kHoplite);
      double victim_p99 = 0.0;
      for (std::size_t t = 1; t < report.tenants.size(); ++t) {
        victim_p99 = std::max(victim_p99, report.tenants[t].latency.p99);
      }
      const workload::TenantLoad& aggressor = report.tenants.at(0);
      const double aggressor_share =
          aggressor.offered > 0 ? static_cast<double>(aggressor.completed) /
                                      static_cast<double>(aggressor.offered)
                                : 0.0;
      point(mech.name, intensity, "jain", report.fairness, "index");
      point(mech.name, intensity, "victim_p99", victim_p99, "seconds");
      point(mech.name, intensity, "aggressor_share", aggressor_share, "fraction");
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(fairness, "fairness",
                        "QoS mechanism stack x aggressor intensity under "
                        "misbehaving-tenant (Jain index, victim p99)",
                        Run);

}  // namespace hoplite::bench
