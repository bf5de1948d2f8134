// Scaling figure: cluster-size sweep of the three core collectives on both
// fabrics, with wall-clock alongside simulated time.
//
// The paper's evaluation stops at 16 nodes; the ROADMAP north star is a
// production-scale system. This figure is the scaling instrument: it sweeps
// n in {16, 64, 256, 1024, 4096} x {broadcast, reduce, allreduce} on the flat
// testbed fabric and on a rack fabric (n/32 racks, 4:1 oversubscription),
// reporting the simulated collective latency (`seconds` rows) and how long
// the simulation itself took (`wall_seconds` coordinate on every row, plus
// dedicated `sim-wall` rows) — so BENCH_*.json tracks the engine's perf
// trajectory at scale, not just its 16-node behavior.
//
// Run: bench_all --figure scale_nodes (scale knobs: --max-nodes, --max-bytes).
//
// hoplite-lint: allow-file(nondet-source) -- the wall_seconds coordinates are
// this bench's payload; nothing here feeds back into simulated behavior.
#include <chrono>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"
#include "net/fabric.h"

namespace hoplite::bench {
namespace {

[[nodiscard]] core::HopliteCluster::Options ScaleCluster(int nodes, bool rack) {
  core::HopliteCluster::Options options = PaperCluster(nodes);
  if (rack) {
    options.network.fabric.topology = net::TopologyKind::kRack;
    options.network.fabric.num_racks = std::max(2, nodes / 32);
    options.network.fabric.oversubscription = 4.0;
  }
  return options;
}

std::vector<Row> Run(const RunOptions& opt) {
  const std::int64_t bytes = opt.Bytes(MB(32));
  std::vector<Row> rows;

  for (const int nodes : opt.NodeCounts({16, 64, 256, 1024, 4096})) {
    for (const bool rack : {false, true}) {
      const char* fabric = rack ? "rack" : "flat";
      double fabric_wall = 0;
      for (const std::string op : {"broadcast", "reduce", "allreduce"}) {
        const auto start = std::chrono::steady_clock::now();
        const double sim_seconds =
            HopliteCollective(op, ScaleCluster(nodes, rack), bytes);
        const auto stop = std::chrono::steady_clock::now();
        const double wall = std::chrono::duration<double>(stop - start).count();
        fabric_wall += wall;
        rows.push_back(Row{.series = std::string("Hoplite-") + fabric,
                           .labels = {{"op", op}},
                           .coords = {{"nodes", static_cast<double>(nodes)},
                                      {"bytes", static_cast<double>(bytes)},
                                      {"wall_seconds", wall}},
                           .value = sim_seconds,
                           .unit = "seconds"});
      }
      rows.push_back(Row{.series = std::string("sim-wall-") + fabric,
                         .coords = {{"nodes", static_cast<double>(nodes)}},
                         .value = fabric_wall,
                         .unit = "wall_seconds"});
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(scale_nodes, "scale_nodes",
                        "Scaling: collectives at 16-4096 nodes on both fabrics "
                        "(simulated + wall clock)",
                        Run);

}  // namespace hoplite::bench
