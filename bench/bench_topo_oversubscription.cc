// Topology scenario: collectives on an oversubscribed rack fabric.
//
// The paper's evaluation runs on a flat same-AZ EC2 fabric where every NIC
// pair is contention-free. Real datacenter pods put nodes behind ToR
// uplinks with 2:1 to 8:1 oversubscription, so a collective's cross-rack
// traffic shares a link and flows get max-min fair slices (net/rack_fabric).
// This figure sweeps the oversubscription ratio for Hoplite's dynamic tree
// collectives against the Ray-like point-to-point baseline and OpenMPI-style
// static collectives: Hoplite's chunk-pipelined trees spread load across
// many NIC pairs and degrade with the fabric, while the Ray-like pattern
// funnels every byte through one node's rack uplink.
//
// Run: bench_all --figure topo_oversubscription (scale knobs: --max-nodes,
// --max-bytes).
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/units.h"
#include "net/fabric.h"

namespace hoplite::bench {
namespace {

[[nodiscard]] core::HopliteCluster::Options RackCluster(int nodes, int racks,
                                                        double oversubscription) {
  core::HopliteCluster::Options options = PaperCluster(nodes);
  options.network.fabric.topology = net::TopologyKind::kRack;
  options.network.fabric.num_racks = racks;
  options.network.fabric.oversubscription = oversubscription;
  return options;
}

std::vector<Row> Run(const RunOptions& opt) {
  const int nodes = opt.Nodes(16);
  const int racks = std::max(2, nodes / 4);
  const std::int64_t bytes = opt.Bytes(MB(128));

  std::vector<Row> rows;
  const auto point = [&](const char* series, const std::string& op, double oversub,
                         double seconds) {
    rows.push_back(Row{.series = series,
                       .labels = {{"op", op}},
                       .coords = {{"oversubscription", oversub},
                                  {"nodes", static_cast<double>(nodes)},
                                  {"bytes", static_cast<double>(bytes)}},
                       .value = seconds,
                       .unit = "seconds"});
  };

  for (const std::string op : {"broadcast", "reduce", "allreduce"}) {
    for (const double oversub : {1.0, 2.0, 4.0, 8.0}) {
      const auto options = RackCluster(nodes, racks, oversub);
      point("Hoplite", op, oversub, HopliteCollective(op, options, bytes));
      point("Ray", op, oversub,
            RayCollective(op, options.network, bytes, baselines::RayLikeConfig::Ray()));
      point("OpenMPI", op, oversub, MpiCollective(op, options.network, bytes));
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(topo_oversubscription, "topo_oversubscription",
                        "Topology: collectives vs. rack oversubscription (Hoplite/Ray/MPI)",
                        Run);

}  // namespace hoplite::bench
