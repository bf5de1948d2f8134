// §5.1.1 microbenchmark: object-directory operation latencies.
//
// Paper reference: writing object locations takes 167 us (sd 12 us), reading
// takes 177 us (sd 14 us). Our directory charges exactly those constants, so
// this bench doubles as a self-check that the simulated control plane is
// calibrated to the paper's measurements.
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/stats.h"
#include "directory/object_directory.h"

namespace hoplite::bench {
namespace {

std::vector<Row> Run(const RunOptions& opt) {
  core::HopliteCluster cluster(PaperCluster(opt.Nodes(16)));
  auto& dir = cluster.directory();
  auto& sim = cluster.simulator();
  const NodeID reader = static_cast<NodeID>(cluster.num_nodes() - 1);

  RunStats write_stats;
  RunStats read_stats;
  for (int i = 0; i < opt.Rounds(10); ++i) {
    const ObjectID object = ObjectID::FromName("dir-bench").WithIndex(i);
    // Location write. RegisterPartial is fire-and-forget; observe its
    // effect via a probe.
    const SimTime write_start = sim.Now();
    dir.RegisterPartial(object, 1, MB(1));
    sim.RunUntilPredicate([&] { return dir.HasObject(object); });
    write_stats.Add(ToMicroseconds(sim.Now() - write_start));

    // Location read (claim).
    const SimTime read_start = sim.Now();
    SimTime read_done = 0;
    dir.ClaimSender(object, reader,
                    [&](const directory::ClaimReply&) { read_done = sim.Now(); });
    sim.RunUntilPredicate([&] { return read_done != 0; });
    read_stats.Add(ToMicroseconds(read_done - read_start));
  }

  return {
      Row{.series = "location-write",
          .coords = {{"paper_us", 167.0},
                     {"samples", static_cast<double>(write_stats.count())}},
          .value = write_stats.mean(),
          .unit = "microseconds"},
      Row{.series = "location-read",
          .coords = {{"paper_us", 177.0},
                     {"samples", static_cast<double>(read_stats.count())}},
          .value = read_stats.mean(),
          .unit = "microseconds"},
      Row{.series = "ops-served",
          .value = static_cast<double>(dir.ops_served()),
          .unit = "count"},
  };
}

}  // namespace

HOPLITE_REGISTER_FIGURE(directory_latency, "directory-latency",
                        "5.1.1: object directory operation latency vs paper", Run);

}  // namespace hoplite::bench
