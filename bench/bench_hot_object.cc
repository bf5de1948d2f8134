// hot_object: request coalescing for one hot object vs per-Get serving.
//
// One inline hot object (48 KB — below the §3.2 inline threshold, so the
// directory shard itself is the origin) is Put on node 0, then every other
// node Gets it in near-concurrent waves. With coalescing off, every Get is
// a separate shard egress: the origin serializes F transfers per wave,
// every wave, forever. With coalescing on, the first claim opens the
// interest window, later claimants attach, and the first landed copy fans
// out through the broadcast-tree machinery; repeat waves hit the getters'
// own cached copies and never touch the wire.
//
// Reported per fan-in: the steady-state Get p99 — the first wave is the
// cold fan-out and is excluded as warmup, exactly like a serving benchmark
// discards its ramp — and total bytes on the wire over the WHOLE run,
// warmup included (the coalesced cold start is where all of its traffic
// lives, so excluding it would flatter coalescing; it wins anyway).
// Coalescing must win both at high fan-in (the CI smoke gates the largest
// cell).
#include <cstdint>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "bench/registry.h"
#include "common/stats.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

struct HotObjectResult {
  double p99 = 0.0;
  std::int64_t wire_bytes = 0;
};

HotObjectResult RunOne(int nodes, std::int64_t bytes, int waves, bool coalescing) {
  core::HopliteCluster::Options options = PaperCluster(nodes);
  options.network.cache.coalescing = coalescing;
  core::HopliteCluster cluster(options);
  auto& sim = cluster.simulator();

  const ObjectID hot = ObjectID::FromName("hot-object");
  cluster.client(0).Put(hot, store::Buffer::OfSize(bytes));

  // Wave 0 is the cold start (the coalesced fan-out happens here); p99 is
  // measured over the steady-state waves that follow.
  HOPLITE_CHECK_GE(waves, 2);
  std::vector<double> latencies;
  std::size_t measured = 0;
  for (int wave = 0; wave < waves; ++wave) {
    // Every getter of a wave claims at the same instant — the concurrent
    // burst coalescing exists to aggregate. Waves are spaced wide enough
    // for the previous one to drain.
    const SimTime at = Milliseconds(1) + Milliseconds(2) * wave;
    const bool warmup = wave == 0;
    for (NodeID getter = 1; getter < nodes; ++getter) {
      At(sim, at).Then([&cluster, &latencies, &measured, getter, hot, warmup] {
        const SimTime start = cluster.Now();
        cluster.client(getter)
            .Get(hot, core::GetOptions{.read_only = true})
            .Then([&cluster, &latencies, &measured, start, warmup] {
              ++measured;
              if (!warmup) latencies.push_back(ToSeconds(cluster.Now() - start));
            });
      });
    }
  }
  cluster.RunAll();
  HOPLITE_CHECK_EQ(measured, static_cast<std::size_t>(waves) *
                                 static_cast<std::size_t>(nodes - 1));

  HotObjectResult result;
  result.p99 = Summarize(std::move(latencies)).p99;
  for (NodeID n = 0; n < nodes; ++n) {
    result.wire_bytes += cluster.network().TrafficOf(n).bytes_sent;
  }
  return result;
}

std::vector<Row> Run(const RunOptions& opt) {
  std::vector<Row> rows;
  // Inline object: below the 64 KB threshold the per-Get path never stores
  // a copy at the getter, so every repeat Get re-pays origin egress.
  const std::int64_t bytes = opt.Bytes(KB(48));
  const int waves = opt.Rounds(3);
  // Fan-in = concurrent getters = nodes - 1.
  for (const int nodes : opt.NodeCounts({3, 5, 9, 17, 33})) {
    for (const bool coalescing : {false, true}) {
      const HotObjectResult result =
          RunOne(nodes, bytes, waves, coalescing);
      const auto point = [&](const char* metric, double value, const char* unit) {
        rows.push_back(Row{.series = coalescing ? "coalesced" : "per-get",
                           .labels = {{"metric", metric}},
                           .coords = {{"fanin", static_cast<double>(nodes - 1)}},
                           .value = value,
                           .unit = unit});
      };
      point("p99", result.p99, "seconds");
      point("bytes_on_wire", static_cast<double>(result.wire_bytes), "bytes");
    }
  }
  return rows;
}

}  // namespace

HOPLITE_REGISTER_FIGURE(hot_object, "hot_object",
                        "Hot-object serving: coalesced vs per-Get fan-in sweep "
                        "(p99 and bytes on the wire)",
                        Run);

}  // namespace hoplite::bench
