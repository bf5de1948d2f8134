// Solo layer drivers. Each one exercises a single module through its public
// functions only, in the shape of that module's home workload, so a change
// to the module shows here without the rest of the stack in the way. Each
// returns host time per unit of work (ns per event, us per claim, ...).
#include <algorithm>
#include <memory>

#include "bench.h"
#include "cache/eviction_policy.h"
#include "common/rng.h"
#include "directory/object_directory.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "store/buffer.h"
#include "store/local_store.h"

namespace hopbench {

using hoplite::MB;
using hoplite::KB;
using hoplite::Milliseconds;
using hoplite::NodeID;
using hoplite::ObjectID;
using hoplite::Rng;

namespace {

/// Transfer time of `bytes` over one 10 Gbps NIC.
[[nodiscard]] hoplite::SimDuration WireTime(std::int64_t bytes) {
  return static_cast<hoplite::SimDuration>(static_cast<double>(bytes) * 8.0 / 10.0);
}

}  // namespace

// sim: serving's event count and shape — a Poisson stream that keeps a
// bounded set of events pending, each event scheduling its successor.
double SoloEventNs(std::uint64_t seed) {
  constexpr std::uint64_t kEvents = 372'000;
  constexpr int kPending = 2048;
  hoplite::sim::Simulator sim;
  Rng rng(seed);
  std::uint64_t scheduled = 0;
  std::function<void()> tick;
  tick = [&] {
    if (scheduled >= kEvents) return;
    ++scheduled;
    const auto gap = static_cast<hoplite::SimDuration>(rng.NextExponential(2.0e6)) + 1;
    sim.ScheduleAfter(gap, tick);
  };
  for (int i = 0; i < kPending; ++i) tick();
  const double t0 = HostNow();
  sim.Run();
  const double host = HostNow() - t0;
  return host * 1e9 / static_cast<double>(sim.executed_events());
}

// directory: one 32 MB object claimed by `receivers` receivers whose
// readiness is staggered over 10 ms, as in wide-broadcast. Each granted
// transfer finishes a full object time after its grant, but no earlier than
// one chunk after its sender's own copy finished (pipelined chains).
double SoloClaimUs(int receivers, std::uint64_t seed) {
  constexpr std::int64_t kBytes = MB(32);
  constexpr std::int64_t kChunk = MB(4);
  hoplite::sim::Simulator sim;
  hoplite::net::ClusterConfig config;
  config.num_nodes = receivers + 1;
  const std::unique_ptr<hoplite::net::Fabric> fabric = hoplite::net::MakeFabric(sim, config);
  hoplite::directory::ObjectDirectory directory(*fabric, hoplite::directory::DirectoryConfig{});
  const ObjectID object = ObjectID::FromName("solo-claim");
  directory.RegisterPartial(object, 0, kBytes);
  directory.MarkComplete(object, 0);

  std::vector<hoplite::SimTime> finished(static_cast<std::size_t>(receivers) + 1, 0);
  Rng rng(seed);
  std::uint64_t granted = 0;
  for (NodeID r = 1; r <= receivers; ++r) {
    const hoplite::SimTime ready = rng.NextInRange(0, Milliseconds(10) - 1);
    sim.ScheduleAt(ready, [&, r] {
      directory.ClaimSender(object, r, [&, r](const hoplite::directory::ClaimReply& reply) {
        ++granted;
        const NodeID sender = reply.sender;
        const hoplite::SimTime done =
            std::max(sim.Now() + WireTime(kBytes),
                     finished[static_cast<std::size_t>(sender)] + WireTime(kChunk));
        finished[static_cast<std::size_t>(r)] = done;
        sim.ScheduleAt(done, [&directory, object, sender, r] {
          directory.TransferFinished(object, sender, r);
        });
      });
    });
  }
  const double t0 = HostNow();
  sim.Run();
  const double host = HostNow() - t0;
  if (granted != static_cast<std::uint64_t>(receivers)) return -1.0;
  return host * 1e6 / static_cast<double>(receivers);
}

// net: staggered multi-chunk flows across 8 racks at 4:1 — every one of
// 256 nodes streams eight 4 MB chunks, one after another, to a node one
// rack over, starting at a draw in [0, 10 ms).
double SoloFlowUs(std::uint64_t seed) {
  constexpr int kNodes = 256;
  constexpr int kChunks = 8;
  hoplite::sim::Simulator sim;
  hoplite::net::ClusterConfig config;
  config.num_nodes = kNodes;
  config.fabric.topology = hoplite::net::TopologyKind::kRack;
  config.fabric.num_racks = 8;
  config.fabric.oversubscription = 4.0;
  const std::unique_ptr<hoplite::net::Fabric> fabric = hoplite::net::MakeFabric(sim, config);
  Rng rng(seed);
  std::uint64_t delivered = 0;
  std::function<void(NodeID, int)> send = [&](NodeID src, int left) {
    if (left == 0) return;
    const auto dst = static_cast<NodeID>((src + kNodes / 8) % kNodes);
    fabric->Send(src, dst, MB(4), [&, src, left] {
      ++delivered;
      send(src, left - 1);
    });
  };
  for (NodeID n = 0; n < kNodes; ++n) {
    sim.ScheduleAt(rng.NextInRange(0, Milliseconds(10) - 1), [&, n] { send(n, kChunks); });
  }
  const double t0 = HostNow();
  sim.Run();
  const double host = HostNow() - t0;
  if (delivered != static_cast<std::uint64_t>(kNodes) * kChunks) return -1.0;
  return host * 1e6 / static_cast<double>(delivered);
}

// store: churn's per-node shape — a 48 MB LRU store taking no-GC primary
// Puts (pinned), fetched replicas and re-reads over the 256 KB / 1 MB /
// 4 MB size mix, 16 stores of 1000 ops each.
double SoloEvictUs(std::uint64_t seed) {
  constexpr int kStores = 16;
  constexpr int kOpsPerStore = 1000;
  constexpr std::int64_t kChunk = MB(4);
  Rng rng(seed);
  double host = 0;
  for (int s = 0; s < kStores; ++s) {
    hoplite::store::LocalStore store(
        static_cast<NodeID>(s), MB(48),
        hoplite::cache::MakeEvictionPolicy(hoplite::cache::EvictionPolicyKind::kLru, MB(48)));
    std::vector<ObjectID> seen;
    const double t0 = HostNow();
    for (int i = 0; i < kOpsPerStore; ++i) {
      const double draw = rng.NextDouble();
      const double size_draw = rng.NextDouble();
      const std::int64_t bytes = size_draw < 0.5 ? KB(256) : size_draw < 0.9 ? MB(1) : MB(4);
      if (draw >= 0.75 && !seen.empty()) {
        const ObjectID again = seen[rng.NextBounded(seen.size())];
        if (store.Contains(again)) {
          store.Touch(again);
          continue;
        }
      }
      const ObjectID object = ObjectID::FromName("solo-store").WithIndex(s * kOpsPerStore + i);
      const auto kind =
          draw < 0.45 ? hoplite::store::CopyKind::kPrimary : hoplite::store::CopyKind::kReplica;
      store.CreatePartial(object, bytes, kind, kChunk);
      store.MarkComplete(object, hoplite::store::Buffer::OfSize(bytes));
      seen.push_back(object);
    }
    host += HostNow() - t0;
  }
  return host * 1e6 / static_cast<double>(kStores * kOpsPerStore);
}

}  // namespace hopbench
