// Unit tests for the rack-topology fabric with max-min fair sharing.
#include "net/rack_fabric.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hoplite::net {
namespace {

/// 2 racks, 1:1 by default; per_message_overhead zeroed for exact arithmetic.
ClusterConfig RackConfig(int nodes, int racks, double oversubscription) {
  ClusterConfig cfg;
  cfg.num_nodes = nodes;
  cfg.nic_bandwidth = Gbps(10);
  cfg.one_way_latency = Microseconds(50);
  cfg.per_message_overhead = 0;
  cfg.memcpy_bandwidth = GBps(10);
  cfg.failure_detection_delay = Milliseconds(100);
  cfg.fabric.topology = TopologyKind::kRack;
  cfg.fabric.num_racks = racks;
  cfg.fabric.oversubscription = oversubscription;
  return cfg;
}

/// Fair-share completion times carry ceil-rounding per recompute; a couple
/// of nanoseconds of slack absorbs it without hiding real errors.
constexpr SimTime kRoundingSlackNs = 4;

TEST(RackFabricTest, MakeFabricSelectsImplementationByTopology) {
  sim::Simulator sim;
  ClusterConfig flat;
  flat.num_nodes = 4;
  const auto a = MakeFabric(sim, flat);
  EXPECT_NE(dynamic_cast<FlatFabric*>(a.get()), nullptr);
  const auto b = MakeFabric(sim, RackConfig(4, 2, 2.0));
  EXPECT_NE(dynamic_cast<RackFabric*>(b.get()), nullptr);
}

TEST(RackFabricTest, RackAssignmentIsContiguousBlocks) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 1.0));
  EXPECT_EQ(net.num_racks(), 2);
  for (NodeID n = 0; n < 4; ++n) EXPECT_EQ(net.RackOf(n), 0) << n;
  for (NodeID n = 4; n < 8; ++n) EXPECT_EQ(net.RackOf(n), 1) << n;
  // Uplink carries the rack's aggregate NIC bandwidth at 1:1.
  EXPECT_DOUBLE_EQ(net.UplinkCapacityOf(0), 4 * Gbps(10));
}

TEST(RackFabricTest, SoleIntraRackFlowRunsAtNicRate) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  SimTime delivered_at = -1;
  net.Send(0, 1, MB(64), [&] { delivered_at = sim.Now(); });
  sim.Run();
  const SimTime expect = TransferTime(MB(64), Gbps(10)) + Microseconds(50);
  EXPECT_NEAR(delivered_at, expect, kRoundingSlackNs);
}

TEST(RackFabricTest, CrossRackFlowIsBottleneckedByOversubscribedUplink) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  // Uplink capacity: 2 NICs * 10 Gbps / 8 = 2.5 Gbps — the bottleneck.
  SimTime delivered_at = -1;
  net.Send(0, 2, MB(64), [&] { delivered_at = sim.Now(); });
  sim.Run();
  const SimTime expect = TransferTime(MB(64), Gbps(2.5)) + Microseconds(50);
  EXPECT_NEAR(delivered_at, expect, kRoundingSlackNs);
}

TEST(RackFabricTest, ConcurrentFlowsOnSharedUplinkSplitItFairly) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  // Uplink: 20 Gbps / 4 = 5 Gbps shared by two flows from rack 0 to rack 1.
  std::vector<SimTime> delivered;
  net.Send(0, 2, MB(32), [&] { delivered.push_back(sim.Now()); });
  net.Send(1, 3, MB(32), [&] { delivered.push_back(sim.Now()); });
  sim.Run();
  ASSERT_EQ(delivered.size(), 2u);
  const SimTime expect = TransferTime(MB(32), Gbps(2.5)) + Microseconds(50);
  EXPECT_NEAR(delivered[0], expect, kRoundingSlackNs);
  EXPECT_NEAR(delivered[1], expect, kRoundingSlackNs);
}

TEST(RackFabricTest, MaxMinGivesUnusedShareToUnconstrainedFlow) {
  // Heterogeneous NICs: the slow sender cannot use its full fair share of
  // the uplink; progressive filling hands the residue to the fast flow.
  ClusterConfig cfg = RackConfig(4, 2, 2.0);
  cfg.per_node_bandwidth = {Gbps(2), Gbps(10), Gbps(10), Gbps(10)};
  // Uplink of rack 0: (2 + 10) Gbps / 2 = 6 Gbps. Flow A (node 0 -> 2) is
  // frozen at its 2 Gbps NIC; flow B (node 1 -> 3) gets the remaining 4.
  sim::Simulator sim;
  RackFabric net(sim, cfg);
  const TransferId a = net.Send(0, 2, GB(1), [] {});
  const TransferId b = net.Send(1, 3, GB(1), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(a), Gbps(2));
  EXPECT_DOUBLE_EQ(net.CurrentRate(b), Gbps(4));
  sim.Run();
}

TEST(RackFabricTest, FinishedFlowReleasesItsShareToTheSurvivor) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  // Uplink 5 Gbps. Short flow and long flow share it (2.5 Gbps each) until
  // the short one drains; the long one then speeds up to 5 Gbps.
  SimTime long_done = -1;
  net.Send(0, 2, MB(16), [] {});
  net.Send(1, 3, MB(48), [&] { long_done = sim.Now(); });
  sim.Run();
  // Phase 1: both at 2.5 Gbps until the 16 MB flow drains (it finishes its
  // wire time when 16 MB left at 2.5 Gbps). The long flow has sent 16 MB by
  // then and pushes the remaining 32 MB at the full 5 Gbps.
  const SimTime expect = TransferTime(MB(16), Gbps(2.5)) +
                         TransferTime(MB(32), Gbps(5)) + Microseconds(50);
  EXPECT_NEAR(long_done, expect, 2 * kRoundingSlackNs);
}

TEST(RackFabricTest, IntraRackTrafficDoesNotTouchTheUplink) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  // One cross-rack flow plus one intra-rack flow between disjoint node
  // pairs: the intra-rack flow keeps full NIC rate, the cross-rack flow
  // keeps the whole (oversubscribed) uplink.
  const TransferId cross = net.Send(0, 2, MB(64), [] {});
  const TransferId intra = net.Send(1, 0, MB(64), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(cross), Gbps(2.5));
  EXPECT_DOUBLE_EQ(net.CurrentRate(intra), Gbps(10));
  sim.Run();
}

TEST(RackFabricTest, ZeroByteControlMessageCostsOnlyLatency) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  SimTime delivered_at = -1;
  net.Send(0, 2, 0, [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, Microseconds(50));
  EXPECT_EQ(net.wire_flows(), 0u);
}

TEST(RackFabricTest, CrossRackExtraLatencyIsCharged) {
  ClusterConfig cfg = RackConfig(4, 2, 1.0);
  cfg.fabric.cross_rack_extra_latency = Microseconds(10);
  sim::Simulator sim;
  RackFabric net(sim, cfg);
  SimTime intra = -1;
  SimTime cross = -1;
  net.Send(0, 1, 0, [&] { intra = sim.Now(); });
  net.Send(0, 2, 0, [&] { cross = sim.Now(); });
  sim.Run();
  EXPECT_EQ(intra, Microseconds(50));
  EXPECT_EQ(cross, Microseconds(60));
}

TEST(RackFabricTest, SelfSendGoesThroughMemcpy) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 8.0));
  SimTime delivered_at = -1;
  net.Send(1, 1, MB(10), [&] { delivered_at = sim.Now(); });
  sim.Run();
  EXPECT_EQ(delivered_at, TransferTime(MB(10), GBps(10)));
}

TEST(RackFabricTest, CancelReleasesBandwidthImmediately) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  bool cancelled_flow_delivered = false;
  const TransferId victim =
      net.Send(0, 2, GB(1), [&] { cancelled_flow_delivered = true; });
  const TransferId survivor = net.Send(1, 3, MB(32), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(survivor), Gbps(2.5));
  EXPECT_TRUE(net.CancelTransfer(victim));
  EXPECT_FALSE(net.CancelTransfer(victim));
  EXPECT_DOUBLE_EQ(net.CurrentRate(survivor), Gbps(5));
  sim.Run();
  EXPECT_FALSE(cancelled_flow_delivered);
}

TEST(RackFabricTest, FailNodeAbortsFlowsAndNotifiesSurvivorAfterDelay) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  bool delivered = false;
  NodeID reported = kInvalidNode;
  SimTime reported_at = -1;
  net.Send(0, 2, GB(1), [&] { delivered = true; },
           [&](NodeID dead) {
             reported = dead;
             reported_at = sim.Now();
           });
  const TransferId survivor = net.Send(1, 3, MB(32), [] {});
  sim.ScheduleAt(Milliseconds(1), [&] { net.FailNode(2); });
  sim.RunUntil(Milliseconds(1));
  // The aborted flow's uplink share is released to the survivor.
  EXPECT_DOUBLE_EQ(net.CurrentRate(survivor), Gbps(5));
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(reported, 2);
  EXPECT_EQ(reported_at, Milliseconds(1) + Milliseconds(100));
}

TEST(RackFabricTest, SendToFailedNodeFailsAfterDetectionDelay) {
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(4, 2, 4.0));
  net.FailNode(3);
  bool delivered = false;
  NodeID reported = kInvalidNode;
  net.Send(0, 3, MB(1), [&] { delivered = true; }, [&](NodeID dead) { reported = dead; });
  sim.Run();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(reported, 3);
  // No wire bandwidth was occupied and no traffic was counted.
  EXPECT_EQ(net.wire_flows(), 0u);
  EXPECT_EQ(net.TrafficOf(0).bytes_sent, 0);
}

TEST(RackFabricTest, DeterministicAcrossRuns) {
  const auto run_once = [] {
    sim::Simulator sim;
    RackFabric net(sim, RackConfig(8, 2, 4.0));
    std::vector<SimTime> deliveries;
    for (NodeID src = 0; src < 4; ++src) {
      for (NodeID dst = 4; dst < 8; ++dst) {
        net.Send(src, dst, MB(8) + src * KB(64) + dst * KB(16),
                 [&deliveries, &sim] { deliveries.push_back(sim.Now()); });
      }
    }
    sim.Run();
    return deliveries;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(RackFabricTest, ManyTinyStaggeredFlowsDrainWithoutEventStorm) {
  // Regression for the near-zero-residue loop: flows whose remaining bytes
  // shrink to sub-byte residues (tiny payloads, rates in the GB/s range,
  // heavy event churn from staggered starts) must never reschedule a
  // zero-length completion event at the current instant forever. The clamp
  // floors every rescheduled completion at one nanosecond, so the whole
  // batch drains with a bounded number of executed events.
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 2.0));
  const int kFlows = 512;
  int delivered = 0;
  for (int i = 0; i < kFlows; ++i) {
    const NodeID src = static_cast<NodeID>(i % 4);
    const NodeID dst = static_cast<NodeID>(4 + (i + 1) % 4);
    const std::int64_t bytes = 1 + i % 3;  // 1-3 byte payloads
    sim.ScheduleAt(static_cast<SimTime>(i), [&net, &delivered, src, dst, bytes] {
      net.Send(src, dst, bytes, [&delivered] { ++delivered; });
    });
  }
  sim.Run();
  EXPECT_EQ(delivered, kFlows);
  EXPECT_EQ(net.wire_flows(), 0u);
  // Starts + completions + deliveries plus bounded rescheduling slack; a
  // same-instant completion loop would trip this by orders of magnitude.
  EXPECT_LT(sim.executed_events(), 20u * kFlows);
}

TEST(RackFabricTest, DisjointComponentFlowKeepsItsRateAcrossForeignChurn) {
  // A start or finish only re-shares bandwidth on the component of flows
  // reachable from the changed links. An intra-rack flow in rack 1 shares
  // nothing with intra-rack traffic in rack 0, so rack-0 churn must leave
  // its fair share untouched (and, by max-min componentwise factorization,
  // its delivery time exactly as if rack 0 were idle).
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 8.0));
  const TransferId loner = net.Send(4, 5, MB(64), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(loner), Gbps(10));
  // Churn in rack 0: two flows sharing node 0's egress, then a cancel.
  const TransferId a = net.Send(0, 1, MB(32), [] {});
  const TransferId b = net.Send(0, 2, MB(32), [] {});
  EXPECT_DOUBLE_EQ(net.CurrentRate(a), Gbps(5));
  EXPECT_DOUBLE_EQ(net.CurrentRate(b), Gbps(5));
  EXPECT_DOUBLE_EQ(net.CurrentRate(loner), Gbps(10)) << "foreign start re-rated the loner";
  EXPECT_TRUE(net.CancelTransfer(a));
  EXPECT_DOUBLE_EQ(net.CurrentRate(b), Gbps(10));
  EXPECT_DOUBLE_EQ(net.CurrentRate(loner), Gbps(10)) << "foreign cancel re-rated the loner";
  sim.Run();
}

TEST(RackFabricTest, SoloFlowDeliveryIsExactRegardlessOfForeignEvents) {
  // The lazy progress accounting books a flow's remaining bytes only when
  // its own rate changes; interleaving unrelated events in another rack
  // must not shift the flow's completion by even a nanosecond.
  const auto run = [](bool with_foreign_churn) {
    sim::Simulator sim;
    RackFabric net(sim, RackConfig(8, 2, 8.0));
    SimTime delivered_at = -1;
    net.Send(4, 5, MB(64), [&] { delivered_at = sim.Now(); });
    if (with_foreign_churn) {
      for (int i = 0; i < 100; ++i) {
        sim.ScheduleAt(Microseconds(1) * (i + 1), [&net] { net.Send(0, 1, KB(64), [] {}); });
      }
    }
    sim.Run();
    return delivered_at;
  };
  EXPECT_EQ(run(false), run(true));
}

TEST(RackFabricTest, AggregateCrossRackThroughputMatchesUplink) {
  // 4 concurrent cross-rack flows over a 5 Gbps uplink must take ~4x the
  // single-flow time: the fabric enforces the shared-link capacity, not
  // just per-NIC limits (which FlatFabric would allow to run in parallel).
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(8, 2, 8.0));
  SimTime last = 0;
  for (int i = 0; i < 4; ++i) {
    net.Send(static_cast<NodeID>(i), static_cast<NodeID>(4 + i), MB(16),
             [&] { last = sim.Now(); });
  }
  sim.Run();
  const SimTime expect = TransferTime(4 * MB(16), Gbps(5)) + Microseconds(50);
  EXPECT_NEAR(last, expect, 4 * kRoundingSlackNs);
}

/// A wire flow as the reference filling sees it: its id and link indices
/// (egress n, ingress N + n, uplink 2N + r, downlink 2N + R + r).
struct RefFlow {
  TransferId id = 0;
  std::vector<int> links;
  double rate = 0;
  bool frozen = false;
};

/// Reference max-min rates: plain progressive filling over every link and
/// every flow of the fabric at once, with RackFabric's water-level
/// arithmetic (`flows` ascending by id). Each round the lowest
/// (capacity - frozen) / unfrozen share among unsaturated links is the
/// level; links with no headroom left at it saturate, and every unfrozen
/// flow crossing a saturated link freezes at exactly that level.
void ReferenceMaxMin(const std::vector<double>& capacity, std::vector<RefFlow>& flows) {
  const std::size_t n = capacity.size();
  std::vector<int> unfrozen(n, 0);
  std::vector<double> frozen_sum(n, 0);
  std::vector<bool> saturated(n, false);
  for (RefFlow& f : flows) {
    f.frozen = false;
    for (const int l : f.links) unfrozen[static_cast<std::size_t>(l)] += 1;
  }
  std::size_t left = flows.size();
  while (left > 0) {
    double level = std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < n; ++l) {
      if (unfrozen[l] == 0 || saturated[l]) continue;
      level = std::min(level, std::max(0.0, capacity[l] - frozen_sum[l]) / unfrozen[l]);
    }
    ASSERT_TRUE(std::isfinite(level));
    for (std::size_t l = 0; l < n; ++l) {
      if (unfrozen[l] == 0 || saturated[l]) continue;
      const double headroom = capacity[l] - (frozen_sum[l] + level * unfrozen[l]);
      if (headroom <= capacity[l] * 1e-9) saturated[l] = true;
    }
    for (RefFlow& f : flows) {
      if (f.frozen) continue;
      const bool bottlenecked = std::any_of(f.links.begin(), f.links.end(), [&](int l) {
        return saturated[static_cast<std::size_t>(l)];
      });
      if (!bottlenecked) continue;
      f.frozen = true;
      f.rate = level;
      --left;
      for (const int l : f.links) {
        unfrozen[static_cast<std::size_t>(l)] -= 1;
        frozen_sum[static_cast<std::size_t>(l)] += level;
      }
    }
  }
}

TEST(RackFabricTest, RatesMatchReferenceFillingBitForBit) {
  // Seeded flow sets on varied racks, oversubscription and per-node NICs
  // (distinct bandwidths make the fills take many distinct levels), with
  // staggered starts, cancels and completions. After every executed event
  // each wire flow's rate must equal the whole-fabric reference exactly.
  constexpr int kSets = 200;
  constexpr double kOversub[] = {1.0, 1.5, 2.0, 3.0, 4.0, 8.0};
  std::size_t checks = 0;
  for (int set = 0; set < kSets; ++set) {
    Rng rng(static_cast<std::uint64_t>(1000 + set));
    const int nodes = static_cast<int>(rng.NextInRange(4, 20));
    const int racks = static_cast<int>(rng.NextInRange(1, std::min(nodes, 6)));
    ClusterConfig cfg = RackConfig(nodes, racks, kOversub[rng.NextBounded(6)]);
    for (int node = 0; node < nodes; ++node) {
      cfg.per_node_bandwidth.push_back(Gbps(rng.NextDoubleInRange(1, 40)));
    }
    sim::Simulator sim;
    RackFabric net(sim, cfg);

    struct Planned {
      NodeID src = kInvalidNode;
      NodeID dst = kInvalidNode;
      TransferId id = 0;  ///< 0 until sent
    };
    const int flows = static_cast<int>(rng.NextInRange(4, 40));
    std::vector<Planned> plan(static_cast<std::size_t>(flows));
    for (int i = 0; i < flows; ++i) {
      Planned& p = plan[static_cast<std::size_t>(i)];
      p.src = static_cast<NodeID>(rng.NextBounded(static_cast<std::uint64_t>(nodes)));
      p.dst = static_cast<NodeID>(rng.NextBounded(static_cast<std::uint64_t>(nodes - 1)));
      if (p.dst >= p.src) ++p.dst;
      const std::int64_t bytes = rng.NextInRange(KB(64), MB(8));
      const SimTime start = rng.NextInRange(0, Milliseconds(2));
      sim.ScheduleAt(start,
                     [&net, &p, bytes] { p.id = net.Send(p.src, p.dst, bytes, [] {}); });
      if (rng.NextBounded(4) == 0) {
        sim.ScheduleAt(start + rng.NextInRange(0, Milliseconds(1)),
                       [&net, &p] { net.CancelTransfer(p.id); });
      }
    }

    const int n = nodes;
    const int r = net.num_racks();
    std::vector<double> capacity(static_cast<std::size_t>(2 * n + 2 * r));
    for (NodeID node = 0; node < n; ++node) {
      capacity[static_cast<std::size_t>(node)] = cfg.BandwidthOf(node);
      capacity[static_cast<std::size_t>(n + node)] = cfg.BandwidthOf(node);
    }
    for (int rack = 0; rack < r; ++rack) {
      capacity[static_cast<std::size_t>(2 * n + rack)] = net.UplinkCapacityOf(rack);
      capacity[static_cast<std::size_t>(2 * n + r + rack)] = net.UplinkCapacityOf(rack);
    }

    while (sim.Step()) {
      std::vector<RefFlow> wire;
      for (const Planned& p : plan) {
        if (p.id == 0 || net.CurrentRate(p.id) == 0) continue;
        RefFlow f;
        f.id = p.id;
        f.links = {static_cast<int>(p.src), n + static_cast<int>(p.dst)};
        const int src_rack = net.RackOf(p.src);
        const int dst_rack = net.RackOf(p.dst);
        if (src_rack != dst_rack) {
          f.links.push_back(2 * n + src_rack);
          f.links.push_back(2 * n + r + dst_rack);
        }
        wire.push_back(std::move(f));
      }
      ASSERT_EQ(wire.size(), net.wire_flows()) << "set " << set << " at " << sim.Now();
      std::sort(wire.begin(), wire.end(),
                [](const RefFlow& a, const RefFlow& b) { return a.id < b.id; });
      ReferenceMaxMin(capacity, wire);
      for (const RefFlow& f : wire) {
        ASSERT_EQ(net.CurrentRate(f.id), f.rate)
            << "set " << set << " flow " << f.id << " at " << sim.Now();
        ++checks;
      }
    }
    EXPECT_EQ(net.wire_flows(), 0u) << "set " << set;
  }
  EXPECT_GT(checks, 10000u);
}

TEST(RackFabricTest, NotYetFlowReRatedUnchangedIsStillDelivered) {
  // At ~51 simulated days a 10 Gbps flow's predicted completion nanosecond
  // is coarser than a byte: when G completes at T, F's sweep record (also
  // at T) is popped but F still has 1 byte on the wire. G's completion
  // re-shares node 1's ingress, so the same event's recompute re-rates F at
  // an unchanged 10 Gbps. F's records must be re-pushed anyway (its sweep
  // record is gone); a refresh that kept them would strand F on the wire.
  ClusterConfig cfg = RackConfig(4, 1, 1.0);
  cfg.per_node_bandwidth = {Gbps(10), Gbps(20), Gbps(10), Gbps(10)};
  sim::Simulator sim;
  RackFabric net(sim, cfg);
  constexpr std::int64_t kBytes = 5485355582292127;
  constexpr SimTime kT = 4388284465833701;
  SimTime f_at = -1;
  SimTime g_at = -1;
  const TransferId f = net.Send(0, 1, kBytes, [&] { f_at = sim.Now(); });
  const TransferId g = net.Send(2, 1, kBytes - 1, [&] { g_at = sim.Now(); });
  EXPECT_DOUBLE_EQ(net.CurrentRate(f), Gbps(10));
  EXPECT_DOUBLE_EQ(net.CurrentRate(g), Gbps(10));
  // A stranded flow spins the completion event at one instant forever, so
  // run on a step budget: the whole run is under ten events.
  int steps = 0;
  while (steps < 100 && sim.Step()) ++steps;
  EXPECT_LT(steps, 100) << "the run did not drain";
  EXPECT_EQ(g_at, kT + Microseconds(50));
  EXPECT_EQ(f_at, kT + 1 + Microseconds(50));
  EXPECT_EQ(net.wire_flows(), 0u);
  // Both starts and G's completion each recompute; F's completion has no
  // one left to re-share with. Pushes: F, G, then F again at T.
  EXPECT_EQ(net.fair_share_counters().recomputes, 3u);
  EXPECT_EQ(net.fair_share_counters().records_pushed, 3u);
}

TEST(RackFabricTest, UnchangedCompletionRecordsAreKeptOnAStaggeredRackRun) {
  // 256 nodes in 8 racks at 4:1, every node streaming four staggered 2 MB
  // chunks across racks: each start or finish re-fills a large component,
  // but most of its flows keep their rate, so most refreshes are no-ops.
  sim::Simulator sim;
  RackFabric net(sim, RackConfig(256, 8, 4.0));
  Rng rng(7);
  int delivered = 0;
  for (NodeID src = 0; src < 256; ++src) {
    const NodeID dst = (src + 37) % 256;
    for (int chunk = 0; chunk < 4; ++chunk) {
      const SimTime at = rng.NextInRange(0, Milliseconds(10));
      sim.ScheduleAt(at, [&net, &delivered, src, dst] {
        net.Send(src, dst, MB(2), [&delivered] { ++delivered; });
      });
    }
  }
  sim.Run();
  EXPECT_EQ(delivered, 256 * 4);
  const RackFabric::FairShareCounters& c = net.fair_share_counters();
  EXPECT_GT(c.recomputes, 0u);
  EXPECT_GE(c.fill_rounds, c.recomputes);
  EXPECT_GE(c.component_flows, c.recomputes);
  EXPECT_LT(c.records_pushed, c.component_flows)
      << c.records_pushed << " pushes for " << c.component_flows << " component flows";
}

}  // namespace
}  // namespace hoplite::net
