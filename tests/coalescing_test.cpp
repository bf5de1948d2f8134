// Request-coalescing tests: concurrent Gets for one hot object aggregate
// onto a single in-flight fetch (the directory's pending-interest window),
// the first landed copy fans out through the broadcast-tree machinery, and
// the hard races resolve honestly — Delete mid-coalesce fails attached
// waiters kDeleted, a dead fetcher restarts the window, a dead producer
// re-resolves survivors through a lineage re-Put, and an evicted fan-out
// source is retracted and retried. Plus: zipf-serving scenario runs are
// bit-identical across repeats.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/units.h"
#include "core/client.h"
#include "core/cluster.h"
#include "workload/driver.h"
#include "workload/scenarios.h"

namespace hoplite::core {
namespace {

HopliteCluster::Options CoalescingOptions(int nodes, std::int64_t capacity = 0) {
  HopliteCluster::Options options;
  options.network.num_nodes = nodes;
  options.network.cache.coalescing = true;
  options.store_capacity_bytes = capacity;
  return options;
}

/// Total bytes any node put on the wire (the figure's bytes-on-wire metric).
std::int64_t WireBytes(HopliteCluster& cluster) {
  std::int64_t total = 0;
  for (NodeID n = 0; n < cluster.num_nodes(); ++n) {
    total += cluster.network().TrafficOf(n).bytes_sent;
  }
  return total;
}

/// Puts an inline hot object and issues one concurrent Get per other node.
/// Returns the per-getter results (index 0 = node 1).
std::vector<std::optional<store::Buffer>> ConcurrentGetBurst(HopliteCluster& cluster,
                                                             ObjectID object) {
  std::vector<std::optional<store::Buffer>> got(
      static_cast<std::size_t>(cluster.num_nodes() - 1));
  for (NodeID getter = 1; getter < cluster.num_nodes(); ++getter) {
    cluster.client(getter)
        .Get(object, GetOptions{.read_only = true})
        .Then([&got, getter](const store::Buffer& b) {
          got[static_cast<std::size_t>(getter) - 1] = b;
        });
  }
  cluster.RunAll();
  return got;
}

// ----------------------------------------------------------------------
// The coalescing win: one origin fetch, fan-out from landed copies.
// ----------------------------------------------------------------------

TEST(CoalescingTest, ConcurrentInlineGettersShareOneOriginFetch) {
  // Two identical Get bursts, coalescing off vs on. Per-Get serving pays
  // the shard's egress for every Get of every wave; coalescing pays one
  // origin fetch plus the fan-out transfers and then serves repeat waves
  // from the getters' cached copies — strictly fewer bytes on the wire.
  const ObjectID hot = ObjectID::FromName("hot");
  std::int64_t wire_per_get = 0;
  {
    HopliteCluster plain(
        [] {
          HopliteCluster::Options options;
          options.network.num_nodes = 6;
          return options;
        }());
    plain.client(0).Put(hot, store::Buffer::OfSize(KB(32)));
    plain.RunAll();
    const std::int64_t before = WireBytes(plain);
    for (int wave = 0; wave < 2; ++wave) {
      for (const auto& result : ConcurrentGetBurst(plain, hot)) {
        ASSERT_TRUE(result.has_value());
        EXPECT_EQ(result->size(), KB(32));
      }
    }
    wire_per_get = WireBytes(plain) - before;
  }

  HopliteCluster cluster(CoalescingOptions(6));
  cluster.client(0).Put(hot, store::Buffer::OfSize(KB(32)));
  cluster.RunAll();
  const std::int64_t before = WireBytes(cluster);
  for (const auto& result : ConcurrentGetBurst(cluster, hot)) {
    ASSERT_TRUE(result.has_value());
    EXPECT_EQ(result->size(), KB(32));
  }

  const auto& stats = cluster.directory().interest_stats();
  EXPECT_EQ(stats.opened, 1) << "one window for the whole burst";
  EXPECT_EQ(stats.resolved, 1);
  EXPECT_EQ(stats.attaches, 4) << "every later claimant attaches";
  EXPECT_EQ(cluster.directory().pending_interests(), 0u);

  // The fan-out left real copies behind: the repeat burst is all local
  // hits and adds nothing to the wire.
  const std::int64_t settled = WireBytes(cluster);
  for (const auto& result : ConcurrentGetBurst(cluster, hot)) {
    ASSERT_TRUE(result.has_value());
  }
  EXPECT_EQ(WireBytes(cluster), settled) << "repeat Gets must be local hits";
  for (NodeID getter = 1; getter < cluster.num_nodes(); ++getter) {
    EXPECT_GE(cluster.store(getter).hits(), 1u) << "getter " << getter;
  }
  const std::int64_t wire_coalesced = WireBytes(cluster) - before;
  EXPECT_LT(wire_coalesced, wire_per_get)
      << "coalescing must beat per-Get shard egress on the wire";
}

// ----------------------------------------------------------------------
// Delete mid-coalesce: attached waiters fail kDeleted.
// ----------------------------------------------------------------------

TEST(CoalescingTest, DeleteMidCoalesceFailsAttachedWaitersDeleted) {
  // Node 1 wins the (non-inline) claim and is mid-transfer from the
  // producer; nodes 2-4 attached to that in-flight fetch (the fetch-origin
  // partial is not a grantable sender under coalescing). Delete lands mid
  // stream: the attached waiters observed the object exist and merged onto
  // its fetch, so every one of them must fail kDeleted — not hang waiting
  // for a re-creation.
  HopliteCluster cluster(CoalescingOptions(5));
  const ObjectID a = ObjectID::FromName("A");
  cluster.client(0).Put(a, store::Buffer::OfSize(MB(12)));
  cluster.RunAll();

  std::vector<std::optional<RefErrorCode>> errors(4);
  int successes = 0;
  for (NodeID getter = 1; getter <= 4; ++getter) {
    cluster.client(getter)
        .Get(a, GetOptions{.read_only = true})
        .Then([&successes] { ++successes; })
        .OnError([&errors, getter](const RefError& e) {
          errors[static_cast<std::size_t>(getter) - 1] = e.code;
        });
  }
  // 12 MB takes ~10 ms; at 1 ms the first chunk stream is live and the
  // attached claims are parked.
  cluster.simulator().ScheduleAfter(Milliseconds(1), [&] {
    EXPECT_EQ(cluster.directory().interest_stats().attaches, 3)
        << "test setup: three claims must have coalesced before the Delete";
    cluster.client(0).Delete(a);
  });
  cluster.RunAll();

  EXPECT_EQ(successes, 0);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    ASSERT_TRUE(errors[i].has_value()) << "getter " << i + 1 << " must settle";
    EXPECT_EQ(*errors[i], RefErrorCode::kDeleted) << "getter " << i + 1;
  }
  EXPECT_FALSE(cluster.directory().HasObject(a));
  for (NodeID n = 0; n < 5; ++n) EXPECT_FALSE(cluster.store(n).Contains(a));
}

TEST(CoalescingTest, DeleteWhileInlinePayloadInFlightReapsTheCachedCopy) {
  // The inline flavour: the window is open, the payload is on the wire to
  // the first claimant, attached waiters are parked — and the object is
  // deleted. The attached waiters fail kDeleted; the first claimant's Get
  // legitimately completes (data already in flight beats the delete) but
  // its just-cached serving copy must be reaped via the registration's
  // deleted notification, not survive as an orphan a re-created id would
  // wrongly hit.
  HopliteCluster cluster(CoalescingOptions(4));
  const ObjectID hot = ObjectID::FromName("hot");
  cluster.client(0).Put(hot, store::Buffer::OfSize(KB(32)));
  cluster.RunAll();

  std::optional<store::Buffer> first;
  std::vector<std::optional<RefErrorCode>> attached_errors(2);
  cluster.client(1).Get(hot, GetOptions{.read_only = true}).Then([&](const store::Buffer& b) {
    first = b;
  });
  for (NodeID getter = 2; getter <= 3; ++getter) {
    cluster.client(getter)
        .Get(hot, GetOptions{.read_only = true})
        .OnError([&attached_errors, getter](const RefError& e) {
          attached_errors[static_cast<std::size_t>(getter) - 2] = e.code;
        });
  }
  // The claims are processed (and the window opens) one directory read
  // latency in (~177 us); the payload lands and its registration resolves
  // the window past ~400 us. Delete in the gap, while the payload is
  // airborne.
  cluster.simulator().ScheduleAfter(Microseconds(300), [&] {
    EXPECT_EQ(cluster.directory().pending_interests(), 1u)
        << "test setup: the Delete must land while the window is open";
    cluster.client(0).Delete(hot);
  });
  cluster.RunAll();

  ASSERT_TRUE(first.has_value()) << "in-flight inline data is delivered before the purge";
  EXPECT_EQ(first->size(), KB(32));
  for (std::size_t i = 0; i < attached_errors.size(); ++i) {
    ASSERT_TRUE(attached_errors[i].has_value()) << "attached getter " << i + 2;
    EXPECT_EQ(*attached_errors[i], RefErrorCode::kDeleted);
  }
  EXPECT_FALSE(cluster.store(1).Contains(hot))
      << "the late-landing cached copy must be reaped, not orphaned";
  EXPECT_FALSE(cluster.directory().HasObject(hot));
  EXPECT_EQ(cluster.directory().pending_interests(), 0u);
}

// ----------------------------------------------------------------------
// Failure mid-fan-out.
// ----------------------------------------------------------------------

TEST(CoalescingTest, DeadInlineFetcherRestartsTheWindowForSurvivors) {
  // Node 1 owns the open window (its inline fetch is the one in flight)
  // and dies before the payload lands. The directory must drop the window
  // (OnNodeFailed) and restart it for the next parked claimant, so the
  // survivors are served from the shard instead of waiting forever on a
  // dead fetcher's supply.
  HopliteCluster cluster(CoalescingOptions(4));
  const ObjectID hot = ObjectID::FromName("hot");
  cluster.client(0).Put(hot, store::Buffer::OfSize(KB(63)));
  cluster.RunAll();

  std::vector<std::optional<store::Buffer>> got(2);
  (void)cluster.client(1).Get(hot, GetOptions{.read_only = true});
  for (NodeID getter = 2; getter <= 3; ++getter) {
    cluster.client(getter)
        .Get(hot, GetOptions{.read_only = true})
        .Then([&got, getter](const store::Buffer& b) {
          got[static_cast<std::size_t>(getter) - 2] = b;
        });
  }
  // Window open at ~177 us (claim read latency), the 63 KB payload lands
  // at node 1 near ~280 us: kill in between, while it is airborne.
  cluster.simulator().ScheduleAfter(Microseconds(220), [&] {
    EXPECT_EQ(cluster.directory().pending_interests(), 1u)
        << "test setup: the fetch must still be in flight when node 1 dies";
    cluster.KillNode(1);
  });
  cluster.RunAll();

  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << "surviving getter " << i + 2;
    EXPECT_EQ(got[i]->size(), KB(63));
  }
  const auto& stats = cluster.directory().interest_stats();
  EXPECT_EQ(stats.aborted, 1) << "the dead fetcher's window";
  EXPECT_EQ(stats.opened, 2) << "original window + the survivor restart";
  EXPECT_EQ(stats.resolved, 1);
  EXPECT_EQ(cluster.directory().pending_interests(), 0u);
}

TEST(CoalescingTest, DeadProducerMidFanOutReResolvesViaLineageRePut) {
  // The producer dies while streaming to the first claimant, with three
  // more claims attached to that fetch. Every copy (the producer's primary
  // and the fetch-origin partial that inherited its chain) dies with it,
  // so all four Gets park on the id. The framework's lineage answer — a
  // re-Put of the object on a surviving node — must resolve every one of
  // them.
  HopliteCluster cluster(CoalescingOptions(6));
  const ObjectID a = ObjectID::FromName("A");
  cluster.client(0).Put(a, store::Buffer::OfSize(MB(12)));
  cluster.RunAll();

  std::vector<std::optional<store::Buffer>> got(4);
  for (NodeID getter = 1; getter <= 4; ++getter) {
    cluster.client(getter)
        .Get(a, GetOptions{.read_only = true})
        .Then([&got, getter](const store::Buffer& b) {
          got[static_cast<std::size_t>(getter) - 1] = b;
        });
  }
  cluster.simulator().ScheduleAfter(Milliseconds(1), [&] {
    EXPECT_EQ(cluster.directory().interest_stats().attaches, 3)
        << "test setup: the burst must have coalesced before the producer dies";
    cluster.KillNode(0);
  });
  // Lineage kicks in well after the failure is detected and the stale
  // locations are cleaned: node 5 recreates the object.
  cluster.simulator().ScheduleAfter(Milliseconds(20), [&] {
    ASSERT_FALSE(got[0].has_value()) << "test setup: the fan-out must have been cut";
    cluster.client(5).Put(a, store::Buffer::OfSize(MB(12)));
  });
  cluster.RunAll();

  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << "getter " << i + 1 << " must re-resolve";
    EXPECT_EQ(got[i]->size(), MB(12));
  }
}

TEST(CoalescingTest, EvictedFanOutSourceIsRetractedAndSurvivorsRetried) {
  // Wave 1 leaves node 1 holding the evictable cached serving copy; store
  // pressure evicts it while its directory location survives (eviction is
  // lazy). Wave 2's first claim is granted the stale location with a
  // second claim attached behind it: the sender-side miss must retract the
  // location, and the re-claim — now against an empty table — must restart
  // the inline window so both waiters land.
  HopliteCluster cluster(CoalescingOptions(4, MB(1)));
  const ObjectID hot = ObjectID::FromName("hot");
  cluster.client(0).Put(hot, store::Buffer::OfSize(KB(32)));
  cluster.RunAll();

  (void)cluster.client(1).Get(hot, GetOptions{.read_only = true});
  cluster.RunAll();
  ASSERT_TRUE(cluster.store(1).Contains(hot)) << "wave 1 must cache the copy";

  // Fill node 1 past capacity with its own primaries' replicas: the cached
  // copy is the only evictable entry and goes first.
  for (int i = 0; i < 2; ++i) {
    const ObjectID filler = ObjectID::FromName("filler").WithIndex(i);
    cluster.client(2).Put(filler, store::Buffer::OfSize(MB(1) / 2));
    (void)cluster.client(1).Get(filler, GetOptions{.read_only = true});
    cluster.RunAll();
  }
  ASSERT_FALSE(cluster.store(1).Contains(hot)) << "the cached copy must be evicted";

  std::vector<std::optional<store::Buffer>> got(2);
  for (NodeID getter = 2; getter <= 3; ++getter) {
    cluster.client(getter)
        .Get(hot, GetOptions{.read_only = true})
        .Then([&got, getter](const store::Buffer& b) {
          got[static_cast<std::size_t>(getter) - 2] = b;
        });
  }
  cluster.RunAll();

  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].has_value()) << "getter " << i + 2;
    EXPECT_EQ(got[i]->size(), KB(32));
  }
  EXPECT_EQ(cluster.directory().pending_interests(), 0u);
}

}  // namespace
}  // namespace hoplite::core

// ----------------------------------------------------------------------
// zipf-serving determinism across repeats.
// ----------------------------------------------------------------------

namespace hoplite::workload {
namespace {

ScenarioSpec SmallZipfSpec() {
  ScenarioTuning tuning;
  tuning.num_nodes = 8;
  tuning.horizon = Milliseconds(200);
  tuning.seed = 11;
  ScenarioSpec spec = BuildScenario("zipf-serving", tuning);
  spec.store_capacity_bytes = MB(4);
  spec.cache.policy = cache::EvictionPolicyKind::kTwoQ;
  spec.cache.coalescing = true;
  return spec;
}

void ExpectSameReport(const LoadReport& one, const LoadReport& two) {
  ASSERT_EQ(one.ops.size(), two.ops.size());
  for (std::size_t i = 0; i < one.ops.size(); ++i) {
    EXPECT_EQ(one.ops[i].settled_at, two.ops[i].settled_at) << "op " << i;
    EXPECT_EQ(one.ops[i].ok, two.ops[i].ok) << "op " << i;
  }
  EXPECT_EQ(one.end_time, two.end_time);
  EXPECT_EQ(one.store.evictions, two.store.evictions);
  EXPECT_EQ(one.store.hits, two.store.hits);
  EXPECT_EQ(one.store.misses, two.store.misses);
  EXPECT_EQ(one.store.coalesced_attaches, two.store.coalesced_attaches);
  EXPECT_EQ(one.store.peak_used_bytes, two.store.peak_used_bytes);
}

TEST(ZipfServingTest, RepeatRunsAreBitIdentical) {
  const ScenarioSpec spec = SmallZipfSpec();
  const LoadReport one = RunScenario(spec, BackendKind::kHoplite);
  const LoadReport two = RunScenario(spec, BackendKind::kHoplite);
  ASSERT_GT(one.total.offered, 0u);
  EXPECT_GT(one.store.hits, 0u) << "the hot set must produce local hits";
  ExpectSameReport(one, two);
}

}  // namespace
}  // namespace hoplite::workload
