// Unit tests for the sharded (conservative-lookahead) parallel engine.
//
// The load-bearing property is *order equivalence*: a workload confined to a
// single domain must execute in exactly the reference Simulator's (time,
// FIFO) order at every shard count and in both execution modes (windowed
// parallel and sequenced); multi-domain workloads must execute in an order
// that is deterministic and independent of shard placement. The tests
// express this as trace equality between engines driven by byte-identical
// workloads.
#include "sim/sharded_simulator.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "sim/simulator.h"

namespace hoplite::sim {
namespace {

using Trace = std::vector<std::pair<SimTime, std::uint64_t>>;

// A deterministic self-expanding workload exercising the tie-break paths:
// sibling events at equal timestamps, cancellation (immediate and deferred),
// and multi-generation scheduling chains. Drives any Engine identically.
class ChurnWorkload {
 public:
  ChurnWorkload(Engine& eng, Trace& trace, std::uint64_t seed)
      : eng_(eng), trace_(trace), seed_(seed) {}

  void Start(int roots) {
    for (int i = 0; i < roots; ++i) {
      const std::uint64_t key = seed_ + static_cast<std::uint64_t>(i);
      // Clustered start times so roots collide on equal timestamps.
      eng_.ScheduleAt(Milliseconds(i % 3), [this, key] { Node(key, 4); });
    }
  }

 private:
  void Node(std::uint64_t key, int depth) {
    trace_.emplace_back(eng_.Now(), key);
    if (depth == 0) return;
    hoplite::Rng rng(key);
    const int children = 1 + static_cast<int>(rng.NextU64() % 3);
    EventId victim{};
    for (int c = 0; c < children; ++c) {
      const std::uint64_t child_key = key * 31 + static_cast<std::uint64_t>(c) + 1;
      // Small delay set {0,1,2} ms forces plenty of equal-timestamp ties
      // between cousins scheduled from different parents.
      const SimDuration delay = Milliseconds(static_cast<std::int64_t>(rng.NextU64() % 3));
      const EventId id =
          eng_.ScheduleAfter(delay, [this, child_key, depth] { Node(child_key, depth - 1); });
      if (c == 0 && rng.NextU64() % 4 == 0) victim = id;
    }
    if (victim.IsValid()) {
      if (rng.NextU64() % 2 == 0) {
        EXPECT_TRUE(eng_.Cancel(victim));  // immediate cancel
        EXPECT_FALSE(eng_.Cancel(victim));
      } else {
        // Deferred cancel from a later event of the same domain; the victim
        // fires at >= +0ms, the canceller at +0ms but scheduled later, so
        // the cancel may race the victim in virtual order — both outcomes
        // are deterministic and must replay identically everywhere.
        eng_.ScheduleAfter(0, [this, victim] { eng_.Cancel(victim); });
      }
    }
  }

  Engine& eng_;
  Trace& trace_;
  std::uint64_t seed_;
};

struct Reference {
  Trace trace;
  std::uint64_t executed = 0;  ///< includes events that record no trace entry
};

Reference ReferenceRun(std::uint64_t seed, int roots) {
  Simulator sim;
  Reference ref;
  ChurnWorkload workload(sim, ref.trace, seed);
  workload.Start(roots);
  sim.Run();
  ref.executed = sim.executed_events();
  return ref;
}

TEST(ShardedSimulatorTest, SingleDomainMatchesReferenceEngineAtEveryShardCount) {
  const Reference expected = ReferenceRun(7, 9);
  ASSERT_GT(expected.trace.size(), 100u);
  for (const int shards : {1, 2, 4, 8}) {
    ShardedSimulator eng({shards});
    const DomainId d = eng.AddDomain("main");
    Trace trace;
    ChurnWorkload workload(eng.domain(d), trace, 7);
    workload.Start(9);
    eng.Run();
    EXPECT_EQ(trace, expected.trace) << "shards=" << shards;
    EXPECT_EQ(eng.domain(d).executed_events(), expected.executed);
    EXPECT_TRUE(eng.Idle());
  }
}

TEST(ShardedSimulatorTest, SequencedModeMatchesReferenceToo) {
  const Trace expected = ReferenceRun(21, 6).trace;
  ShardedSimulator eng({4});
  const DomainId d = eng.AddDomain("main");
  Trace trace;
  ChurnWorkload workload(eng.domain(d), trace, 21);
  workload.Start(6);
  // RunUntilPredicate drives the sequenced path (one event at a time in
  // global deterministic order); a never-true predicate drains the engine.
  EXPECT_FALSE(eng.RunUntilPredicate([] { return false; }));
  EXPECT_EQ(trace, expected);
}

TEST(ShardedSimulatorTest, PredicateStopsAtTheSameEventAsTheReference) {
  // Stop both engines once 50 events have fired; the 50-event prefix and
  // the clock afterwards must agree.
  auto run_prefix = [](Engine& eng, Trace& trace, std::uint64_t seed) {
    ChurnWorkload workload(eng, trace, seed);
    workload.Start(6);
    EXPECT_TRUE(eng.RunUntilPredicate([&trace] { return trace.size() >= 50; }));
  };
  Simulator plain;
  Trace plain_trace;
  run_prefix(plain, plain_trace, 33);

  ShardedSimulator eng({4});
  const DomainId d = eng.AddDomain("main");
  Trace sharded_trace;
  run_prefix(eng.domain(d), sharded_trace, 33);

  EXPECT_EQ(sharded_trace, plain_trace);
  EXPECT_EQ(eng.domain(d).Now(), plain.Now());
}

TEST(ShardedSimulatorTest, RunUntilAdvancesLikeTheReference) {
  auto drive = [](Engine& eng, Trace& trace, std::uint64_t seed) {
    ChurnWorkload workload(eng, trace, seed);
    workload.Start(5);
    eng.RunUntil(Milliseconds(4));
    const SimTime mid = eng.Now();
    const std::size_t mid_count = trace.size();
    eng.Run();
    return std::pair<SimTime, std::size_t>(mid, mid_count);
  };
  Simulator plain;
  Trace plain_trace;
  const auto plain_mid = drive(plain, plain_trace, 11);

  ShardedSimulator eng({2});
  const DomainId d = eng.AddDomain("main");
  Trace sharded_trace;
  const auto sharded_mid = drive(eng.domain(d), sharded_trace, 11);

  EXPECT_EQ(sharded_mid, plain_mid);
  EXPECT_EQ(sharded_trace, plain_trace);
}

TEST(ShardedSimulatorTest, IdleIgnoresCancelledTombstonesLikeTheReference) {
  // A fires, B was cancelled: once A has run, only B's tombstone is left in
  // each engine's queue, and neither engine may count it as pending work.
  auto drive = [](Engine& eng) {
    bool fired = false;
    eng.ScheduleAt(Milliseconds(10), [&fired] { fired = true; });
    const EventId b = eng.ScheduleAt(Milliseconds(20), [] {});
    EXPECT_TRUE(eng.Cancel(b));
    EXPECT_FALSE(eng.Idle());
    EXPECT_TRUE(eng.RunUntilPredicate([&fired] { return fired; }));
    return eng.Idle();
  };
  Simulator plain;
  const bool plain_idle = drive(plain);
  EXPECT_EQ(plain.cancelled_tombstones(), 1u) << "the tombstone must still be queued";

  ShardedSimulator eng({2});
  const DomainId d = eng.AddDomain("main");
  const bool sharded_idle = drive(eng.domain(d));

  EXPECT_TRUE(plain_idle);
  EXPECT_EQ(sharded_idle, plain_idle);
}

TEST(ShardedSimulatorTest, DriverSchedulingBetweenPhasesMatchesReference) {
  // Root (driver-context) schedules interleave with event-context schedules
  // across multiple run phases; the reference engine's FIFO must replay.
  auto drive = [](Engine& eng) {
    Trace trace;
    for (int phase = 0; phase < 3; ++phase) {
      for (int i = 0; i < 4; ++i) {
        const std::uint64_t key = static_cast<std::uint64_t>(phase * 100 + i);
        eng.ScheduleAfter(Milliseconds(i % 2), [&eng, &trace, key] {
          trace.emplace_back(eng.Now(), key);
          eng.ScheduleAfter(0, [&eng, &trace, key] {
            trace.emplace_back(eng.Now(), key + 1000);
          });
        });
      }
      eng.Run();
    }
    return trace;
  };
  Simulator plain;
  const Trace expected = drive(plain);
  ShardedSimulator eng({4});
  const DomainId d = eng.AddDomain("main");
  EXPECT_EQ(drive(eng.domain(d)), expected);
}

// ----------------------------------------------------------------------
// Multi-domain: deterministic cross-domain merge order.
// ----------------------------------------------------------------------

struct PingPong {
  // Domains volley timestamped messages with exactly the declared lookahead,
  // plus same-time local noise events, so inter-shard mail constantly ties
  // with local events on equal timestamps.
  static void Start(ShardedSimulator& eng, DomainId a, DomainId b, Trace& trace_a,
                    Trace& trace_b, int volleys) {
    Volley(eng, a, b, trace_a, trace_b, volleys, 1);
  }

  static void Volley(ShardedSimulator& eng, DomainId from, DomainId to, Trace& trace_from,
                     Trace& trace_to, int remaining, std::uint64_t key) {
    Engine& src = eng.domain(from);
    src.ScheduleAfter(0, [&eng, from, to, &trace_from, &trace_to, remaining, key] {
      Engine& self = eng.domain(from);
      trace_from.emplace_back(self.Now(), key);
      // Local noise at the exact arrival time of the cross-domain message.
      const SimTime arrival = self.Now() + Milliseconds(1);
      self.ScheduleAt(arrival, [&self, &trace_from, key] {
        trace_from.emplace_back(self.Now(), key + 500);
      });
      if (remaining > 0) {
        eng.domain(to).ScheduleAt(arrival, [&eng, from, to, &trace_from, &trace_to,
                                            remaining, key] {
          trace_to.emplace_back(eng.domain(to).Now(), key + 1000);
          Volley(eng, to, from, trace_to, trace_from, remaining - 1, key * 7 + 1);
        });
      }
    });
  }
};

TEST(ShardedSimulatorTest, CrossDomainMergeIsShardAndModeIndependent) {
  Trace expected_a;
  Trace expected_b;
  {
    ShardedSimulator eng({1});
    const DomainId a = eng.AddDomain("a");
    const DomainId b = eng.AddDomain("b");
    eng.SetLookahead(a, b, Milliseconds(1));
    eng.SetLookahead(b, a, Milliseconds(1));
    PingPong::Start(eng, a, b, expected_a, expected_b, 24);
    eng.Run();
  }
  ASSERT_GT(expected_a.size(), 24u);
  for (const int shards : {2, 4, 8}) {
    // Windowed parallel execution.
    {
      ShardedSimulator eng({shards});
      const DomainId a = eng.AddDomain("a", /*shard=*/0);
      const DomainId b = eng.AddDomain("b", /*shard=*/shards - 1);
      eng.SetLookahead(a, b, Milliseconds(1));
      eng.SetLookahead(b, a, Milliseconds(1));
      Trace trace_a;
      Trace trace_b;
      PingPong::Start(eng, a, b, trace_a, trace_b, 24);
      eng.Run();
      EXPECT_EQ(trace_a, expected_a) << "windowed shards=" << shards;
      EXPECT_EQ(trace_b, expected_b) << "windowed shards=" << shards;
      EXPECT_GT(eng.barriers_crossed(), 1u) << "expected a windowed (not free) run";
    }
    // Sequenced execution must produce the same order again.
    {
      ShardedSimulator eng({shards});
      const DomainId a = eng.AddDomain("a", /*shard=*/0);
      const DomainId b = eng.AddDomain("b", /*shard=*/shards - 1);
      eng.SetLookahead(a, b, Milliseconds(1));
      eng.SetLookahead(b, a, Milliseconds(1));
      Trace trace_a;
      Trace trace_b;
      PingPong::Start(eng, a, b, trace_a, trace_b, 24);
      EXPECT_FALSE(eng.RunUntilPredicate([] { return false; }));
      EXPECT_EQ(trace_a, expected_a) << "sequenced shards=" << shards;
      EXPECT_EQ(trace_b, expected_b) << "sequenced shards=" << shards;
    }
  }
}

TEST(ShardedSimulatorTest, EqualTimestampCrossDomainMessagesTieBreakDeterministically) {
  // Two senders fire messages into one receiver arriving at the *same*
  // timestamp, where the receiver also has a local event. The documented
  // order key is (time, parent_step, parent_domain, idx): the receiver's
  // local event was scheduled from driver context (parent_domain 0), so it
  // fires first; then the message from the domain whose scheduling event
  // executed earlier (smaller parent_step... equal here, so smaller
  // parent_domain id — domain a before domain b).
  ShardedSimulator eng({2});
  const DomainId a = eng.AddDomain("a", 0);
  const DomainId b = eng.AddDomain("b", 1);
  const DomainId r = eng.AddDomain("recv", 1);
  eng.SetLookahead(a, r, Milliseconds(1));
  eng.SetLookahead(b, r, Milliseconds(1));
  std::vector<std::uint64_t> order;
  const SimTime arrival = Milliseconds(3);
  // Driver-context local event at the arrival time (root key sorts first).
  eng.domain(r).ScheduleAt(arrival, [&order] { order.push_back(0); });
  // Both senders' step-0 events schedule into the receiver for `arrival`.
  eng.domain(b).ScheduleAt(Milliseconds(2), [&eng, r, arrival, &order] {
    eng.domain(r).ScheduleAt(arrival, [&order] { order.push_back(2); });
  });
  eng.domain(a).ScheduleAt(Milliseconds(2), [&eng, r, arrival, &order] {
    eng.domain(r).ScheduleAt(arrival, [&order] { order.push_back(1); });
  });
  eng.Run();
  EXPECT_EQ(order, (std::vector<std::uint64_t>{0, 1, 2}));
}

TEST(ShardedSimulatorTest, IndependentDomainsFreeRunInASingleWindow) {
  ShardedSimulator eng({2});
  const DomainId a = eng.AddDomain("a", 0);
  const DomainId b = eng.AddDomain("b", 1);
  Trace trace_a;
  Trace trace_b;
  ChurnWorkload wa(eng.domain(a), trace_a, 5);
  ChurnWorkload wb(eng.domain(b), trace_b, 9);
  wa.Start(6);
  wb.Start(6);
  eng.Run();
  // No lookahead edges declared: both shards free-run to drain in one
  // window, concurrently.
  EXPECT_EQ(eng.barriers_crossed(), 1u);
  EXPECT_EQ(eng.max_parallel_shards(), 2);
  const Reference ref_a = ReferenceRun(5, 6);
  const Reference ref_b = ReferenceRun(9, 6);
  EXPECT_EQ(trace_a, ref_a.trace);
  EXPECT_EQ(trace_b, ref_b.trace);
  EXPECT_EQ(eng.total_executed_events(), ref_a.executed + ref_b.executed);
}

TEST(ShardedSimulatorTest, SingleDomainNeverLeavesTheCallerThread) {
  ShardedSimulator eng({8});
  const DomainId d = eng.AddDomain("solo");
  int fired = 0;
  eng.domain(d).ScheduleAfter(Milliseconds(1), [&fired] { ++fired; });
  eng.Run();
  EXPECT_EQ(fired, 1);
  // Only one runnable shard per window: the inline fast path executes on
  // the driver thread and no worker pool exists.
  EXPECT_EQ(eng.max_parallel_shards(), 1);
}

TEST(ShardedSimulatorTest, WindowedRunIsReproducibleAcrossRepeats) {
  // Same workload, fresh engine, real threads each time: traces must be
  // bit-identical run over run (this is the TSan-lane workhorse).
  Trace first_a;
  Trace first_b;
  for (int rep = 0; rep < 4; ++rep) {
    ShardedSimulator eng({4});
    const DomainId a = eng.AddDomain("a", 0);
    const DomainId b = eng.AddDomain("b", 3);
    eng.SetLookahead(a, b, Milliseconds(1));
    eng.SetLookahead(b, a, Milliseconds(1));
    Trace trace_a;
    Trace trace_b;
    PingPong::Start(eng, a, b, trace_a, trace_b, 40);
    eng.Run();
    if (rep == 0) {
      first_a = trace_a;
      first_b = trace_b;
      ASSERT_GT(trace_a.size(), 40u);
    } else {
      EXPECT_EQ(trace_a, first_a);
      EXPECT_EQ(trace_b, first_b);
    }
  }
}

// ----------------------------------------------------------------------
// Contract enforcement.
// ----------------------------------------------------------------------

TEST(ShardedSimulatorDeathTest, UndeclaredCrossDomainScheduleDies) {
  // Both domains on one shard: the run stays inline (no threads), which
  // keeps the death test on the fork-safe path.
  ShardedSimulator eng({1});
  const DomainId a = eng.AddDomain("a");
  const DomainId b = eng.AddDomain("b");
  eng.domain(a).ScheduleAfter(0, [&eng, b] {
    eng.domain(b).ScheduleAfter(Milliseconds(5), [] {});
  });
  EXPECT_DEATH(eng.Run(), "without a declared lookahead edge");
}

TEST(ShardedSimulatorDeathTest, LookaheadViolationDies) {
  ShardedSimulator eng({1});
  const DomainId a = eng.AddDomain("a");
  const DomainId b = eng.AddDomain("b");
  eng.SetLookahead(a, b, Milliseconds(2));
  eng.domain(a).ScheduleAfter(0, [&eng, b] {
    // Targets now + 1ms < now + lookahead(2ms): conservative contract broken.
    eng.domain(b).ScheduleAfter(Milliseconds(1), [] {});
  });
  EXPECT_DEATH(eng.Run(), "violates its declared lookahead");
}

TEST(ShardedSimulatorDeathTest, CrossDomainCancelDies) {
  ShardedSimulator eng({1});
  const DomainId a = eng.AddDomain("a");
  const DomainId b = eng.AddDomain("b");
  eng.SetLookahead(a, b, Milliseconds(1));
  const EventId victim = eng.domain(b).ScheduleAt(Milliseconds(10), [] {});
  eng.domain(a).ScheduleAfter(0, [&eng, b, victim] { eng.domain(b).Cancel(victim); });
  EXPECT_DEATH(eng.Run(), "cross-domain cancel");
}

TEST(ShardedSimulatorTest, CrossDomainScheduleReturnsUncancellableHandle) {
  ShardedSimulator eng({2});
  const DomainId a = eng.AddDomain("a", 0);
  const DomainId b = eng.AddDomain("b", 1);
  eng.SetLookahead(a, b, Milliseconds(1));
  bool fired = false;
  eng.domain(a).ScheduleAfter(0, [&eng, b, &fired] {
    const EventId id =
        eng.domain(b).ScheduleAfter(Milliseconds(1), [&fired] { fired = true; });
    // Cross-shard schedules are fire-and-forget: no cancellable handle.
    EXPECT_FALSE(id.IsValid());
  });
  eng.Run();
  EXPECT_TRUE(fired);
}

TEST(ShardedSimulatorTest, CancelThroughAnotherDomainsLaneIsRejected) {
  // Both domains share shard 0's queue, so b's handle names a real slot
  // there; a's lane must still refuse it rather than cancel b's event.
  ShardedSimulator eng({1});
  const DomainId a = eng.AddDomain("a");
  const DomainId b = eng.AddDomain("b");
  bool fired = false;
  const EventId id = eng.domain(b).ScheduleAt(Milliseconds(1), [&fired] { fired = true; });
  EXPECT_FALSE(eng.domain(a).Cancel(id));
  eng.Run();
  EXPECT_TRUE(fired);
}

TEST(ShardedSimulatorTest, HeavyCancelTrafficSweepsTombstones) {
  ShardedSimulator eng({2});
  const DomainId d = eng.AddDomain("main");
  std::vector<EventId> victims;
  victims.reserve(1000);
  for (int i = 0; i < 1000; ++i) {
    victims.push_back(eng.domain(d).ScheduleAt(Milliseconds(100 + i), [] {}));
  }
  int kept = 0;
  eng.domain(d).ScheduleAt(Milliseconds(1), [&] {
    for (std::size_t i = 0; i < victims.size(); ++i) {
      if (i % 10 == 0) {
        ++kept;
        continue;
      }
      EXPECT_TRUE(eng.domain(d).Cancel(victims[i]));
    }
  });
  eng.Run();
  EXPECT_EQ(eng.domain(d).executed_events(), static_cast<std::uint64_t>(kept) + 1);
  EXPECT_TRUE(eng.Idle());
  eng.AuditInvariants();
}

TEST(ShardedSimulatorTest, AuditsPassAfterCrossShardTraffic) {
  ShardedSimulator eng({4});
  const DomainId a = eng.AddDomain("a", 0);
  const DomainId b = eng.AddDomain("b", 2);
  eng.SetLookahead(a, b, Milliseconds(1));
  eng.SetLookahead(b, a, Milliseconds(1));
  Trace trace_a;
  Trace trace_b;
  PingPong::Start(eng, a, b, trace_a, trace_b, 10);
  eng.Run();
  eng.AuditInvariants();
  EXPECT_TRUE(eng.Idle());
}

}  // namespace
}  // namespace hoplite::sim
