// Unit tests for the object directory service.
#include "directory/object_directory.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "net/network.h"
#include "sim/simulator.h"

namespace hoplite::directory {
namespace {

class DirectoryTest : public ::testing::Test {
 protected:
  DirectoryTest() : net_(MakeNetwork()), dir_(*net_, DirectoryConfig{}) {}

  std::unique_ptr<net::FlatFabric> MakeNetwork() {
    net::ClusterConfig cfg;
    cfg.num_nodes = 8;
    cfg.per_message_overhead = 0;
    return std::make_unique<net::FlatFabric>(sim_, cfg);
  }

  sim::Simulator sim_;
  std::unique_ptr<net::FlatFabric> net_;
  ObjectDirectory dir_;
  const ObjectID obj_ = ObjectID::FromName("payload");
};

TEST_F(DirectoryTest, RegisterThenQuery) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  EXPECT_TRUE(dir_.HasObject(obj_));
  EXPECT_EQ(dir_.SizeOf(obj_), MB(1));
  EXPECT_EQ(dir_.StateOf(obj_, 2), LocationState::kAvailablePartial);
  EXPECT_EQ(dir_.LocationsOf(obj_), (std::vector<NodeID>{2}));
}

TEST_F(DirectoryTest, WriteLatencyIsCharged) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  EXPECT_FALSE(dir_.HasObject(obj_));  // not yet applied
  sim_.RunUntil(Microseconds(166));
  EXPECT_FALSE(dir_.HasObject(obj_));
  sim_.RunUntil(Microseconds(167));
  EXPECT_TRUE(dir_.HasObject(obj_));
}

TEST_F(DirectoryTest, MarkCompletePromotesLocation) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  sim_.Run();
  EXPECT_EQ(dir_.StateOf(obj_, 2), LocationState::kAvailableComplete);
}

TEST_F(DirectoryTest, ClaimGrantsCompleteSenderAndMarksItBusy) {
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
  EXPECT_TRUE(reply->sender_complete);
  EXPECT_FALSE(reply->inline_payload);
  EXPECT_EQ(reply->object_size, MB(1));
  EXPECT_EQ(dir_.ChainOf(obj_, 5), (std::vector<NodeID>{2}));
  // Sender is now busy; receiver self-registered as partial.
  EXPECT_EQ(dir_.StateOf(obj_, 2), LocationState::kBusy);
  EXPECT_EQ(dir_.StateOf(obj_, 5), LocationState::kAvailablePartial);
}

TEST_F(DirectoryTest, ClaimPrefersCompleteOverPartial) {
  dir_.RegisterPartial(obj_, 1, MB(1));  // partial
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);  // complete
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
}

TEST_F(DirectoryTest, SecondClaimFallsBackToPartialCopy) {
  // Mirrors Figure 4b: S is busy sending to R1, so R2 gets R1 (partial).
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  std::optional<ClaimReply> r1;
  std::optional<ClaimReply> r2;
  dir_.ClaimSender(obj_, 1, [&](const ClaimReply& r) { r1 = r; });
  sim_.Run();
  dir_.ClaimSender(obj_, 2, [&](const ClaimReply& r) { r2 = r; });
  sim_.Run();
  ASSERT_TRUE(r1.has_value());
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r1->sender, 0);
  EXPECT_EQ(r2->sender, 1);  // the partial copy at R1
  EXPECT_FALSE(r2->sender_complete);
  EXPECT_EQ(dir_.ChainOf(obj_, 2), (std::vector<NodeID>{0, 1}));
}

TEST_F(DirectoryTest, TransferFinishedReturnsSenderToPoolAndCompletesReceiver) {
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  dir_.ClaimSender(obj_, 1, [](const ClaimReply&) {});
  sim_.Run();
  dir_.TransferFinished(obj_, 0, 1);
  sim_.Run();
  EXPECT_EQ(dir_.StateOf(obj_, 0), LocationState::kAvailableComplete);
  EXPECT_EQ(dir_.StateOf(obj_, 1), LocationState::kAvailableComplete);
}

TEST_F(DirectoryTest, ClaimParksUntilObjectAppears) {
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value());  // parked
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
  EXPECT_FALSE(reply->sender_complete);
}

TEST_F(DirectoryTest, EveryClaimAddsAnAvailablePartialSender) {
  // The claim protocol guarantees the sender pool never empties during a
  // broadcast: each granted receiver immediately becomes an available
  // partial location (this is what builds the dynamic broadcast tree).
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  std::vector<NodeID> granted;
  for (NodeID r = 1; r <= 4; ++r) {
    std::optional<ClaimReply> reply;
    dir_.ClaimSender(obj_, r, [&](const ClaimReply& rep) { reply = rep; });
    sim_.Run();
    ASSERT_TRUE(reply.has_value()) << "receiver " << r << " should never park";
    granted.push_back(reply->sender);
  }
  // Receiver k is granted receiver k-1's partial copy (node 0 then 1, 2, 3).
  EXPECT_EQ(granted, (std::vector<NodeID>{0, 1, 2, 3}));
}

TEST_F(DirectoryTest, ClaimParksWhenOnlySenderIsBusyAndIsServedFifo) {
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  dir_.ClaimSender(obj_, 1, [](const ClaimReply&) {});
  sim_.Run();
  // Node 1's partial copy disappears (e.g. evicted); only busy node 0 left.
  dir_.RemoveLocation(obj_, 1);
  sim_.Run();
  std::optional<ClaimReply> first;
  std::optional<ClaimReply> second;
  dir_.ClaimSender(obj_, 2, [&](const ClaimReply& r) { first = r; });
  sim_.Run();
  EXPECT_FALSE(first.has_value());  // parked: node 0 is busy
  dir_.ClaimSender(obj_, 3, [&](const ClaimReply& r) { second = r; });
  sim_.Run();
  EXPECT_FALSE(second.has_value());
  // The transfer to (now-gone) node 1 finishes: node 0 returns to the pool
  // and the parked claims are served in FIFO order.
  dir_.TransferFinished(obj_, 0, 1);
  sim_.Run();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->sender, 0);
  // Receiver 2 self-registered as partial, so receiver 3 fetches from it.
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->sender, 2);
}

TEST_F(DirectoryTest, ClaimNeverGrantsSenderWhoseChainContainsReceiver) {
  // Node 1 fetches from node 0; node 1's chain is {0, 1}... then node 0
  // fails and node 1 re-claims: the only other location is node 2, which is
  // fetching from node 1 (chain {0,1,2} contains 1) — must park, not grant.
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  dir_.ClaimSender(obj_, 1, [](const ClaimReply&) {});
  sim_.Run();
  dir_.ClaimSender(obj_, 2, [](const ClaimReply&) {});  // gets node 1
  sim_.Run();
  ASSERT_EQ(dir_.StateOf(obj_, 1), LocationState::kBusy);
  dir_.NodeFailed(0);
  dir_.TransferAborted(obj_, 0, 1, /*sender_alive=*/false);
  sim_.Run();
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 1, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value()) << "cyclic grant: node 2 depends on node 1";
  // When node 2's fetch aborts and its chain clears, node 1 can claim it.
  dir_.TransferAborted(obj_, 1, 2, /*sender_alive=*/true);
  sim_.Run();
  // Note: node 2 kept only a prefix; it serves as a partial sender.
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
}

TEST_F(DirectoryTest, ReClaimByBusyCompleteCopyRecordsNoChain) {
  // Node 1 fetches a complete copy, then both complete copies go busy
  // serving nodes 2 and 3. A re-claim by node 1 is granted a partial, but a
  // complete copy depends on no one: its chain must stay empty.
  dir_.RegisterPartial(obj_, 0, MB(1));
  dir_.MarkComplete(obj_, 0);
  dir_.ClaimSender(obj_, 1, [](const ClaimReply&) {});
  sim_.Run();
  dir_.TransferFinished(obj_, 0, 1);
  dir_.ClaimSender(obj_, 2, [](const ClaimReply&) {});
  dir_.ClaimSender(obj_, 3, [](const ClaimReply&) {});
  sim_.Run();
  ASSERT_EQ(dir_.StateOf(obj_, 0), LocationState::kBusy);
  ASSERT_EQ(dir_.StateOf(obj_, 1), LocationState::kBusy);
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 1, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_FALSE(reply->local_copy);
  EXPECT_TRUE(reply->sender == 2 || reply->sender == 3) << reply->sender;
  EXPECT_TRUE(dir_.ChainOf(obj_, 1).empty());
  dir_.AuditDirectory();
}

TEST_F(DirectoryTest, InlineSmallObjectServedFromDirectory) {
  const auto payload = store::Buffer::FromValues({1, 2, 3, 4});
  bool stored = false;
  dir_.PutInline(obj_, 0, payload, [&] { stored = true; });
  sim_.Run();
  EXPECT_TRUE(stored);
  EXPECT_TRUE(dir_.IsInline(obj_));
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->inline_payload);
  EXPECT_EQ(reply->payload.values(), (std::vector<float>{1, 2, 3, 4}));
  EXPECT_EQ(reply->sender, kInvalidNode);
}

TEST_F(DirectoryTest, ParkedClaimServedWhenInlinePutArrives) {
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value());
  dir_.PutInline(obj_, 0, store::Buffer::OfSize(100), nullptr);
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_TRUE(reply->inline_payload);
  EXPECT_EQ(reply->payload.size(), 100);
}

TEST_F(DirectoryTest, SubscriptionPublishesCurrentAndFutureLocations) {
  dir_.RegisterPartial(obj_, 1, MB(1));
  sim_.Run();
  std::vector<LocationEvent> events;
  dir_.Subscribe(obj_, [&](const LocationEvent& e) { events.push_back(e); });
  sim_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_FALSE(events[0].complete);
  dir_.MarkComplete(obj_, 1);
  dir_.RegisterPartial(obj_, 3, MB(1));
  sim_.Run();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_TRUE(events[1].complete);
  EXPECT_EQ(events[2].node, 3);
}

TEST_F(DirectoryTest, SubscriptionSnapshotReportsBusyCompleteCopyAsComplete) {
  // The snapshot carries the progress bit, not the availability state: a
  // complete copy that is busy serving a receiver is still complete.
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  dir_.ClaimSender(obj_, 5, [](const ClaimReply&) {});
  sim_.Run();
  ASSERT_EQ(dir_.StateOf(obj_, 2), LocationState::kBusy);
  std::vector<LocationEvent> events;
  dir_.Subscribe(obj_, [&](const LocationEvent& e) { events.push_back(e); });
  sim_.Run();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].node, 2);
  EXPECT_TRUE(events[0].complete);
  EXPECT_EQ(events[1].node, 5);
  EXPECT_FALSE(events[1].complete);
}

TEST_F(DirectoryTest, UnsubscribeStopsEvents) {
  std::vector<LocationEvent> events;
  const auto id = dir_.Subscribe(obj_, [&](const LocationEvent& e) { events.push_back(e); });
  sim_.Run();
  dir_.Unsubscribe(obj_, id);
  dir_.RegisterPartial(obj_, 1, MB(1));
  sim_.Run();
  EXPECT_TRUE(events.empty());
}

TEST_F(DirectoryTest, NodeFailureRemovesLocationsAndPublishesRemoval) {
  dir_.RegisterPartial(obj_, 1, MB(1));
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  std::vector<LocationEvent> events;
  dir_.Subscribe(obj_, [&](const LocationEvent& e) { events.push_back(e); });
  sim_.Run();
  events.clear();
  dir_.NodeFailed(1);
  sim_.Run();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_TRUE(events[0].removed);
  EXPECT_EQ(events[0].node, 1);
  EXPECT_EQ(dir_.LocationsOf(obj_), (std::vector<NodeID>{2}));
}

TEST_F(DirectoryTest, DeleteReturnsHoldersAndDropsEntry) {
  dir_.RegisterPartial(obj_, 1, MB(1));
  dir_.RegisterPartial(obj_, 4, MB(1));
  sim_.Run();
  std::optional<std::vector<NodeID>> holders;
  dir_.DeleteObject(obj_, [&](std::vector<NodeID> h) { holders = std::move(h); });
  sim_.Run();
  ASSERT_TRUE(holders.has_value());
  EXPECT_EQ(*holders, (std::vector<NodeID>{1, 4}));
  EXPECT_FALSE(dir_.HasObject(obj_));
}

TEST_F(DirectoryTest, CancelClaimDropsParkedQuery) {
  bool replied = false;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply&) { replied = true; });
  sim_.Run();
  dir_.CancelClaim(obj_, 5);
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  EXPECT_FALSE(replied);
}

TEST_F(DirectoryTest, ShardIsStableAndInRange) {
  const NodeID shard = dir_.ShardOf(obj_);
  EXPECT_GE(shard, 0);
  EXPECT_LT(shard, 8);
  EXPECT_EQ(dir_.ShardOf(obj_), shard);
}

TEST_F(DirectoryTest, DeleteWhileParkedKeepsTheClaimAlive) {
  // A claim parked behind a missing sender must survive a concurrent
  // Delete: dropping it would strand the claimant's callback forever. The
  // claim resolves once the object is re-created, exactly as if it had been
  // issued after the delete.
  dir_.RegisterPartial(obj_, 2, MB(1));
  sim_.Run();
  int replies = 0;
  NodeID granted = kInvalidNode;
  // Claim the only copy, then re-claim from the same receiver (a client
  // whose first fetch stalled does exactly this): the second claim has no
  // eligible sender — 2 is busy, 5 cannot serve itself — so it parks.
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply&) { ++replies; });
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) {
    ++replies;
    granted = r.sender;
  });
  sim_.Run();
  EXPECT_EQ(replies, 1);
  dir_.DeleteObject(obj_, nullptr);
  sim_.Run();
  // Every copy and the recorded size are gone; the id lives on only as a
  // parking lot (exactly the state a claim-before-put creates).
  EXPECT_EQ(dir_.LocationsOf(obj_), std::vector<NodeID>{});
  EXPECT_EQ(dir_.SizeOf(obj_), std::nullopt);
  EXPECT_EQ(replies, 1) << "parked claim must not be dropped or misfired";
  // Re-create the object: the surviving parked claim is served from it.
  dir_.RegisterPartial(obj_, 3, MB(1));
  dir_.MarkComplete(obj_, 3);
  sim_.Run();
  EXPECT_EQ(replies, 2);
  EXPECT_EQ(granted, 3);
}

TEST_F(DirectoryTest, DeleteWhileClaimInFlightDoesNotResurrectTheEntry) {
  // Delete races a granted (in-flight) claim: the transfer-finished write
  // that lands after the delete must not recreate locations or crash, and
  // the claimant's reply must already have been delivered.
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  sim_.Run();
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 2);
  // The receiver is now a registered partial and the sender is busy; the
  // framework deletes the object while the bytes are still on the wire.
  dir_.DeleteObject(obj_, nullptr);
  sim_.Run();
  EXPECT_FALSE(dir_.HasObject(obj_));
  // The late completion write finds no entry and must be a clean no-op.
  dir_.TransferFinished(obj_, 2, 5);
  sim_.Run();
  EXPECT_FALSE(dir_.HasObject(obj_));
  EXPECT_EQ(dir_.LocationsOf(obj_), std::vector<NodeID>{});
}

TEST_F(DirectoryTest, DeleteWhileClaimReadInFlightParksOnTheFreshEntry) {
  // The claim's read latency straddles the delete: when the read lands the
  // entry is gone, so the claim parks on the fresh entry and resolves when
  // the object reappears.
  dir_.RegisterPartial(obj_, 2, MB(1));
  dir_.MarkComplete(obj_, 2);
  sim_.Run();
  dir_.DeleteObject(obj_, nullptr);  // write latency 167 us < read latency 177 us
  std::optional<ClaimReply> reply;
  dir_.ClaimSender(obj_, 5, [&](const ClaimReply& r) { reply = r; });
  sim_.Run();
  EXPECT_FALSE(reply.has_value()) << "claim must park, not resolve on a deleted copy";
  dir_.RegisterPartial(obj_, 7, MB(1));
  dir_.MarkComplete(obj_, 7);
  sim_.Run();
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->sender, 7);
}

TEST(DirectoryScaleTest, StaggeredWideBroadcastClaimsExamineOnlyAvailableCopies) {
  // 4095 receivers claim one 32 MB object from node 0, ready over 10 ms.
  // Every grant pipelines off the chain tail, so all copies but one are busy
  // during the claims: a claim must examine the available copies only.
  constexpr int kReceivers = 4095;
  constexpr std::int64_t kBytes = MB(32);
  sim::Simulator sim;
  net::ClusterConfig cfg;
  cfg.num_nodes = kReceivers + 1;
  net::FlatFabric net(sim, cfg);
  ObjectDirectory dir(net, DirectoryConfig{});
  const ObjectID object = ObjectID::FromName("wide");
  dir.RegisterPartial(object, 0, kBytes);
  dir.MarkComplete(object, 0);
  const SimDuration object_time = TransferTime(kBytes, cfg.nic_bandwidth);
  const SimDuration chunk_time = TransferTime(MB(4), cfg.nic_bandwidth);
  std::vector<SimTime> finished(kReceivers + 1, 0);
  Rng rng(1);
  int granted = 0;
  std::size_t longest_chain = 0;
  for (NodeID r = 1; r <= kReceivers; ++r) {
    sim.ScheduleAt(rng.NextInRange(0, Milliseconds(10) - 1), [&, r] {
      dir.ClaimSender(object, r, [&, r](const ClaimReply& reply) {
        ++granted;
        longest_chain = std::max(longest_chain, dir.ChainOf(object, r).size());
        const NodeID sender = reply.sender;
        const SimTime done = std::max(sim.Now() + object_time,
                                      finished[static_cast<std::size_t>(sender)] + chunk_time);
        finished[static_cast<std::size_t>(r)] = done;
        sim.ScheduleAt(done, [&dir, object, sender, r] {
          dir.TransferFinished(object, sender, r);
        });
      });
    });
  }
  sim.Run();
  ASSERT_EQ(granted, kReceivers);
  EXPECT_GT(longest_chain, 1000u) << "the staggered claims should pipeline as one chain";
  const ClaimCounters& counters = dir.claim_counters();
  EXPECT_EQ(counters.picks, static_cast<std::uint64_t>(kReceivers));
  EXPECT_LE(counters.candidates_examined, 2 * counters.picks);
  for (NodeID n = 0; n <= kReceivers; ++n) {
    ASSERT_EQ(dir.StateOf(object, n), LocationState::kAvailableComplete) << "node " << n;
    ASSERT_TRUE(dir.ChainOf(object, n).empty()) << "node " << n;
  }
}

// ---------------------------------------------------------------------------
// Differential oracle: a reference claim path — a full rotated scan of the
// location table and one std::vector chain per location — replayed op by op
// against the real directory, which walks an available-copy index and a
// shared chain arena instead.
// ---------------------------------------------------------------------------

/// What one claim resolved to, in callback order.
struct ClaimOutcome {
  NodeID receiver = kInvalidNode;
  NodeID sender = kInvalidNode;
  bool local_copy = false;
  bool sender_complete = false;

  bool operator==(const ClaimOutcome&) const = default;
};

std::ostream& operator<<(std::ostream& os, const ClaimOutcome& c) {
  return os << "{receiver " << c.receiver << " sender " << c.sender << " local "
            << c.local_copy << " complete " << c.sender_complete << "}";
}

/// Test-local reference model of one non-inline object's directory entry.
class ReferenceEntry {
 public:
  struct Loc {
    LocationState state = LocationState::kAvailablePartial;
    bool complete = false;
    bool fetch_origin = false;
    NodeID serving = kInvalidNode;
    std::vector<NodeID> chain;

    [[nodiscard]] LocationState AvailableState() const {
      return complete ? LocationState::kAvailableComplete : LocationState::kAvailablePartial;
    }
    void Release() {
      state = AvailableState();
      serving = kInvalidNode;
    }
  };

  ReferenceEntry(ObjectID object, bool coalescing) : object_(object), coalescing_(coalescing) {}

  void RegisterPartial(NodeID node) {
    exists_ = true;
    sized_ = true;
    if (locations_.count(node) > 0) return;
    locations_.emplace(node, Loc{});
    ServeParked();
  }
  void MarkComplete(NodeID node) {
    if (!exists_) return;
    auto it = locations_.find(node);
    if (it == locations_.end()) return;
    it->second.chain.clear();
    it->second.complete = true;
    if (it->second.state != LocationState::kBusy) {
      it->second.state = LocationState::kAvailableComplete;
    }
    ServeParked();
  }
  void RegisterCachedCopy(NodeID node) {
    if (!exists_) return;
    Loc& loc = locations_[node];
    loc.complete = true;
    loc.chain.clear();
    loc.fetch_origin = false;
    if (loc.state != LocationState::kBusy) loc.state = LocationState::kAvailableComplete;
    ServeParked();
  }
  void RemoveLocation(NodeID node) {
    if (exists_) locations_.erase(node);
  }
  void Claim(NodeID receiver) {
    exists_ = true;
    if (IsLocal(receiver)) {
      outcomes_.push_back(ClaimOutcome{receiver, receiver, true, false});
      return;
    }
    if (const NodeID sender = PickSender(receiver); sender != kInvalidNode) {
      Grant(sender, receiver);
      return;
    }
    parked_.push_back(receiver);
  }
  void TransferFinished(NodeID sender, NodeID receiver) {
    if (!exists_) return;
    if (auto it = locations_.find(sender); it != locations_.end()) it->second.Release();
    if (auto it = locations_.find(receiver); it != locations_.end()) {
      it->second.chain.clear();
      it->second.complete = true;
      if (it->second.state != LocationState::kBusy) {
        it->second.state = LocationState::kAvailableComplete;
      }
    }
    ServeParked();
  }
  void TransferAborted(NodeID sender, NodeID receiver, bool sender_alive, bool holds_copy) {
    if (!exists_) return;
    if (sender_alive && holds_copy) {
      if (auto it = locations_.find(sender); it != locations_.end()) it->second.Release();
    } else {
      locations_.erase(sender);
    }
    if (auto it = locations_.find(receiver); it != locations_.end()) it->second.chain.clear();
    ServeParked();
  }
  void NodeFailed(NodeID node) {
    if (!exists_) return;
    locations_.erase(node);
    for (auto& [n, loc] : locations_) {
      if (loc.state == LocationState::kBusy && loc.serving == node) loc.Release();
    }
    parked_.erase(std::remove(parked_.begin(), parked_.end(), node), parked_.end());
    ServeParked();
  }

  [[nodiscard]] const Loc* Find(NodeID node) const {
    const auto it = locations_.find(node);
    return it == locations_.end() ? nullptr : &it->second;
  }
  [[nodiscard]] const std::vector<ClaimOutcome>& outcomes() const { return outcomes_; }
  [[nodiscard]] bool sized() const { return sized_; }

 private:
  [[nodiscard]] bool IsLocal(NodeID receiver) const {
    const Loc* self = Find(receiver);
    return self != nullptr &&
           (!self->fetch_origin || self->state == LocationState::kAvailableComplete);
  }

  // The pre-index scan: every location visited from the rotated start.
  [[nodiscard]] NodeID PickSender(NodeID receiver) const {
    std::vector<std::pair<NodeID, const Loc*>> table;
    for (const auto& [node, loc] : locations_) table.emplace_back(node, &loc);
    const std::size_t n = table.size();
    if (n == 0) return kInvalidNode;
    std::uint64_t x = object_.value() + 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    const std::size_t start = static_cast<std::size_t>((x ^ (x >> 31)) % n);
    NodeID best_partial = kInvalidNode;
    for (std::size_t i = 0; i < n; ++i) {
      const auto& [node, loc] = table[(start + i) % n];
      if (node == receiver) continue;
      if (loc->state == LocationState::kBusy) continue;
      if (loc->state == LocationState::kAvailableComplete) return node;
      if (best_partial != kInvalidNode) continue;
      if (coalescing_ && loc->fetch_origin) continue;
      if (std::find(loc->chain.begin(), loc->chain.end(), receiver) != loc->chain.end()) {
        continue;
      }
      best_partial = node;
    }
    return best_partial;
  }

  void Grant(NodeID sender, NodeID receiver) {
    Loc& from = locations_.at(sender);
    std::vector<NodeID> chain = from.chain;
    chain.push_back(sender);
    outcomes_.push_back(ClaimOutcome{receiver, sender, false,
                                     from.state == LocationState::kAvailableComplete});
    from.state = LocationState::kBusy;
    from.serving = receiver;
    Loc& to = locations_[receiver];
    if (!to.complete) to.chain = std::move(chain);
    to.fetch_origin = true;
  }

  void ServeParked() {
    while (!parked_.empty()) {
      const NodeID receiver = parked_.front();
      if (IsLocal(receiver)) {
        parked_.pop_front();
        outcomes_.push_back(ClaimOutcome{receiver, receiver, true, false});
        continue;
      }
      const NodeID sender = PickSender(receiver);
      if (sender == kInvalidNode) return;
      parked_.pop_front();
      Grant(sender, receiver);
    }
  }

  ObjectID object_;
  bool coalescing_;
  bool exists_ = false;
  bool sized_ = false;
  std::map<NodeID, Loc> locations_;
  std::deque<NodeID> parked_;
  std::vector<ClaimOutcome> outcomes_;
};

void RunDifferentialSequence(std::uint64_t seed) {
  constexpr int kNodes = 12;
  constexpr int kOps = 80;
  Rng rng(seed);
  const bool coalescing = seed % 2 == 1;
  sim::Simulator sim;
  net::ClusterConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.cache.coalescing = coalescing;
  net::FlatFabric net(sim, cfg);
  ObjectDirectory dir(net, DirectoryConfig{});
  const std::vector<ObjectID> objects{ObjectID::FromName("oracle-a"),
                                      ObjectID::FromName("oracle-b")};
  std::vector<ReferenceEntry> model;
  std::vector<std::vector<ClaimOutcome>> got(objects.size());
  for (const ObjectID object : objects) model.emplace_back(object, coalescing);
  struct Transfer {
    std::size_t object;
    NodeID sender;
    NodeID receiver;
  };
  std::vector<Transfer> in_flight;
  const auto node = [&] { return static_cast<NodeID>(rng.NextBounded(kNodes)); };
  // A granted transfer half the time, otherwise an arbitrary (often stale) pair.
  const auto transfer = [&](std::size_t o) {
    if (!in_flight.empty() && rng.NextBounded(2) == 0) {
      const std::size_t i = rng.NextBounded(in_flight.size());
      const Transfer t = in_flight[i];
      in_flight.erase(in_flight.begin() + static_cast<std::ptrdiff_t>(i));
      return t;
    }
    return Transfer{o, node(), node()};
  };

  for (int op = 0; op < kOps; ++op) {
    const std::size_t o = rng.NextBounded(objects.size());
    const ObjectID object = objects[o];
    std::uint64_t kind = rng.NextBounded(100);
    // A cached copy is of an inline object, whose size is always known.
    if (kind >= 94 && !model[o].sized()) kind = 0;
    std::ostringstream what;
    if (kind < 12) {
      const NodeID n = node();
      what << "RegisterPartial " << n;
      dir.RegisterPartial(object, n, MB(1));
      model[o].RegisterPartial(n);
    } else if (kind < 20) {
      const NodeID n = node();
      what << "MarkComplete " << n;
      dir.MarkComplete(object, n);
      model[o].MarkComplete(n);
    } else if (kind < 50) {
      const NodeID r = node();
      what << "ClaimSender " << r;
      dir.ClaimSender(object, r, [&got, &in_flight, o, r](const ClaimReply& reply) {
        got[o].push_back(ClaimOutcome{r, reply.sender, reply.local_copy, reply.sender_complete});
        if (!reply.local_copy) in_flight.push_back(Transfer{o, reply.sender, r});
      });
      model[o].Claim(r);
    } else if (kind < 68) {
      const Transfer t = transfer(o);
      what << "TransferFinished " << t.sender << " -> " << t.receiver;
      dir.TransferFinished(objects[t.object], t.sender, t.receiver);
      model[t.object].TransferFinished(t.sender, t.receiver);
    } else if (kind < 82) {
      const Transfer t = transfer(o);
      // Sender alive, dead, or alive without its copy.
      const std::uint64_t mode = rng.NextBounded(3);
      what << "TransferAborted " << t.sender << " -> " << t.receiver << " mode " << mode;
      dir.TransferAborted(objects[t.object], t.sender, t.receiver, mode != 1, mode != 2);
      model[t.object].TransferAborted(t.sender, t.receiver, mode != 1, mode != 2);
    } else if (kind < 89) {
      const NodeID n = node();
      what << "RemoveLocation " << n;
      dir.RemoveLocation(object, n);
      model[o].RemoveLocation(n);
    } else if (kind < 94) {
      const NodeID n = node();
      what << "NodeFailed " << n;
      dir.NodeFailed(n);
      for (auto& entry : model) entry.NodeFailed(n);
    } else {
      const NodeID n = node();
      what << "RegisterCachedCopy " << n;
      dir.RegisterCachedCopy(object, n);
      model[o].RegisterCachedCopy(n);
    }
    sim.Run();
    dir.AuditDirectory();
    SCOPED_TRACE(::testing::Message() << "seed " << seed << " op " << op << ": " << what.str());
    for (std::size_t i = 0; i < objects.size(); ++i) {
      ASSERT_EQ(got[i], model[i].outcomes()) << "object " << i;
      for (NodeID n = 0; n < kNodes; ++n) {
        const ReferenceEntry::Loc* loc = model[i].Find(n);
        ASSERT_EQ(dir.StateOf(objects[i], n),
                  loc == nullptr ? std::nullopt : std::optional<LocationState>(loc->state))
            << "object " << i << " node " << n;
        ASSERT_EQ(dir.ChainOf(objects[i], n), loc == nullptr ? std::vector<NodeID>{} : loc->chain)
            << "object " << i << " node " << n;
      }
    }
  }
}

TEST(DirectoryOracleTest, ClaimPathMatchesTheFullScanReference) {
  for (std::uint64_t seed = 1; seed <= 240; ++seed) {
    RunDifferentialSequence(seed);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace hoplite::directory
