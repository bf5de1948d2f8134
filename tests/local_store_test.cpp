// Unit tests for the per-node object store.
#include "store/local_store.h"

#include <gtest/gtest.h>

#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "reference_eviction_policies.h"

namespace hoplite::store {
namespace {

const ObjectID kObj = ObjectID::FromName("x");
const ObjectID kObj2 = ObjectID::FromName("y");

TEST(LocalStoreTest, CreateAdvanceComplete) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(8), CopyKind::kPrimary, MB(4));
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_FALSE(store.IsComplete(kObj));
  EXPECT_EQ(store.ChunksReady(kObj), 0);

  store.AdvanceChunks(kObj, 1);
  EXPECT_EQ(store.ChunksReady(kObj), 1);

  store.MarkComplete(kObj, Buffer::OfSize(MB(8)));
  EXPECT_TRUE(store.IsComplete(kObj));
  EXPECT_EQ(store.ChunksReady(kObj), 2);
  EXPECT_EQ(store.PayloadOf(kObj).size(), MB(8));
}

TEST(LocalStoreTest, AdvanceIsMonotone) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  store.AdvanceChunks(kObj, 3);
  store.AdvanceChunks(kObj, 1);  // ignored
  EXPECT_EQ(store.ChunksReady(kObj), 3);
}

TEST(LocalStoreTest, ChunkProgressSubscription) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  std::vector<std::int64_t> seen;
  store.OnChunkProgress(kObj, [&](std::int64_t c) { seen.push_back(c); });
  store.AdvanceChunks(kObj, 2);
  store.AdvanceChunks(kObj, 4);
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2, 4}));
}

TEST(LocalStoreTest, ChunkSubscriptionFiresImmediatelyIfProgressExists) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  store.AdvanceChunks(kObj, 2);
  std::vector<std::int64_t> seen;
  store.OnChunkProgress(kObj, [&](std::int64_t c) { seen.push_back(c); });
  EXPECT_EQ(seen, (std::vector<std::int64_t>{2}));
}

TEST(LocalStoreTest, CompletionSubscription) {
  LocalStore store(0);
  store.CreatePartial(kObj, 100, CopyKind::kPrimary, MB(4));
  int fired = 0;
  store.OnCompletion(kObj, [&](const Buffer& b) {
    EXPECT_EQ(b.size(), 100);
    ++fired;
  });
  store.MarkComplete(kObj, Buffer::OfSize(100));
  EXPECT_EQ(fired, 1);
  // Subscribing after completion fires immediately.
  store.OnCompletion(kObj, [&](const Buffer&) { ++fired; });
  EXPECT_EQ(fired, 2);
}

TEST(LocalStoreTest, UnsubscribeStopsCallbacks) {
  LocalStore store(0);
  store.CreatePartial(kObj, MB(16), CopyKind::kReplica, MB(4));
  int fired = 0;
  const auto token = store.OnChunkProgress(kObj, [&](std::int64_t) { ++fired; });
  store.Unsubscribe(kObj, token);
  store.AdvanceChunks(kObj, 2);
  EXPECT_EQ(fired, 0);
}

TEST(LocalStoreTest, RemoveDropsEntry) {
  LocalStore store(0);
  store.CreatePartial(kObj, 100, CopyKind::kPrimary, MB(4));
  EXPECT_EQ(store.used_bytes(), 100);
  store.Remove(kObj);
  EXPECT_FALSE(store.Contains(kObj));
  EXPECT_EQ(store.used_bytes(), 0);
  store.Remove(kObj);  // idempotent
}

TEST(LocalStoreTest, LruEvictsOnlyUnpinnedReplicas) {
  LocalStore store(0, /*capacity_bytes=*/MB(10));
  // Primary: never evicted.
  store.CreatePartial(kObj, MB(6), CopyKind::kPrimary, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  // Replica: evictable once complete.
  store.CreatePartial(kObj2, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj2, Buffer::OfSize(MB(6)));
  // Over capacity (12 MB > 10 MB): the replica must have been evicted.
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_FALSE(store.Contains(kObj2));
  EXPECT_EQ(store.evictions(), 1u);
}

TEST(LocalStoreTest, EvictionSkipsReferencedEntries) {
  LocalStore store(0, MB(10));
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  store.Ref(kObj);
  store.CreatePartial(kObj2, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj2, Buffer::OfSize(MB(6)));
  // kObj is referenced; kObj2 (more recent) must be the victim.
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_FALSE(store.Contains(kObj2));
  store.Unref(kObj);
}

TEST(LocalStoreTest, EvictionSkipsPartialEntries) {
  LocalStore store(0, MB(10));
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));   // stays partial
  store.CreatePartial(kObj2, MB(6), CopyKind::kReplica, MB(4));  // stays partial
  // Nothing is evictable; the store stays over capacity rather than dropping
  // in-flight data.
  EXPECT_TRUE(store.Contains(kObj));
  EXPECT_TRUE(store.Contains(kObj2));
  EXPECT_EQ(store.evictions(), 0u);
}

TEST(LocalStoreTest, LruOrderRespectsTouch) {
  LocalStore store(0, MB(12));
  const ObjectID a = ObjectID::FromName("a");
  const ObjectID b = ObjectID::FromName("b");
  store.CreatePartial(a, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(a, Buffer::OfSize(MB(6)));
  store.CreatePartial(b, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(b, Buffer::OfSize(MB(6)));
  store.Touch(a);  // now b is least-recently-used
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  EXPECT_TRUE(store.Contains(a));
  EXPECT_FALSE(store.Contains(b));
}

TEST(LocalStoreTest, UnrefAfterRemoveIsSafe) {
  LocalStore store(0);
  store.CreatePartial(kObj, 100, CopyKind::kReplica, MB(4));
  store.Ref(kObj);
  store.Remove(kObj);  // Delete can race with an in-flight send
  store.Unref(kObj);   // must not crash
  EXPECT_FALSE(store.Contains(kObj));
}

TEST(LocalStoreTest, ListObjects) {
  LocalStore store(0);
  store.CreatePartial(kObj, 1, CopyKind::kPrimary, MB(4));
  store.CreatePartial(kObj2, 2, CopyKind::kPrimary, MB(4));
  EXPECT_EQ(store.ListObjects().size(), 2u);
}

TEST(LocalStoreTest, EmptyObjectCompletes) {
  LocalStore store(0);
  store.CreatePartial(kObj, 0, CopyKind::kPrimary, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(0));
  EXPECT_TRUE(store.IsComplete(kObj));
  EXPECT_EQ(store.ChunksReady(kObj), 1);  // the single empty chunk
}

/// Forwards to a wrapped policy, counting victim picks and recording the
/// order of capacity evictions.
class CountingPolicy final : public cache::EvictionPolicy {
 public:
  struct Log {
    std::uint64_t picks = 0;
    std::vector<ObjectID> evicted;
  };

  CountingPolicy(std::unique_ptr<cache::EvictionPolicy> inner, Log& log)
      : inner_(std::move(inner)), log_(log) {}

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    inner_->OnInsert(object, bytes);
  }
  void OnTouch(ObjectID object) override { inner_->OnTouch(object); }
  void OnRemove(ObjectID object, cache::RemovalCause cause) override {
    if (cause == cache::RemovalCause::kEvicted) log_.evicted.push_back(object);
    inner_->OnRemove(object, cause);
  }
  void SetEvictable(ObjectID object, bool evictable) override {
    inner_->SetEvictable(object, evictable);
  }
  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    ++log_.picks;
    return inner_->PickVictim();
  }
  [[nodiscard]] std::vector<ObjectID> EvictableObjects() const override {
    return inner_->EvictableObjects();
  }
  [[nodiscard]] std::size_t size() const override { return inner_->size(); }
  [[nodiscard]] bool Contains(ObjectID object) const override {
    return inner_->Contains(object);
  }
  [[nodiscard]] cache::EvictionPolicyKind kind() const override { return inner_->kind(); }

 private:
  std::unique_ptr<cache::EvictionPolicy> inner_;
  Log& log_;
};

/// A no-GC churn store: 1000 ops on a 48 MB LRU store over the 256 KB /
/// 1 MB / 4 MB size mix, 45% pinned primary Puts, the rest fetched replicas,
/// and a quarter of the draws re-reading an earlier object. Returns the
/// store so callers can inspect where it ended.
std::unique_ptr<LocalStore> RunChurn(std::unique_ptr<cache::EvictionPolicy> policy,
                                     CountingPolicy::Log& log) {
  constexpr std::int64_t kCapacity = MB(48);
  auto store = std::make_unique<LocalStore>(
      0, kCapacity, std::make_unique<CountingPolicy>(std::move(policy), log));
  Rng rng(16);
  std::vector<ObjectID> seen;
  for (int i = 0; i < 1000; ++i) {
    const double draw = rng.NextDouble();
    const double size_draw = rng.NextDouble();
    const std::int64_t bytes = size_draw < 0.5 ? KB(256) : size_draw < 0.9 ? MB(1) : MB(4);
    if (draw >= 0.75 && !seen.empty()) {
      const ObjectID again = seen[rng.NextBounded(seen.size())];
      if (store->Contains(again)) {
        store->Touch(again);
        continue;
      }
    }
    const ObjectID object = ObjectID::FromName("churn").WithIndex(i);
    store->CreatePartial(object, bytes, draw < 0.45 ? CopyKind::kPrimary : CopyKind::kReplica,
                         MB(4));
    store->MarkComplete(object, Buffer::OfSize(bytes));
    store->AuditAccounting();
    seen.push_back(object);
  }
  return store;
}

TEST(LocalStoreEvictionWorkTest, OnePickPerEvictionAndTheReferenceScansOrder) {
  CountingPolicy::Log log;
  const auto store =
      RunChurn(cache::MakeEvictionPolicy(cache::EvictionPolicyKind::kLru, MB(48)), log);
  // Every pick found a victim: the store asks only while something is
  // evictable, never to learn that nothing is.
  EXPECT_GT(store->evictions(), 100u);
  EXPECT_EQ(log.picks, store->evictions());
  EXPECT_EQ(log.evicted.size(), store->evictions());
  // Pinned primaries alone outgrow the store; it overshoots instead of
  // dropping them, with nothing evictable left.
  EXPECT_GT(store->used_bytes(), store->capacity_bytes());
  EXPECT_TRUE(store->policy().EvictableObjects().empty());

  CountingPolicy::Log reference_log;
  const auto reference =
      RunChurn(std::make_unique<cache::testing::ReferencePolicy>(
                   cache::EvictionPolicyKind::kLru, MB(48)),
               reference_log);
  EXPECT_EQ(log.evicted, reference_log.evicted);
  EXPECT_EQ(store->ListObjects(), reference->ListObjects());
}

TEST(LocalStoreEvictionWorkTest, RefPinsAndUnrefReleasesForEviction) {
  CountingPolicy::Log log;
  auto lru = cache::MakeEvictionPolicy(cache::EvictionPolicyKind::kLru, MB(10));
  LocalStore store(0, MB(10), std::make_unique<CountingPolicy>(std::move(lru), log));
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  EXPECT_EQ(store.policy().EvictableObjects(), std::vector<ObjectID>{kObj});
  store.Ref(kObj);
  store.Ref(kObj);
  EXPECT_TRUE(store.policy().EvictableObjects().empty());
  store.CreatePartial(kObj2, MB(6), CopyKind::kPrimary, MB(4));
  store.MarkComplete(kObj2, Buffer::OfSize(MB(6)));
  EXPECT_EQ(log.picks, 0u);  // over capacity, but nothing evictable to ask for
  store.Unref(kObj);
  EXPECT_TRUE(store.Contains(kObj));  // still referenced once
  store.Unref(kObj);                  // last reference: evicted at once
  EXPECT_FALSE(store.Contains(kObj));
  EXPECT_EQ(log.picks, 1u);
  EXPECT_EQ(log.evicted, std::vector<ObjectID>{kObj});
  store.AuditAccounting();
}

TEST(LocalStoreEvictionWorkTest, UncappedStoreNeverMarksItsPolicy) {
  // A store without a capacity never evicts, so its policy is never called:
  // inserts, touches, evictable marks and removals all bypass it.
  LocalStore store(0);
  store.CreatePartial(kObj, MB(6), CopyKind::kReplica, MB(4));
  store.MarkComplete(kObj, Buffer::OfSize(MB(6)));
  store.CreatePartial(kObj2, MB(2), CopyKind::kPrimary, MB(4));
  store.MarkComplete(kObj2, Buffer::OfSize(MB(2)));
  store.Touch(kObj);
  store.Touch(kObj2);
  EXPECT_EQ(store.policy().size(), 0u);
  EXPECT_TRUE(store.policy().EvictableObjects().empty());
  store.AuditAccounting();
  store.Ref(kObj);
  store.Unref(kObj);
  store.Remove(kObj);
  store.AuditAccounting();
}

}  // namespace
}  // namespace hoplite::store
