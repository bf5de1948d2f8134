// Unit tests for the pluggable store replacement policies: LRU recency
// order, 2Q's ghost-proven promotion and scan resistance, segmented LRU's
// probation/protected split and tail demotion, and an oracle sweep holding
// every policy's victim to the back-to-front scan it replaced.
#include "cache/eviction_policy.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "reference_eviction_policies.h"

namespace hoplite::cache {
namespace {

const ObjectID kA = ObjectID::FromName("a");
const ObjectID kB = ObjectID::FromName("b");
const ObjectID kC = ObjectID::FromName("c");

/// Inserts an entry the store has already judged evictable (a complete,
/// unreferenced copy).
void InsertEvictable(EvictionPolicy& policy, ObjectID object, std::int64_t bytes) {
  policy.OnInsert(object, bytes);
  policy.SetEvictable(object, true);
}

TEST(LruPolicyTest, EvictsLeastRecentlyUsed) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kLru, KB(4));
  InsertEvictable(*policy, kA, KB(1));
  InsertEvictable(*policy, kB, KB(1));
  InsertEvictable(*policy, kC, KB(1));
  EXPECT_EQ(policy->PickVictim(), kA);

  policy->OnTouch(kA);  // a is now the most recent; b becomes the tail
  EXPECT_EQ(policy->PickVictim(), kB);

  policy->OnRemove(kB, RemovalCause::kErased);
  EXPECT_EQ(policy->PickVictim(), kC);
  EXPECT_EQ(policy->size(), 2u);
  EXPECT_FALSE(policy->Contains(kB));
}

TEST(LruPolicyTest, VictimSkipsPinnedEntries) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kLru, KB(4));
  policy->OnInsert(kA, KB(1));
  InsertEvictable(*policy, kB, KB(1));
  // The LRU tail is pinned: the pick must pass over it, not give up.
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->SetEvictable(kB, false);
  EXPECT_EQ(policy->PickVictim(), std::nullopt);
  EXPECT_TRUE(policy->EvictableObjects().empty());
  // Unpinning the tail makes it the victim again.
  policy->SetEvictable(kA, true);
  EXPECT_EQ(policy->PickVictim(), kA);
  EXPECT_EQ(policy->EvictableObjects(), std::vector<ObjectID>{kA});
}

TEST(TwoQPolicyTest, GhostHitPromotesAndScansSpareTheMainQueue) {
  // capacity 1000 -> A1in target 250, ghost budget 2000.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kTwoQ, 1000);

  // First life of `a`: probationary, evicted, leaves a ghost.
  InsertEvictable(*policy, kA, 200);
  EXPECT_EQ(policy->PickVictim(), kA);
  policy->OnRemove(kA, RemovalCause::kEvicted);

  // Second life: the ghost proves reuse -> straight into the main queue.
  InsertEvictable(*policy, kA, 200);

  // A one-touch scan overflows A1in; victims must come from the scan
  // entries (FIFO oldest first), never from the proven-hot main queue.
  InsertEvictable(*policy, kB, 200);
  InsertEvictable(*policy, kC, 200);
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->OnTouch(kB);  // a second access proves reuse: b escapes A1in into Am
  // Promotion brought A1in back under target, so the 2Q rule bills Am —
  // whose LRU tail is the ghost-promoted a, not the freshly touched b.
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(TwoQPolicyTest, ErasedEntriesLeaveNoGhost) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kTwoQ, 1000);
  InsertEvictable(*policy, kA, 200);
  policy->OnRemove(kA, RemovalCause::kErased);  // deleted, not evicted

  // A recreated id must start probationary again, not inherit hotness.
  InsertEvictable(*policy, kA, 200);
  InsertEvictable(*policy, kB, 200);
  EXPECT_EQ(policy->PickVictim(), kA);  // FIFO: a is the older probationer
}

TEST(SegmentedLruPolicyTest, VictimsComeFromProbationFirst) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  InsertEvictable(*policy, kA, 100);
  InsertEvictable(*policy, kB, 100);
  policy->OnTouch(kA);  // a earns the protected segment

  // b is older than nothing in protection; the untouched probationer goes.
  EXPECT_EQ(policy->PickVictim(), kB);
  policy->OnRemove(kB, RemovalCause::kEvicted);

  // Only protected entries left: the pick falls back to them.
  EXPECT_EQ(policy->PickVictim(), kA);
}

TEST(SegmentedLruPolicyTest, ProtectedOverflowDemotesItsTail) {
  // capacity 1000 -> protected target 800.
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  InsertEvictable(*policy, kA, 300);
  InsertEvictable(*policy, kB, 300);
  InsertEvictable(*policy, kC, 300);
  policy->OnTouch(kA);
  policy->OnTouch(kB);
  policy->OnTouch(kC);  // 900 bytes protected -> the oldest (a) is demoted

  // a re-entered probation; c and b stay protected, so a is the victim.
  EXPECT_EQ(policy->PickVictim(), kA);
  policy->OnRemove(kA, RemovalCause::kEvicted);
  EXPECT_EQ(policy->PickVictim(), kB);
}

TEST(SegmentedLruPolicyTest, PinnedProtectedTailIsStillDemoted) {
  const auto policy = MakeEvictionPolicy(EvictionPolicyKind::kSegmentedLru, 1000);
  policy->OnInsert(kA, 300);  // pinned throughout
  InsertEvictable(*policy, kB, 300);
  InsertEvictable(*policy, kC, 300);
  policy->OnTouch(kA);
  policy->OnTouch(kB);
  policy->OnTouch(kC);  // demotes a although it is not evictable
  const ObjectID d = ObjectID::FromName("d");
  InsertEvictable(*policy, d, 100);
  EXPECT_EQ(policy->PickVictim(), d);  // probation: d, then the pinned a
  policy->SetEvictable(kA, true);
  EXPECT_EQ(policy->PickVictim(), kA);  // a is probation's tail, behind d
}

// Oracle: random call sequences against the predicate-scan policies the
// stamp-ordered ones replaced. Sizes straddle 2Q's A1in target (250) and
// SLRU's protected target (800) at capacity 1000; a quarter of the ids are
// primaries the store never marks evictable.
class EvictionOracleTest : public ::testing::TestWithParam<EvictionPolicyKind> {};

TEST_P(EvictionOracleTest, VictimMatchesTheReferenceScanAfterEveryCall) {
  constexpr std::int64_t kCapacity = 1000;
  constexpr int kSequences = 210;
  constexpr int kOps = 300;
  constexpr int kIds = 24;
  const EvictionPolicyKind kind = GetParam();
  std::vector<ObjectID> ids;
  for (int i = 0; i < kIds; ++i) ids.push_back(ObjectID::FromName("oracle").WithIndex(i));
  const auto is_primary = [](int i) { return i % 4 == 0; };

  for (int seq = 0; seq < kSequences; ++seq) {
    Rng rng(static_cast<std::uint64_t>(seq) + 1);
    const auto policy = MakeEvictionPolicy(kind, kCapacity);
    testing::ReferencePolicy reference(kind, kCapacity);
    std::vector<int> state(kIds, 0);  // 0 absent, 1 pinned, 2 evictable
    for (int op = 0; op < kOps; ++op) {
      const int i = static_cast<int>(rng.NextBounded(kIds));
      const ObjectID id = ids[static_cast<std::size_t>(i)];
      const double draw = rng.NextDouble();
      std::string what;
      if (state[i] == 0) {
        const std::int64_t bytes = rng.NextInRange(20, 320);
        policy->OnInsert(id, bytes);
        reference.OnInsert(id, bytes);
        state[i] = 1;
        what = "insert";
      } else if (draw < 0.35) {
        policy->OnTouch(id);
        reference.OnTouch(id);
        what = "touch";
      } else if (draw < 0.6 && !is_primary(i)) {
        const bool evictable = state[i] == 1;
        policy->SetEvictable(id, evictable);
        reference.SetEvictable(id, evictable);
        state[i] = evictable ? 2 : 1;
        what = evictable ? "unpin" : "pin";
      } else if (draw < 0.85) {
        // The store's eviction: remove the victim both agree on.
        const auto victim = reference.PickVictim();
        if (!victim.has_value()) continue;
        policy->OnRemove(*victim, RemovalCause::kEvicted);
        reference.OnRemove(*victim, RemovalCause::kEvicted);
        for (int j = 0; j < kIds; ++j) {
          if (ids[static_cast<std::size_t>(j)] == *victim) state[j] = 0;
        }
        what = "evict";
      } else {
        const auto cause = draw < 0.93 ? RemovalCause::kErased : RemovalCause::kEvicted;
        policy->OnRemove(id, cause);
        reference.OnRemove(id, cause);
        state[i] = 0;
        what = cause == RemovalCause::kErased ? "erase" : "remove-evicted";
      }
      ASSERT_EQ(policy->PickVictim(), reference.PickVictim())
          << PolicyName(kind) << " sequence " << seq << " op " << op << " (" << what << ")";
      ASSERT_EQ(policy->EvictableObjects(), reference.EvictableObjects())
          << PolicyName(kind) << " sequence " << seq << " op " << op;
      ASSERT_EQ(policy->size(), reference.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, EvictionOracleTest,
                         ::testing::Values(EvictionPolicyKind::kLru,
                                           EvictionPolicyKind::kTwoQ,
                                           EvictionPolicyKind::kSegmentedLru),
                         [](const ::testing::TestParamInfo<EvictionPolicyKind>& info) {
                           return std::string(PolicyName(info.param)) == "2q"
                                      ? std::string("twoq")
                                      : std::string(PolicyName(info.param));
                         });

}  // namespace
}  // namespace hoplite::cache
