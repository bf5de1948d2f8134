// Pluggable replacement policies for the local object store.
//
// LocalStore used to hard-wire one intrusive LRU list; this interface
// extracts the ordering decision so policies can be swapped per cluster
// (`CacheConfig::policy`) without touching the store's byte accounting or
// pin semantics. The store stays in charge of *whether* an entry may be
// evicted (complete, unreferenced, not a primary) and *when* eviction runs
// (over capacity); the policy only answers *which* candidate goes first.
//
// Contract:
//   * OnInsert / OnRemove bracket an entry's lifetime in the store; every
//     tracked entry appears in exactly one policy queue. Entries start
//     non-evictable; OnRemove also drops evictable ones.
//   * OnTouch records a use (Get served locally, chunk appended, entry
//     completed) and may reorder or promote the entry.
//   * SetEvictable(object, flag) is the store's verdict on whether the
//     entry may be evicted now (complete, unreferenced, not a primary). The
//     store calls it only when that verdict flips, and only if it has a
//     capacity to enforce; a store without one never evicts.
//   * PickVictim returns the evictable entry the policy would evict first,
//     or nullopt when none is. It never mutates policy state: the store
//     confirms the eviction by calling OnRemove(victim, kEvicted).
//
// Every queue only gains entries at its front (insert, or a splice on touch,
// promotion or demotion), and each front arrival takes the next value of a
// per-policy monotone stamp, so a queue is ordered by stamp from front
// (newest) to back (oldest). Each queue keeps its evictable members in a
// stamp-ordered set beside the full order, so its oldest evictable entry
// is the set's first: exactly the entry a back-to-front scan that skips
// pinned entries would reach, found without visiting the pinned ones.
//
// Every policy is deterministic by construction: ordering state lives in
// std::list queues (order fixed by the call sequence) indexed by
// det::Map — no hashing, no ambient state, no clocks.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <optional>
#include <vector>

#include "cache/cache_config.h"
#include "common/annotations.h"
#include "common/det.h"
#include "common/ids.h"

namespace hoplite::cache {

/// Why an entry left the store: policies that keep history (2Q's ghost
/// queue) only record entries the store *evicted*; explicit deletes and
/// failure cleanup must not leave promotion breadcrumbs behind.
enum class RemovalCause {
  kEvicted,  ///< store chose this entry via PickVictim to reclaim capacity
  kErased,   ///< deleted, purged, or torn down — not a capacity decision
};

/// Replacement-order oracle for one LocalStore. Confined like the store
/// that owns it: all calls arrive from the store's own domain.
class HOPLITE_DOMAIN_CONFINED EvictionPolicy {
 public:
  virtual ~EvictionPolicy() = default;

  virtual void OnInsert(ObjectID object, std::int64_t bytes) = 0;
  virtual void OnTouch(ObjectID object) = 0;
  virtual void OnRemove(ObjectID object, RemovalCause cause) = 0;

  /// Marks a tracked entry evictable or pinned; `evictable` must differ
  /// from the entry's current mark.
  virtual void SetEvictable(ObjectID object, bool evictable) = 0;

  /// First evictable entry in policy order, or nullopt if none is.
  [[nodiscard]] virtual std::optional<ObjectID> PickVictim() const = 0;

  /// Ids of the entries currently marked evictable, ascending (store
  /// audits compare it with the store's own evictability).
  [[nodiscard]] virtual std::vector<ObjectID> EvictableObjects() const = 0;

  /// Number of tracked entries (store audits check it matches the table).
  [[nodiscard]] virtual std::size_t size() const = 0;

  /// True if `object` is currently tracked (store audits).
  [[nodiscard]] virtual bool Contains(ObjectID object) const = 0;

  [[nodiscard]] virtual EvictionPolicyKind kind() const = 0;
};

/// Constructs the policy selected by `kind`. `capacity_bytes` sizes the
/// internal segments of the multi-queue policies (2Q's probationary target
/// and ghost budget, SLRU's protected segment); plain LRU ignores it.
[[nodiscard]] std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                                 std::int64_t capacity_bytes);

}  // namespace hoplite::cache
