// Test-only reference eviction policies: the predicate-scan LRU, 2Q and
// segmented LRU that the production policies (src/cache/eviction_policy.cc)
// replaced. Each PickVictim walks a queue from its eviction end and returns
// the first entry the predicate accepts; `ReferencePolicy` adapts them to
// the SetEvictable interface by keeping the evictable set and scanning with
// membership in it. Oracle tests drive a reference and a production policy
// with one call sequence and require the same victim after every call.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <list>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "cache/eviction_policy.h"
#include "common/det.h"
#include "common/logging.h"

namespace hoplite::cache::testing {
namespace scan {

/// The replaced interface: the victim pick takes the store's predicate.
class ScanPolicy {
 public:
  using Predicate = std::function<bool(ObjectID)>;
  virtual ~ScanPolicy() = default;
  virtual void OnInsert(ObjectID object, std::int64_t bytes) = 0;
  virtual void OnTouch(ObjectID object) = 0;
  virtual void OnRemove(ObjectID object, RemovalCause cause) = 0;
  [[nodiscard]] virtual std::optional<ObjectID> PickVictim(
      const Predicate& evictable) const = 0;
  [[nodiscard]] virtual std::size_t size() const = 0;
  [[nodiscard]] virtual bool Contains(ObjectID object) const = 0;
};

/// Queue node shared by every policy: the id plus the byte size the store
/// reported at insert, so segmented policies can budget segments in bytes.
struct QueueEntry {
  ObjectID id;
  std::int64_t bytes = 0;
};

using Queue = std::list<QueueEntry>;

/// Scans `queue` from its eviction end (back) toward the front, returning
/// the first entry the store accepts.
[[nodiscard]] inline std::optional<ObjectID> ScanForVictim(
    const Queue& queue, const ScanPolicy::Predicate& evictable) {
  for (auto it = queue.rbegin(); it != queue.rend(); ++it) {
    if (evictable(it->id)) return it->id;
  }
  return std::nullopt;
}

/// Classic LRU: inserts and touches go to the MRU front, victims are
/// scanned from the LRU back.
class LruPolicy final : public ScanPolicy {
 public:
  void OnInsert(ObjectID object, std::int64_t bytes) override {
    const auto [it, inserted] = index_.emplace(object, Queue::iterator{});
    HOPLITE_CHECK(inserted) << "LruPolicy: duplicate insert of " << object;
    lru_.push_front(QueueEntry{object, bytes});
    it->second = lru_.begin();
  }

  void OnTouch(ObjectID object) override {
    auto& pos = index_.at(object);
    lru_.splice(lru_.begin(), lru_, pos);
    pos = lru_.begin();
  }

  void OnRemove(ObjectID object, RemovalCause /*cause*/) override {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << "LruPolicy: remove of untracked " << object;
    lru_.erase(it->second);
    index_.erase(it);
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim(
      const Predicate& evictable) const override {
    return ScanForVictim(lru_, evictable);
  }

  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool Contains(ObjectID object) const override { return index_.contains(object); }

 private:
  Queue lru_;  // front = MRU, back = LRU
  det::Map<ObjectID, Queue::iterator> index_;
};

/// 2Q (after Johnson & Shasha). New entries enter a FIFO probationary
/// queue (A1in); entries evicted from it leave a ghost breadcrumb (A1out,
/// ids only); a re-insert that hits the ghost proves reuse and goes
/// straight to the LRU main queue (Am). One-hit-wonder tails flow through
/// A1in without ever displacing the hot set — the scan resistance plain
/// LRU lacks. Unlike the paper's correlated-reference rule, a hit inside
/// A1in promotes immediately: in a store whose re-reads arrive from
/// independent ops spread across nodes, a second access IS the reuse
/// proof, and deferring promotion until after an eviction forfeits a hit
/// per hot object for nothing.
class TwoQPolicy final : public ScanPolicy {
 public:
  // A ghost is an id, not a payload: its budget is denominated in the bytes
  // of the objects it remembers, so 2x capacity of breadcrumbs costs almost
  // nothing while giving the hot set a long enough memory to be re-proven
  // after an A1in eviction (cap/2 forgets a zipf head faster than it
  // re-accesses under scan pressure).
  explicit TwoQPolicy(std::int64_t capacity_bytes)
      : a1in_target_bytes_(capacity_bytes / 4), ghost_budget_bytes_(capacity_bytes * 2) {}

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    const auto [it, inserted] = index_.emplace(object, Slot{});
    HOPLITE_CHECK(inserted) << "TwoQPolicy: duplicate insert of " << object;
    if (const auto ghost = ghost_index_.find(object); ghost != ghost_index_.end()) {
      ghost_bytes_ -= ghost->second->bytes;
      ghost_.erase(ghost->second);
      ghost_index_.erase(ghost);
      am_.push_front(QueueEntry{object, bytes});
      it->second = Slot{Segment::kMain, am_.begin()};
    } else {
      a1in_.push_front(QueueEntry{object, bytes});
      a1in_bytes_ += bytes;
      it->second = Slot{Segment::kProbation, a1in_.begin()};
    }
  }

  void OnTouch(ObjectID object) override {
    auto& slot = index_.at(object);
    if (slot.segment == Segment::kProbation) {
      a1in_bytes_ -= slot.pos->bytes;
      am_.splice(am_.begin(), a1in_, slot.pos);
      slot = Slot{Segment::kMain, am_.begin()};
      return;
    }
    am_.splice(am_.begin(), am_, slot.pos);
    slot.pos = am_.begin();
  }

  void OnRemove(ObjectID object, RemovalCause cause) override {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << "TwoQPolicy: remove of untracked " << object;
    const Slot slot = it->second;
    index_.erase(it);
    if (slot.segment == Segment::kProbation) {
      a1in_bytes_ -= slot.pos->bytes;
      // Only capacity evictions earn a ghost: a deleted object must not be
      // mistaken for a reused one when its id is recreated later.
      if (cause == RemovalCause::kEvicted) {
        ghost_.push_front(*slot.pos);
        ghost_bytes_ += slot.pos->bytes;
        ghost_index_[slot.pos->id] = ghost_.begin();
        while (ghost_bytes_ > ghost_budget_bytes_ && !ghost_.empty()) {
          ghost_bytes_ -= ghost_.back().bytes;
          ghost_index_.erase(ghost_.back().id);
          ghost_.pop_back();
        }
      }
      a1in_.erase(slot.pos);
    } else {
      am_.erase(slot.pos);
    }
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim(
      const Predicate& evictable) const override {
    // Over the probationary target: drain A1in oldest-first. Otherwise the
    // main queue pays; each side falls back to the other so a pinned-heavy
    // queue never wedges the store.
    if (a1in_bytes_ > a1in_target_bytes_) {
      if (const auto victim = ScanForVictim(a1in_, evictable)) return victim;
      return ScanForVictim(am_, evictable);
    }
    if (const auto victim = ScanForVictim(am_, evictable)) return victim;
    return ScanForVictim(a1in_, evictable);
  }

  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool Contains(ObjectID object) const override { return index_.contains(object); }

 private:
  enum class Segment { kProbation, kMain };
  struct Slot {
    Segment segment = Segment::kProbation;
    Queue::iterator pos;
  };

  const std::int64_t a1in_target_bytes_;
  const std::int64_t ghost_budget_bytes_;
  Queue a1in_;   // FIFO: front = newest, back = next out
  Queue am_;     // LRU: front = MRU
  Queue ghost_;  // A1out breadcrumbs of capacity-evicted probationers
  std::int64_t a1in_bytes_ = 0;
  std::int64_t ghost_bytes_ = 0;
  det::Map<ObjectID, Slot> index_;
  det::Map<ObjectID, Queue::iterator> ghost_index_;
};

/// Segmented LRU. Entries start in a probationary segment; a second use
/// promotes into the protected segment (capped at 4/5 of capacity, demoting
/// its own LRU tail back to probation). Victims come from probation first,
/// so single-use tail objects cannot flush the proven hot set.
class SegmentedLruPolicy final : public ScanPolicy {
 public:
  explicit SegmentedLruPolicy(std::int64_t capacity_bytes)
      : protected_target_bytes_(capacity_bytes / 5 * 4) {}

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    const auto [it, inserted] = index_.emplace(object, Slot{});
    HOPLITE_CHECK(inserted) << "SegmentedLruPolicy: duplicate insert of " << object;
    probation_.push_front(QueueEntry{object, bytes});
    it->second = Slot{Segment::kProbation, probation_.begin()};
  }

  void OnTouch(ObjectID object) override {
    auto& slot = index_.at(object);
    if (slot.segment == Segment::kProtected) {
      protected_.splice(protected_.begin(), protected_, slot.pos);
      slot.pos = protected_.begin();
      return;
    }
    // Promote, then demote the protected tail until the segment fits again:
    // demotion re-enters probation at the MRU end, so a demoted-but-hot
    // entry gets a full probation lifetime to earn its way back.
    protected_.splice(protected_.begin(), probation_, slot.pos);
    slot.pos = protected_.begin();
    slot.segment = Segment::kProtected;
    protected_bytes_ += slot.pos->bytes;
    while (protected_bytes_ > protected_target_bytes_ && protected_.size() > 1) {
      const auto tail = std::prev(protected_.end());
      protected_bytes_ -= tail->bytes;
      auto& demoted = index_.at(tail->id);
      probation_.splice(probation_.begin(), protected_, tail);
      demoted = Slot{Segment::kProbation, probation_.begin()};
    }
  }

  void OnRemove(ObjectID object, RemovalCause /*cause*/) override {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << "SegmentedLruPolicy: remove of untracked " << object;
    const Slot slot = it->second;
    index_.erase(it);
    if (slot.segment == Segment::kProtected) {
      protected_bytes_ -= slot.pos->bytes;
      protected_.erase(slot.pos);
    } else {
      probation_.erase(slot.pos);
    }
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim(
      const Predicate& evictable) const override {
    if (const auto victim = ScanForVictim(probation_, evictable)) return victim;
    return ScanForVictim(protected_, evictable);
  }

  [[nodiscard]] std::size_t size() const override { return index_.size(); }
  [[nodiscard]] bool Contains(ObjectID object) const override { return index_.contains(object); }

 private:
  enum class Segment { kProbation, kProtected };
  struct Slot {
    Segment segment = Segment::kProbation;
    Queue::iterator pos;
  };

  const std::int64_t protected_target_bytes_;
  Queue probation_;  // front = MRU
  Queue protected_;  // front = MRU
  std::int64_t protected_bytes_ = 0;
  det::Map<ObjectID, Slot> index_;
};

}  // namespace scan

/// A scan policy behind the SetEvictable interface.
class ReferencePolicy final : public EvictionPolicy {
 public:
  ReferencePolicy(EvictionPolicyKind kind, std::int64_t capacity_bytes) : kind_(kind) {
    switch (kind) {
      case EvictionPolicyKind::kLru: scan_ = std::make_unique<scan::LruPolicy>(); break;
      case EvictionPolicyKind::kTwoQ:
        scan_ = std::make_unique<scan::TwoQPolicy>(capacity_bytes);
        break;
      case EvictionPolicyKind::kSegmentedLru:
        scan_ = std::make_unique<scan::SegmentedLruPolicy>(capacity_bytes);
        break;
    }
  }

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    scan_->OnInsert(object, bytes);
  }
  void OnTouch(ObjectID object) override { scan_->OnTouch(object); }
  void OnRemove(ObjectID object, RemovalCause cause) override {
    evictable_.erase(object);
    scan_->OnRemove(object, cause);
  }
  void SetEvictable(ObjectID object, bool evictable) override {
    HOPLITE_CHECK(scan_->Contains(object)) << object << " is not tracked";
    const bool flipped =
        evictable ? evictable_.insert(object).second : evictable_.erase(object) == 1;
    HOPLITE_CHECK(flipped) << object << " already " << (evictable ? "evictable" : "pinned");
  }
  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    return scan_->PickVictim([this](ObjectID object) { return evictable_.contains(object); });
  }
  [[nodiscard]] std::vector<ObjectID> EvictableObjects() const override {
    return {evictable_.begin(), evictable_.end()};
  }
  [[nodiscard]] std::size_t size() const override { return scan_->size(); }
  [[nodiscard]] bool Contains(ObjectID object) const override {
    return scan_->Contains(object);
  }
  [[nodiscard]] EvictionPolicyKind kind() const override { return kind_; }

 private:
  EvictionPolicyKind kind_;
  std::unique_ptr<scan::ScanPolicy> scan_;
  det::Set<ObjectID> evictable_;
};

}  // namespace hoplite::cache::testing
