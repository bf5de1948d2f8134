#include "cache/eviction_policy.h"

#include <algorithm>
#include <initializer_list>
#include <iterator>
#include <list>
#include <utility>

#include "common/logging.h"

namespace hoplite::cache {
namespace {

/// Queue node shared by every policy: the id plus the byte size the store
/// reported at insert, so segmented policies can budget segments in bytes.
struct QueueEntry {
  ObjectID id;
  std::int64_t bytes = 0;
  std::uint64_t stamp = 0;  ///< policy stamp of the entry's last front arrival
  bool evictable = false;   ///< the store's latest SetEvictable verdict
};

/// One policy queue: entries in stamp order from the front (newest) to the
/// back (oldest), the evictable ones also in a stamp-keyed set, and the
/// total bytes queued.
class HOPLITE_DOMAIN_CONFINED Queue {
 public:
  using iterator = std::list<QueueEntry>::iterator;

  iterator PushFront(ObjectID object, std::int64_t bytes, std::uint64_t stamp) {
    entries_.push_front(QueueEntry{object, bytes, stamp, false});
    bytes_ += bytes;
    return entries_.begin();
  }

  /// Moves `pos` from `from` (possibly this queue) to the front with a new
  /// stamp, carrying its evictable mark along.
  iterator SpliceFront(Queue& from, iterator pos, std::uint64_t stamp) {
    if (pos->evictable) from.evictable_.erase(pos->stamp);
    from.bytes_ -= pos->bytes;
    pos->stamp = stamp;
    entries_.splice(entries_.begin(), from.entries_, pos);
    bytes_ += pos->bytes;
    if (pos->evictable) evictable_.emplace(stamp, pos->id);
    return pos;
  }

  void Erase(iterator pos) {
    if (pos->evictable) evictable_.erase(pos->stamp);
    bytes_ -= pos->bytes;
    entries_.erase(pos);
  }

  void SetEvictable(iterator pos, bool evictable) {
    HOPLITE_CHECK(pos->evictable != evictable)
        << pos->id << " already marked " << (evictable ? "evictable" : "pinned");
    pos->evictable = evictable;
    if (evictable) {
      evictable_.emplace(pos->stamp, pos->id);
    } else {
      evictable_.erase(pos->stamp);
    }
  }

  /// The evictable entry nearest the back, or nullopt.
  [[nodiscard]] std::optional<ObjectID> OldestEvictable() const {
    if (evictable_.empty()) return std::nullopt;
    return evictable_.begin()->second;
  }

  void AppendEvictable(std::vector<ObjectID>& out) const {
    for (const auto& [stamp, id] : evictable_) out.push_back(id);
  }

  [[nodiscard]] iterator Back() { return std::prev(entries_.end()); }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }
  [[nodiscard]] std::int64_t bytes() const noexcept { return bytes_; }

 private:
  std::list<QueueEntry> entries_;
  det::Map<std::uint64_t, ObjectID> evictable_;  // stamp -> id, oldest first
  std::int64_t bytes_ = 0;
};

/// What the three queue-based policies share: the id -> (queue, position)
/// index, the stamp clock and the evictability hook.
class HOPLITE_DOMAIN_CONFINED QueuePolicy : public EvictionPolicy {
 public:
  void SetEvictable(ObjectID object, bool evictable) final {
    const Slot& slot = SlotOf(object);
    slot.queue->SetEvictable(slot.pos, evictable);
  }

  [[nodiscard]] std::size_t size() const final { return index_.size(); }
  [[nodiscard]] bool Contains(ObjectID object) const final { return index_.contains(object); }

 protected:
  struct Slot {
    Queue* queue = nullptr;
    Queue::iterator pos;
  };

  /// Enqueues a new entry at `queue`'s front.
  void Track(ObjectID object, std::int64_t bytes, Queue& queue) {
    const auto [it, inserted] = index_.emplace(object, Slot{});
    HOPLITE_CHECK(inserted) << PolicyName(kind()) << ": duplicate insert of " << object;
    it->second = Slot{&queue, queue.PushFront(object, bytes, ++clock_)};
  }

  /// Moves a tracked entry to `to`'s front (a touch, promotion or demotion).
  void MoveToFront(Slot& slot, Queue& to) {
    slot.pos = to.SpliceFront(*slot.queue, slot.pos, ++clock_);
    slot.queue = &to;
  }

  /// Drops a tracked entry from the index and its queue; returns the queue
  /// it left and a copy of its node.
  std::pair<Queue*, QueueEntry> Untrack(ObjectID object) {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << PolicyName(kind()) << ": remove of untracked "
                                      << object;
    const Slot slot = it->second;
    const QueueEntry entry = *slot.pos;
    index_.erase(it);
    slot.queue->Erase(slot.pos);
    return {slot.queue, entry};
  }

  [[nodiscard]] Slot& SlotOf(ObjectID object) {
    const auto it = index_.find(object);
    HOPLITE_CHECK(it != index_.end()) << PolicyName(kind()) << ": " << object
                                      << " is not tracked";
    return it->second;
  }

  [[nodiscard]] static std::vector<ObjectID> SortedEvictable(
      std::initializer_list<const Queue*> queues) {
    std::vector<ObjectID> out;
    for (const Queue* queue : queues) queue->AppendEvictable(out);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  det::Map<ObjectID, Slot> index_;
  std::uint64_t clock_ = 0;
};

/// Classic LRU. Byte-identical to the list LocalStore used to hard-wire:
/// inserts and touches go to the MRU front, victims come from the LRU back.
class HOPLITE_DOMAIN_CONFINED LruPolicy final : public QueuePolicy {
 public:
  void OnInsert(ObjectID object, std::int64_t bytes) override { Track(object, bytes, lru_); }
  void OnTouch(ObjectID object) override { MoveToFront(SlotOf(object), lru_); }
  void OnRemove(ObjectID object, RemovalCause /*cause*/) override { Untrack(object); }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    return lru_.OldestEvictable();
  }
  [[nodiscard]] std::vector<ObjectID> EvictableObjects() const override {
    return SortedEvictable({&lru_});
  }
  [[nodiscard]] EvictionPolicyKind kind() const override { return EvictionPolicyKind::kLru; }

 private:
  Queue lru_;  // front = MRU, back = LRU
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
class HOPLITE_DOMAIN_CONFINED TwoQPolicy final : public QueuePolicy {
 public:
  // A ghost is an id, not a payload: its budget is denominated in the bytes
  // of the objects it remembers, so 2x capacity of breadcrumbs costs almost
  // nothing while giving the hot set a long enough memory to be re-proven
  // after an A1in eviction (cap/2 forgets a zipf head faster than it
  // re-accesses under scan pressure).
  explicit TwoQPolicy(std::int64_t capacity_bytes)
      : a1in_target_bytes_(capacity_bytes / 4), ghost_budget_bytes_(capacity_bytes * 2) {}

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    if (const auto ghost = ghost_index_.find(object); ghost != ghost_index_.end()) {
      ghost_bytes_ -= ghost->second->bytes;
      ghost_.erase(ghost->second);
      ghost_index_.erase(ghost);
      Track(object, bytes, am_);
    } else {
      Track(object, bytes, a1in_);
    }
  }

  // A hit in A1in promotes to Am's MRU front; a hit in Am refreshes it.
  void OnTouch(ObjectID object) override { MoveToFront(SlotOf(object), am_); }

  void OnRemove(ObjectID object, RemovalCause cause) override {
    const auto [queue, entry] = Untrack(object);
    // Only capacity evictions of probationers earn a ghost: a deleted object
    // must not be mistaken for a reused one when its id is recreated later.
    if (queue != &a1in_ || cause != RemovalCause::kEvicted) return;
    ghost_.push_front(entry);
    ghost_bytes_ += entry.bytes;
    ghost_index_[entry.id] = ghost_.begin();
    while (ghost_bytes_ > ghost_budget_bytes_ && !ghost_.empty()) {
      ghost_bytes_ -= ghost_.back().bytes;
      ghost_index_.erase(ghost_.back().id);
      ghost_.pop_back();
    }
  }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    // Over the probationary target: drain A1in oldest-first. Otherwise the
    // main queue pays; each side falls back to the other so a pinned-heavy
    // queue never wedges the store.
    const bool drain_a1in = a1in_.bytes() > a1in_target_bytes_;
    const Queue& first = drain_a1in ? a1in_ : am_;
    const Queue& second = drain_a1in ? am_ : a1in_;
    if (const auto victim = first.OldestEvictable()) return victim;
    return second.OldestEvictable();
  }
  [[nodiscard]] std::vector<ObjectID> EvictableObjects() const override {
    return SortedEvictable({&a1in_, &am_});
  }
  [[nodiscard]] EvictionPolicyKind kind() const override { return EvictionPolicyKind::kTwoQ; }

 private:
  using Ghosts = std::list<QueueEntry>;

  const std::int64_t a1in_target_bytes_;
  const std::int64_t ghost_budget_bytes_;
  Queue a1in_;    // FIFO: front = newest, back = next out
  Queue am_;      // LRU: front = MRU
  Ghosts ghost_;  // A1out breadcrumbs of capacity-evicted probationers
  std::int64_t ghost_bytes_ = 0;
  det::Map<ObjectID, Ghosts::iterator> ghost_index_;
};

/// Segmented LRU. Entries start in a probationary segment; a second use
/// promotes into the protected segment (capped at 4/5 of capacity, demoting
/// its own LRU tail back to probation). Victims come from probation first,
/// so single-use tail objects cannot flush the proven hot set.
class HOPLITE_DOMAIN_CONFINED SegmentedLruPolicy final : public QueuePolicy {
 public:
  explicit SegmentedLruPolicy(std::int64_t capacity_bytes)
      : protected_target_bytes_(capacity_bytes / 5 * 4) {}

  void OnInsert(ObjectID object, std::int64_t bytes) override {
    Track(object, bytes, probation_);
  }

  void OnTouch(ObjectID object) override {
    Slot& slot = SlotOf(object);
    const bool promoted = slot.queue == &probation_;
    MoveToFront(slot, protected_);
    if (!promoted) return;
    // Demote the protected tail until the segment fits again, whether or
    // not that tail is evictable: demotion re-enters probation at the MRU
    // end, so a demoted-but-hot entry gets a full probation lifetime to
    // earn its way back.
    while (protected_.bytes() > protected_target_bytes_ && protected_.size() > 1) {
      MoveToFront(SlotOf(protected_.Back()->id), probation_);
    }
  }

  void OnRemove(ObjectID object, RemovalCause /*cause*/) override { Untrack(object); }

  [[nodiscard]] std::optional<ObjectID> PickVictim() const override {
    if (const auto victim = probation_.OldestEvictable()) return victim;
    return protected_.OldestEvictable();
  }
  [[nodiscard]] std::vector<ObjectID> EvictableObjects() const override {
    return SortedEvictable({&probation_, &protected_});
  }
  [[nodiscard]] EvictionPolicyKind kind() const override {
    return EvictionPolicyKind::kSegmentedLru;
  }

 private:
  const std::int64_t protected_target_bytes_;
  Queue probation_;  // front = MRU
  Queue protected_;  // front = MRU
};

}  // namespace

std::unique_ptr<EvictionPolicy> MakeEvictionPolicy(EvictionPolicyKind kind,
                                                   std::int64_t capacity_bytes) {
  switch (kind) {
    case EvictionPolicyKind::kLru: return std::make_unique<LruPolicy>();
    case EvictionPolicyKind::kTwoQ: return std::make_unique<TwoQPolicy>(capacity_bytes);
    case EvictionPolicyKind::kSegmentedLru:
      return std::make_unique<SegmentedLruPolicy>(capacity_bytes);
  }
  HOPLITE_CHECK(false) << "unknown eviction policy";
  return nullptr;
}

}  // namespace hoplite::cache
