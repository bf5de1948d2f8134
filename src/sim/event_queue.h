// The event queue sim::Simulator runs on.
//
// Events live in generation-stamped slots: the heap holds small plain
// records {key, slot, gen} while callbacks sit in a slot array indexed by
// EventId, so heap moves never touch a std::function. Push, Cancel and the
// fired/cancelled test are O(1) array operations (plus the heap push/pop).
//
// Events pop in (time, seq) order: earliest time first, and among events at
// one timestamp, the order they were pushed (seq is a per-queue counter).
// That FIFO tie-break makes every run bit-reproducible from its inputs.
//
// A slot's generation is odd while its event is pending and even once it
// fired or was cancelled; a heap record is live iff its generation still
// equals its slot's. Cancelled records stay in the heap as tombstones until
// they surface at the head or outnumber half the heap, when one sweep drops
// them all. Removing tombstones never perturbs order: it is fully determined
// by the live keys.
//
// Not thread-safe: one queue belongs to one engine on one thread.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "common/audit.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/engine.h"

namespace hoplite::sim {

class EventQueue {
 public:
  using Callback = std::function<void()>;

  /// Pop order: time, then FIFO among same-timestamp events.
  struct Key {
    SimTime time;
    std::uint64_t seq;

    friend bool operator<(const Key& a, const Key& b) noexcept {
      return a.time != b.time ? a.time < b.time : a.seq < b.seq;
    }
  };

  /// A popped event: its key and its callback (moved out of the freed slot).
  struct Fired {
    Key key;
    Callback fn;
  };

  /// Queues `fn` to fire at `time`, after every event already queued there.
  EventId Push(SimTime time, Callback fn) {
    HOPLITE_CHECK(fn != nullptr);
    std::uint32_t slot;
    if (free_slots_.empty()) {
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    } else {
      slot = free_slots_.back();
      free_slots_.pop_back();
    }
    Slot& s = slots_[slot];
    ++s.gen;  // even -> odd: pending. gen 0 stays reserved for the invalid handle
    s.fn = std::move(fn);
    heap_.push_back(Record{Key{time, ++next_seq_}, slot, s.gen});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return EventId{slot, s.gen};
  }

  /// Cancels the pending event `id`. Returns false if it already fired, was
  /// cancelled, or its slot was since reused. Sweeps the heap once tombstones
  /// outnumber half of it, so heavy cancel traffic cannot grow the heap
  /// without bound.
  bool Cancel(EventId id) {
    if (!id.IsValid() || id.slot >= slots_.size()) return false;
    Slot& s = slots_[id.slot];
    if (s.gen != id.gen) return false;
    Release(id.slot);
    ++stale_;
    if (stale_ > heap_.size() / 2) Sweep();
    return true;
  }

  /// The key of the least live event, dropping tombstones off the head
  /// first; nullptr when no live event remains.
  const Key* Peek() {
    while (!heap_.empty()) {
      const Record& head = heap_.front();
      if (IsLive(head)) return &head.key;
      PopRecord();
      --stale_;
    }
    return nullptr;
  }

  /// Removes the least live event and frees its slot. Precondition: Peek()
  /// just returned non-null.
  Fired Pop() {
    const Record rec = PopRecord();
    Slot& s = slots_[rec.slot];
    Fired fired{rec.key, std::move(s.fn)};
    Release(rec.slot);
    return fired;
  }

  /// Whether no live event is pending (tombstones do not count). O(1).
  [[nodiscard]] bool Empty() const noexcept { return heap_.size() == stale_; }
  /// Heap records, cancelled-but-unswept tombstones included.
  [[nodiscard]] std::size_t records() const noexcept { return heap_.size(); }
  /// Cancelled-but-unswept heap records.
  [[nodiscard]] std::size_t tombstones() const noexcept { return stale_; }

  /// Full slot/generation/heap consistency walk: no live event sits behind
  /// `now`, every pending slot is referenced by exactly one live heap record,
  /// the tombstone count matches the heap, and the free list holds exactly
  /// the non-pending slots, each once.
  void AuditInvariants(SimTime now) const {
    std::vector<std::uint32_t> live_refs(slots_.size(), 0);
    std::size_t stale_records = 0;
    for (const Record& rec : heap_) {
      HOPLITE_AUDIT(rec.slot < slots_.size());
      if (IsLive(rec)) {
        HOPLITE_AUDIT(rec.key.time >= now)
            << "live event in slot " << rec.slot << " is behind now";
        ++live_refs[rec.slot];
      } else {
        ++stale_records;
      }
    }
    HOPLITE_AUDIT(stale_records == stale_)
        << "(" << stale_records << " stale heap records vs counter " << stale_ << ")";
    std::size_t pending_slots = 0;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      const bool pending = Pending(slots_[i]);
      if (pending) ++pending_slots;
      HOPLITE_AUDIT(live_refs[i] == (pending ? 1u : 0u))
          << "slot " << i << " has " << live_refs[i] << " live heap records";
    }
    HOPLITE_AUDIT(free_slots_.size() + pending_slots == slots_.size())
        << "(" << free_slots_.size() << " free + " << pending_slots << " pending vs "
        << slots_.size() << " slots)";
    std::vector<bool> freed(slots_.size(), false);
    for (const std::uint32_t slot : free_slots_) {
      HOPLITE_AUDIT(slot < slots_.size());
      HOPLITE_AUDIT(!Pending(slots_[slot])) << "pending slot " << slot << " on the free list";
      HOPLITE_AUDIT(!freed[slot]) << "slot " << slot << " freed twice";
      freed[slot] = true;
    }
  }

 private:
  /// A heap record: plain data only; the callback lives in the slot array.
  struct Record {
    Key key;
    std::uint32_t slot;
    std::uint32_t gen;
  };
  struct Slot {
    Callback fn;
    std::uint32_t gen = 0;  ///< odd while pending
  };
  struct Later {
    // Max-heap comparator inverted into a min-heap by Key.
    [[nodiscard]] bool operator()(const Record& a, const Record& b) const noexcept {
      return b.key < a.key;
    }
  };

  [[nodiscard]] static bool Pending(const Slot& s) noexcept { return (s.gen & 1u) != 0; }
  [[nodiscard]] bool IsLive(const Record& rec) const noexcept {
    return slots_[rec.slot].gen == rec.gen;
  }

  Record PopRecord() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Record rec = heap_.back();
    heap_.pop_back();
    return rec;
  }

  /// Ends a pending slot's generation and returns it to the free list.
  void Release(std::uint32_t slot) {
    Slot& s = slots_[slot];
    ++s.gen;  // odd -> even: every record of this generation is now stale
    s.fn = nullptr;
    free_slots_.push_back(slot);
  }

  /// Drops every tombstone from the heap.
  void Sweep() {
    heap_.erase(std::remove_if(heap_.begin(), heap_.end(),
                               [this](const Record& rec) { return !IsLive(rec); }),
                heap_.end());
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    stale_ = 0;
  }

  std::vector<Record> heap_;
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::size_t stale_ = 0;
  std::uint64_t next_seq_ = 0;
};

}  // namespace hoplite::sim
