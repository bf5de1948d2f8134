// Deterministic discrete-event simulation engine.
//
// This is the substrate standing in for the paper's 16-node EC2 cluster: all
// higher layers (network, object store, directory, Hoplite protocols, the task
// framework and the application workloads) run as event handlers on one
// Simulator instance. Events at equal timestamps fire in scheduling order
// (FIFO tie-break via a monotonically increasing sequence number), which makes
// every run bit-reproducible from its inputs.
//
// The pending events live in one sim::EventQueue (sim/event_queue.h), which
// owns the (time, seq) order; this class is the clock and the driver loops
// around it.
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "common/audit.h"
#include "common/logging.h"
#include "common/units.h"
#include "sim/engine.h"
#include "sim/event_queue.h"

namespace hoplite::sim {

/// A discrete-event simulator with integer-nanosecond virtual time: the
/// implementation of sim::Engine.
///
/// Not thread-safe: this engine is single-threaded by design (determinism is
/// the point). Independent simulations run in parallel as separate
/// Simulators, one per thread. Event callbacks may schedule further events.
class Simulator final : public Engine {
 public:
  Simulator() = default;

  /// Current virtual time.
  [[nodiscard]] SimTime Now() const noexcept override { return now_; }

  /// Schedules `fn` to run at absolute virtual time `t` (>= Now()).
  EventId ScheduleAt(SimTime t, Callback fn) override {
    HOPLITE_CHECK_GE(t, now_) << "cannot schedule into the past";
    return queue_.Push(t, std::move(fn));
  }

  /// Schedules `fn` to run `delay` nanoseconds from now (delay >= 0).
  EventId ScheduleAfter(SimDuration delay, Callback fn) override {
    HOPLITE_CHECK_GE(delay, 0);
    return ScheduleAt(now_ + delay, std::move(fn));
  }

  /// Cancels a pending event. Safe to call for events that already fired or
  /// were already cancelled (returns false in those cases; true if this call
  /// is the one that cancelled it).
  bool Cancel(EventId id) override { return queue_.Cancel(id); }

  /// Runs the next pending event, if any. Returns false when the queue is
  /// drained. Cancelled events are skipped without being counted as steps.
  bool Step() {
    if (queue_.Peek() == nullptr) return false;
    EventQueue::Fired ev = queue_.Pop();
    HOPLITE_CHECK_GE(ev.key.time, now_);
    now_ = ev.key.time;
    ++executed_events_;
    // Periodic deep audit: O(slots + heap), so amortized across a window
    // of events to keep audit builds usable at bench scale.
    if constexpr (audit::kEnabled) {
      if ((executed_events_ & (kAuditPeriod - 1)) == 0) AuditInvariants();
    }
    ev.fn();
    return true;
  }

  /// Runs until no events remain.
  void Run() override {
    while (Step()) {
    }
  }

  /// Runs until virtual time would exceed `deadline` (events exactly at the
  /// deadline are executed). Time advances to `deadline` afterwards even if
  /// the queue drained earlier.
  void RunUntil(SimTime deadline) override {
    // Peek drops cancelled heads first: a stale record at or before the
    // deadline must not license Step() to execute a live event beyond it.
    for (const EventQueue::Key* head = queue_.Peek(); head != nullptr && head->time <= deadline;
         head = queue_.Peek()) {
      Step();
    }
    if (now_ < deadline) now_ = deadline;
  }

  /// Runs until `pred()` becomes true or the queue drains. Returns whether
  /// the predicate held when the loop stopped. The predicate is evaluated
  /// after every executed event.
  bool RunUntilPredicate(const std::function<bool()>& pred) override {
    if (pred()) return true;
    while (Step()) {
      if (pred()) return true;
    }
    return pred();
  }

  /// Full slot/generation/heap consistency walk (audit builds; also directly
  /// callable from tests); see EventQueue::AuditInvariants.
  void AuditInvariants() const { queue_.AuditInvariants(now_); }

  /// Number of events executed so far (cancelled events excluded).
  [[nodiscard]] std::uint64_t executed_events() const noexcept override {
    return executed_events_;
  }
  /// Number of heap records currently pending (cancelled-but-unswept included).
  [[nodiscard]] std::size_t pending_events() const noexcept { return queue_.records(); }
  /// Number of cancelled-but-unswept heap records (bounded by the sweep in
  /// Cancel; exposed for the accounting regression tests).
  [[nodiscard]] std::size_t cancelled_tombstones() const noexcept {
    return queue_.tombstones();
  }
  /// Whether no live event is pending; cancelled tombstones do not count.
  [[nodiscard]] bool Idle() const noexcept override { return queue_.Empty(); }

 private:
  /// Events between consecutive AuditInvariants() walks (power of two).
  static constexpr std::uint64_t kAuditPeriod = 1024;

  SimTime now_ = 0;
  std::uint64_t executed_events_ = 0;
  EventQueue queue_;
};

}  // namespace hoplite::sim
