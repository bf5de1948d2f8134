// Shared vocabulary of the repository benchmark (hopbench).
//
// A workload is a fixed set of simulated cells derived from the seed. One
// pass runs every cell once on fresh clusters and yields a PassResult: one
// OpRecord per attempted op (a workload-engine trace op, or one participant
// of a collective), the collective completion times, the layers' public
// counters, and the host time each cell took. Simulated fields depend only
// on the seed; host fields are what the benchmark measures.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "core/ref.h"

namespace hopbench {

using hoplite::SimTime;

/// Host monotonic clock in seconds (benchmark-side only; never fed back
/// into simulated behaviour).
[[nodiscard]] inline double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One attempted op. `cls` indexes the workload's latency classes (its
/// frozen latency limits).
struct OpRecord {
  int cls = 0;
  SimTime due = 0;          ///< when the op was due (open-loop schedule)
  SimTime settled = -1;     ///< -1: never settled
  bool ok = false;
  hoplite::RefErrorCode code = hoplite::RefErrorCode::kProducerLost;
};

/// Everything one pass over a workload's cells produced.
struct PassResult {
  std::vector<OpRecord> ops;
  /// Each collective's completion (seconds) by the §5.1.2 rule.
  std::vector<double> collective_s;
  std::vector<std::string> check_failures;
  /// Simulated-side counters (exact for a seed).
  std::uint64_t events = 0;
  std::uint64_t directory_ops = 0;
  std::uint64_t messages = 0;
  std::int64_t wire_bytes = 0;
  std::int64_t payload_bytes = 0;  ///< payload the ops had to move off-node
  std::uint64_t evictions = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::int64_t peak_used_bytes = 0;
  /// Host seconds per cell from issue to engine drained.
  std::vector<double> cell_wall_s;
  /// Host seconds of input generation + cluster/backend build, all cells.
  double setup_s = 0;
  /// Host seconds split by layer call (summed over cells).
  double trace_build_s = 0;
  double cluster_build_s = 0;
  double issue_s = 0;
  double run_s = 0;
};

/// In-memory span recorder, written as Chrome trace-event JSON at exit.
/// Each op span carries the op's trace index and its simulated issue and
/// settle instants; layer spans (build, run, solo drivers) carry none.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::string cat;
    std::int64_t id = -1;
    double host_start = 0;
    double host_end = 0;
    SimTime sim_issue = -1;
    SimTime sim_settle = -1;
  };

  /// Starts a span; returns its index for End / SetSettle.
  std::size_t Begin(std::string name, std::string cat, std::int64_t id = -1,
                    SimTime sim_issue = -1) {
    spans_.push_back(Span{std::move(name), std::move(cat), id, HostNow(), 0, sim_issue, -1});
    return spans_.size() - 1;
  }
  void End(std::size_t span) { spans_[span].host_end = HostNow(); }
  void SetSettle(std::size_t span, SimTime t) { spans_[span].sim_settle = t; }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  void WriteChromeJson(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// RAII layer span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, std::string name, std::string cat)
      : tracer_(tracer),
        index_(tracer != nullptr ? tracer->Begin(std::move(name), std::move(cat)) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  std::size_t index_;
};

/// One workload: its latency classes with their frozen limits, a pass
/// runner, and a set-up-only runner (every cell's inputs and clusters built
/// and torn down; returns the host seconds of the builds).
struct Workload {
  std::string name;
  std::vector<double> limit_ms;  ///< per latency class: 5x its unloaded latency
  PassResult (*run_pass)(std::uint64_t seed, Tracer* tracer) = nullptr;
  double (*setup_once)(std::uint64_t seed) = nullptr;
};

[[nodiscard]] const std::vector<Workload>& Workloads();
[[nodiscard]] const Workload* FindWorkload(const std::string& name);

/// Prints each class's unloaded latency (the basis of the frozen limits).
void Calibrate();

/// `serving` at one offered query rate on a 4 s horizon: each tenant's
/// censored p99, how long the run took to drain after the horizon, and
/// whether every p99 is within its limit and the drain within 0.5 s.
struct ServingRung {
  std::vector<double> p99_ms;
  double drain_s = 0;
  bool meets = false;
};
[[nodiscard]] ServingRung RunServingRung(double queries_per_s, std::uint64_t seed);
/// The offered query rates `qos.capacity_qps` climbs.
[[nodiscard]] const std::vector<double>& CapacityLadder();

// Solo layer drivers: each calls one module's public functions only, in the
// shape of that module's home workload, and returns host time per unit.
[[nodiscard]] double SoloEventNs(std::uint64_t seed);                 // sim
[[nodiscard]] double SoloClaimUs(int receivers, std::uint64_t seed);  // directory
[[nodiscard]] double SoloFlowUs(std::uint64_t seed);                  // net
[[nodiscard]] double SoloEvictUs(std::uint64_t seed);                 // store

}  // namespace hopbench
