// Rack-topology fabric with progressive max-min fair bandwidth sharing.
//
// Nodes are grouped into racks behind top-of-rack (ToR) uplinks. A flow
// from `src` to `dst` traverses:
//
//   src NIC egress --> [ToR uplink of src's rack --> core -->
//                       ToR downlink of dst's rack] --> dst NIC ingress
//
// where the bracketed links are only crossed by inter-rack flows. Each ToR
// uplink/downlink carries (sum of the rack's NIC bandwidth) divided by the
// configured oversubscription ratio, so at 1:1 the fabric is non-blocking
// and at 8:1 the core is the bottleneck the moment more than 1/8 of a
// rack's NIC capacity wants out.
//
// Unlike FlatFabric's serialized per-node queues, concurrent flows here
// share links fluidly: rates follow progressive filling (max-min fairness),
// recomputed event-driven whenever a flow starts, finishes, is cancelled or
// fails. Iteration orders are fixed (flows by ascending TransferId), so
// runs stay bit-reproducible. This is the regime of inter-datacenter
// congestion studies (Zeng; Sander et al. for flow-rate fairness) that the
// flat testbed model cannot express.
//
// The fair-share bookkeeping is incremental, which is what lets 1024-node
// clusters simulate in seconds instead of minutes:
//
//  * Max-min allocations factorize over connected components of the
//    flow/link sharing graph, so a flow start/finish/cancel only recomputes
//    the component reachable from the links it touched (dirty-link BFS).
//    Rates are assigned as per-bottleneck water levels — a direct
//    (capacity - frozen) / unfrozen division — so a component-local pass
//    produces bit-identical rates to a whole-fabric pass.
//  * Each filling round touches only what can still change: it scans the
//    active links (those with unfrozen flows that are not yet saturated)
//    for the level, then freezes just the flows listed on the links that
//    saturated in that round. Link flow lists carry the Flow pointer next
//    to the id, so neither the BFS nor the freeze loop hashes.
//  * Per-flow progress is lazy: `remaining` is anchored at the flow's last
//    rate change (`anchor`) and evaluated as remaining - rate * dt on
//    demand, so untouched components never get booked per event.
//  * Completion scans are heap-based: one lazy min-heap over predicted
//    completion times drives the single scheduled wire-completion event,
//    and a second over "could already count as done" times reproduces the
//    old full-scan sweep that let sub-residue flows piggyback on a
//    concurrent completion. Stale heap records are generation-stamped and
//    skipped (and compacted once they dominate). A recomputed flow whose
//    predicted times match its live records keeps them: most flows of a
//    component keep their rate, and re-pushing identical records was most
//    of the heap traffic.
//
// With `ClusterConfig::qos.wfq` the filling becomes hierarchical: contended
// links divide capacity max-min across *tenants* first (weighted by
// QosConfig::tenant_weights), then across each tenant's flows — same dirty
// component machinery, different water-level solver (qos/wfq.h). With
// `qos.aqm` each (ToR uplink, tenant) pair carries a CoDel-style virtual
// queue (qos/aqm.h): sustained above-target sojourn pauses every flow of
// the tenant's queue on that uplink and raises ECN-like backpressure to
// each distinct sending client. Both default off, leaving behaviour
// bit-identical.
#pragma once

#include <array>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/annotations.h"
#include "common/det.h"
#include "common/ids.h"
#include "common/units.h"
#include "net/fabric.h"
#include "qos/aqm.h"
#include "qos/qos.h"
#include "qos/wfq.h"
#include "sim/simulator.h"

namespace hoplite::net {

/// Racks behind oversubscribed ToR uplinks with event-driven progressive
/// max-min fair sharing (see the file header).
// hoplite-sa: owner(RackFabric) -- same lifetime contract as the Fabric
// base: built before the first event, destroyed after the engine drains.
class HOPLITE_DOMAIN_CONFINED RackFabric final : public Fabric {
 public:
  RackFabric(sim::Engine& simulator, ClusterConfig config);

  bool CancelTransfer(TransferId id) override;

  // ---------------- introspection for tests and benches ----------------

  [[nodiscard]] int num_racks() const noexcept { return num_racks_; }
  [[nodiscard]] int RackOf(NodeID node) const;
  /// Capacity of the ToR uplink (== downlink) of `rack`, bytes per second.
  [[nodiscard]] BytesPerSecond UplinkCapacityOf(int rack) const;
  /// Current fair-share rate of an in-flight transfer in bytes per second
  /// (0 if unknown or already past the wire stage).
  [[nodiscard]] double CurrentRate(TransferId id) const;
  /// Number of flows currently occupying wire bandwidth.
  [[nodiscard]] std::size_t wire_flows() const noexcept { return wire_flow_count_; }
  /// Cumulative AQM early-mark count (0 unless `qos.aqm` is on).
  [[nodiscard]] std::int64_t aqm_marks() const noexcept { return aqm_.marks(); }

  /// Deterministic, cumulative fair-share work counters.
  struct FairShareCounters {
    std::uint64_t recomputes = 0;       ///< component fills run
    std::uint64_t component_flows = 0;  ///< flows in those components, summed
    std::uint64_t fill_rounds = 0;      ///< water-level rounds, summed
    std::uint64_t records_pushed = 0;   ///< completion-record pairs pushed
  };
  [[nodiscard]] const FairShareCounters& fair_share_counters() const noexcept {
    return counters_;
  }

 protected:
  void StartTransfer(TransferId id, NodeID src, NodeID dst, std::int64_t bytes,
                     DeliveryCallback on_delivered, FailureCallback on_failed,
                     qos::TenantId tenant) override;
  void AbortTransfersOf(NodeID node) override;

 private:
  struct Flow;

  /// A flow reference: id for deterministic ordering, pointer so the hot
  /// loops skip the hash lookup (unordered_map nodes never move, and a flow
  /// leaves every link list before it is erased).
  struct CompFlow {
    TransferId id = 0;
    Flow* flow = nullptr;
  };

  /// A shared resource: one NIC direction or one ToR uplink/downlink.
  struct Link {
    double capacity = 0;                ///< bytes per second
    std::vector<CompFlow> flows;        ///< wire flows crossing this link
    // Scratch state for the component-local progressive filling:
    int unfrozen = 0;
    double frozen_sum = 0;   ///< total rate already granted to frozen flows
    std::uint64_t mark = 0;  ///< BFS epoch stamp
    /// Scratch per-tenant demand groups (WFQ mode only), rebuilt per
    /// Recompute in first-appearance order of the id-sorted component flows.
    std::vector<qos::TenantDemand> wfq;
  };

  /// Flow::own_at of a flow whose heap records are dead (never pushed,
  /// detached, or half record popped): the next refresh must push.
  static constexpr SimTime kNoRecords = -1;

  enum class Stage {
    kWire,      ///< occupying link bandwidth (remaining > 0)
    kPaused,    ///< AQM-paused: off the links, residue frozen, resume scheduled
    kDelivery,  ///< past the wire; propagation latency event scheduled
  };

  struct Flow {
    NodeID src = kInvalidNode;
    NodeID dst = kInvalidNode;
    Stage stage = Stage::kWire;
    qos::TenantId tenant = qos::kNoTenant;
    double remaining = 0;  ///< bytes left on the wire as of `anchor`
    SimTime anchor = 0;    ///< virtual time `remaining` was last materialized
    double rate = 0;       ///< current fair share, bytes per second
    bool frozen = false;   ///< scratch state for progressive filling
    std::array<int, 4> links{};
    int num_links = 0;
    /// Times of the live (own, half) heap records; own_at is kSimTimeMax
    /// while the flow has no rate, kNoRecords once its records are dead.
    SimTime own_at = kNoRecords;
    SimTime half_at = kNoRecords;
    std::uint32_t gen = 0;   ///< stamps completion-heap records; bumps on re-push
    std::uint64_t mark = 0;  ///< BFS epoch stamp
    sim::EventId delivery_event;  ///< valid in kDelivery; doubles as the
                                  ///< resume event while kPaused
    DeliveryCallback on_delivered;
    FailureCallback on_failed;  // may be empty
  };

  /// A lazy-heap record: stale once the flow's gen moved on.
  struct HeapEntry {
    SimTime time = 0;
    TransferId id = 0;
    std::uint32_t gen = 0;
  };

  // Link index layout: [0, n) egress NICs, [n, 2n) ingress NICs,
  // [2n, 2n + r) ToR uplinks, [2n + r, 2n + 2r) ToR downlinks.
  [[nodiscard]] int EgressLink(NodeID node) const { return static_cast<int>(node); }
  [[nodiscard]] int IngressLink(NodeID node) const {
    return config_.num_nodes + static_cast<int>(node);
  }
  [[nodiscard]] int UplinkLink(int rack) const { return 2 * config_.num_nodes + rack; }
  [[nodiscard]] int DownlinkLink(int rack) const {
    return 2 * config_.num_nodes + num_racks_ + rack;
  }

  /// True when a heap record no longer describes a live wire flow (flow
  /// gone, past the wire stage, or re-stamped since the record was pushed).
  [[nodiscard]] bool IsStale(const HeapEntry& entry) const;
  /// Bytes left on the wire at virtual time `t` (>= flow.anchor).
  [[nodiscard]] static double RemainingAt(const Flow& flow, SimTime t);
  /// Books progress up to `t` and re-anchors the flow there.
  static void Materialize(Flow& flow, SimTime t);

  /// Derives the flow's link set from its endpoints, registers it on those
  /// links' flow lists (appending them to `dirty`) and counts it as a wire
  /// flow. Shared by StartTransfer and the AQM resume path (DetachFromLinks
  /// zeroes `num_links`, so resuming must re-derive the set).
  void AssignLinks(TransferId id, Flow& flow, std::vector<int>& dirty);

  /// Recomputes rates for the component reachable from `dirty` links via
  /// progressive filling, re-anchors those flows and refreshes their
  /// completion-heap records. Flows sharing no (transitive) link with a
  /// dirty one keep their rates — their allocation cannot have changed.
  void Recompute(const std::vector<int>& dirty);
  /// The plain (per-flow) progressive-filling water levels. Called by
  /// Recompute on the prepared component; assigns every comp flow's rate.
  void FillMaxMin();
  /// The two-level (tenant-weighted, then per-flow) water levels of WFQ
  /// mode: contended links divide capacity max-min across tenants first
  /// (per QosConfig::tenant_weights), then across each tenant's flows.
  void FillWeighted();

  // ----------------------------- AQM hooks ------------------------------

  /// End-of-Recompute scan (aqm mode): arms a CoDel check on every
  /// (uplink, tenant) virtual queue of the component whose sojourn —
  /// queued bytes over allocated rate — exceeds the target.
  void ArmAqmChecks();
  /// Per-tenant queued bytes and allocated rate on `link` at `now`.
  [[nodiscard]] std::pair<double, double> TenantLoadOn(int link,
                                                       qos::TenantId tenant) const;
  /// The scheduled CoDel control-law check for one (uplink, tenant) queue.
  void OnAqmCheck(int link, qos::TenantId tenant);
  /// Early "drop" of one flow of a marked queue (OnAqmCheck pauses every
  /// flow of the tenant's queue on the link and notifies each distinct
  /// sender): takes it off the wire for the configured pause, then resumes
  /// it.
  void PauseFlow(TransferId id);
  void ResumeFlow(TransferId id);
  /// Predicts the flow's completion from its anchor and, unless that
  /// matches its live heap records, re-stamps it and pushes fresh ones.
  void RefreshCompletionRecords(TransferId id, Flow& flow);
  /// (Re)schedules the single completion event at the earliest predicted
  /// wire completion.
  void RescheduleCompletion();
  void OnWireCompletion();
  /// Moves a finished wire flow into the delivery (latency) stage.
  void EnterDeliveryStage(TransferId id, Flow& flow);
  /// Detaches the flow from its links, appending them to `dirty`, and
  /// kills its heap records.
  void DetachFromLinks(TransferId id, Flow& flow, std::vector<int>& dirty);
  /// Drops stale records once they dominate a heap.
  void CompactHeaps();
  /// Whole-fabric fair-share audit (audit builds): per-link rate
  /// conservation, max-min bottleneck optimality, membership and counter
  /// cross-consistency, and live heap records matching own_at / half_at.
  /// Runs after every Recompute.
  void AuditFairShare() const;

  int num_racks_ = 0;
  int nodes_per_rack_ = 0;
  std::vector<Link> links_;
  std::unordered_map<TransferId, Flow> flows_;
  std::size_t wire_flow_count_ = 0;
  std::uint64_t epoch_ = 0;  ///< BFS visit stamp for Recompute
  /// Lazy min-heaps (std::push_heap/pop_heap on vectors): predicted own
  /// completion times, and earliest times a flow's residue drops under the
  /// done threshold (the piggyback sweep window).
  std::vector<HeapEntry> own_heap_;
  std::vector<HeapEntry> half_heap_;
  // Scratch buffers reused across events (one mutation runs at a time and
  // nothing here re-enters, so plain members avoid a per-event allocation
  // on the hottest path).
  std::vector<CompFlow> comp_flows_;
  std::vector<int> comp_links_;
  std::vector<int> active_links_;
  std::vector<int> saturated_links_;
  std::vector<int> dirty_scratch_;
  std::vector<int> bfs_stack_;
  std::vector<TransferId> done_scratch_;
  std::vector<TransferId> not_yet_scratch_;
  sim::EventId completion_event_;
  FairShareCounters counters_;
  /// CoDel state machines of the per-(uplink, tenant) virtual queues
  /// (inert unless `config_.qos.aqm`).
  qos::CodelAqm aqm_;
};

}  // namespace hoplite::net
