#include "net/rack_fabric.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "common/audit.h"

namespace hoplite::net {

namespace {

/// Wire residue below which a flow counts as finished. Completion events are
/// scheduled at the ceiling nanosecond of remaining/rate, so a finished
/// flow's booked residue is at most rounding error — well under half a byte.
constexpr double kDoneBytes = 0.5;

/// Floor on a WFQ-frozen rate, bytes per second. A float-tie edge case can
/// otherwise freeze a flow at a zero water level, and a zero rate breaks the
/// completion-time division. One byte per second is twelve orders of
/// magnitude under a NIC — scheduling-wise it is "stopped", numerically it
/// is safe.
constexpr double kMinRate = 1.0;

/// Relative tolerance for "this demand group ties the global minimum"
/// when freezing a WFQ round.
constexpr double kFreezeEps = 1e-9;

/// Min-heap comparator for the lazy completion heaps (earliest time first;
/// ties broken by id only to keep the comparison a strict weak order).
struct EntryLater {
  template <typename E>
  [[nodiscard]] bool operator()(const E& a, const E& b) const noexcept {
    return a.time != b.time ? a.time > b.time : a.id > b.id;
  }
};

}  // namespace

RackFabric::RackFabric(sim::Engine& simulator, ClusterConfig config)
    : Fabric(simulator, std::move(config)), aqm_(config_.qos.aqm_tuning) {
  HOPLITE_CHECK_GT(config_.fabric.num_racks, 0);
  HOPLITE_CHECK_GT(config_.fabric.oversubscription, 0.0);
  num_racks_ = std::min(config_.fabric.num_racks, config_.num_nodes);
  nodes_per_rack_ = (config_.num_nodes + num_racks_ - 1) / num_racks_;

  links_.assign(static_cast<std::size_t>(2 * config_.num_nodes + 2 * num_racks_), Link{});
  for (NodeID node = 0; node < config_.num_nodes; ++node) {
    const BytesPerSecond nic = config_.BandwidthOf(node);
    HOPLITE_CHECK_GT(nic, 0.0);
    links_[static_cast<std::size_t>(EgressLink(node))].capacity = nic;
    links_[static_cast<std::size_t>(IngressLink(node))].capacity = nic;
  }
  for (int rack = 0; rack < num_racks_; ++rack) {
    double rack_nic_sum = 0;
    for (NodeID node = 0; node < config_.num_nodes; ++node) {
      if (RackOf(node) == rack) rack_nic_sum += config_.BandwidthOf(node);
    }
    const double tor = rack_nic_sum / config_.fabric.oversubscription;
    links_[static_cast<std::size_t>(UplinkLink(rack))].capacity = tor;
    links_[static_cast<std::size_t>(DownlinkLink(rack))].capacity = tor;
  }
}

int RackFabric::RackOf(NodeID node) const {
  CheckNode(node);
  return std::min(static_cast<int>(node) / nodes_per_rack_, num_racks_ - 1);
}

BytesPerSecond RackFabric::UplinkCapacityOf(int rack) const {
  HOPLITE_CHECK_GE(rack, 0);
  HOPLITE_CHECK_LT(rack, num_racks_);
  return links_[static_cast<std::size_t>(UplinkLink(rack))].capacity;
}

double RackFabric::CurrentRate(TransferId id) const {
  const auto it = flows_.find(id);
  if (it == flows_.end() || it->second.stage != Stage::kWire) return 0;
  return it->second.rate;
}

bool RackFabric::IsStale(const HeapEntry& entry) const {
  const auto it = flows_.find(entry.id);
  return it == flows_.end() || it->second.stage != Stage::kWire ||
         it->second.gen != entry.gen;
}

double RackFabric::RemainingAt(const Flow& flow, SimTime t) {
  if (t == flow.anchor) return flow.remaining;
  const double dt = static_cast<double>(t - flow.anchor) * 1e-9;
  return std::max(0.0, flow.remaining - flow.rate * dt);
}

void RackFabric::Materialize(Flow& flow, SimTime t) {
  flow.remaining = RemainingAt(flow, t);
  flow.anchor = t;
}

void RackFabric::StartTransfer(TransferId id, NodeID src, NodeID dst, std::int64_t bytes,
                               DeliveryCallback on_delivered, FailureCallback on_failed,
                               qos::TenantId tenant) {
  Flow flow;
  flow.src = src;
  flow.dst = dst;
  flow.tenant = tenant;
  flow.on_delivered = std::move(on_delivered);
  flow.on_failed = std::move(on_failed);
  auto [it, inserted] = flows_.emplace(id, std::move(flow));
  HOPLITE_CHECK(inserted);
  Flow& f = it->second;

  if (bytes == 0) {
    // Control message: pure latency, no wire bandwidth.
    EnterDeliveryStage(id, f);
    return;
  }

  f.remaining = static_cast<double>(bytes);
  f.anchor = sim_.Now();
  std::vector<int>& dirty = dirty_scratch_;
  dirty.clear();
  AssignLinks(id, f, dirty);

  Recompute(dirty);
  RescheduleCompletion();
}

void RackFabric::AssignLinks(TransferId id, Flow& flow, std::vector<int>& dirty) {
  flow.num_links = 0;
  flow.links[static_cast<std::size_t>(flow.num_links++)] = EgressLink(flow.src);
  flow.links[static_cast<std::size_t>(flow.num_links++)] = IngressLink(flow.dst);
  const int src_rack = RackOf(flow.src);
  const int dst_rack = RackOf(flow.dst);
  if (src_rack != dst_rack) {
    flow.links[static_cast<std::size_t>(flow.num_links++)] = UplinkLink(src_rack);
    flow.links[static_cast<std::size_t>(flow.num_links++)] = DownlinkLink(dst_rack);
  }
  for (int i = 0; i < flow.num_links; ++i) {
    const int link = flow.links[static_cast<std::size_t>(i)];
    links_[static_cast<std::size_t>(link)].flows.push_back(CompFlow{id, &flow});
    dirty.push_back(link);
  }
  wire_flow_count_ += 1;
}

bool RackFabric::CancelTransfer(TransferId id) {
  auto it = flows_.find(id);
  if (it == flows_.end()) return false;
  Flow& flow = it->second;
  if (flow.stage != Stage::kWire) {
    // kDelivery and kPaused both hold exactly one pending event (the
    // delivery, or the AQM resume) and occupy no links.
    sim_.Cancel(flow.delivery_event);
    flows_.erase(it);
    return true;
  }
  std::vector<int>& dirty = dirty_scratch_;
  dirty.clear();
  DetachFromLinks(id, flow, dirty);
  flows_.erase(it);
  Recompute(dirty);
  RescheduleCompletion();
  return true;
}

void RackFabric::AbortTransfersOf(NodeID node) {
  // Deterministic order: walk the flow table by ascending id and collect the
  // victims before processing (failure callbacks may start new transfers).
  std::vector<TransferId> victims;
  for (const TransferId id : det::SortedKeys(flows_)) {
    const Flow& flow = flows_.find(id)->second;
    if (flow.src == node || flow.dst == node) victims.push_back(id);
  }
  // Collect callbacks before notifying.
  std::vector<FailureCallback> to_notify;
  std::vector<int>& dirty = dirty_scratch_;
  dirty.clear();
  for (const TransferId id : victims) {
    auto it = flows_.find(id);
    Flow& flow = it->second;
    if (flow.stage != Stage::kWire) {
      sim_.Cancel(flow.delivery_event);  // delivery, or the AQM resume
    } else {
      DetachFromLinks(id, flow, dirty);
    }
    if (flow.on_failed != nullptr) to_notify.push_back(std::move(flow.on_failed));
    flows_.erase(it);
  }
  if (!dirty.empty()) {
    Recompute(dirty);
    RescheduleCompletion();
  }
  for (auto& cb : to_notify) {
    ScheduleFailureNotice(std::move(cb), node);
  }
}

void RackFabric::DetachFromLinks(TransferId id, Flow& flow, std::vector<int>& dirty) {
  for (int i = 0; i < flow.num_links; ++i) {
    const int link = flow.links[static_cast<std::size_t>(i)];
    auto& on_link = links_[static_cast<std::size_t>(link)].flows;
    // Find-and-swap-remove: order within a link's list is irrelevant (the
    // component pass sorts by id before anything order-sensitive happens).
    const auto pos = std::find_if(on_link.begin(), on_link.end(),
                                  [id](const CompFlow& cf) { return cf.id == id; });
    HOPLITE_CHECK(pos != on_link.end());
    *pos = on_link.back();
    on_link.pop_back();
    dirty.push_back(link);
  }
  flow.num_links = 0;
  flow.rate = 0;
  ++flow.gen;  // invalidate any completion-heap records
  flow.own_at = kNoRecords;
  wire_flow_count_ -= 1;
}

void RackFabric::Recompute(const std::vector<int>& dirty) {
  const SimTime now = sim_.Now();
  ++epoch_;
  comp_links_.clear();
  comp_flows_.clear();

  // BFS over the sharing graph: every flow on a dirty link, every link of
  // such a flow, transitively.
  std::vector<int>& stack = bfs_stack_;
  stack.clear();
  for (const int link : dirty) {
    Link& l = links_[static_cast<std::size_t>(link)];
    if (l.mark == epoch_) continue;
    l.mark = epoch_;
    comp_links_.push_back(link);
    stack.push_back(link);
  }
  while (!stack.empty()) {
    const int link = stack.back();
    stack.pop_back();
    for (const CompFlow& cf : links_[static_cast<std::size_t>(link)].flows) {
      Flow& f = *cf.flow;
      if (f.mark == epoch_) continue;
      f.mark = epoch_;
      comp_flows_.push_back(cf);
      for (int i = 0; i < f.num_links; ++i) {
        const int fl = f.links[static_cast<std::size_t>(i)];
        Link& l = links_[static_cast<std::size_t>(fl)];
        if (l.mark == epoch_) continue;
        l.mark = epoch_;
        comp_links_.push_back(fl);
        stack.push_back(fl);
      }
    }
  }
  if (comp_flows_.empty()) return;
  ++counters_.recomputes;
  counters_.component_flows += comp_flows_.size();
  // Ascending TransferId: the deterministic iteration order of the filling
  // and of the heap-record refresh below.
  std::sort(comp_flows_.begin(), comp_flows_.end(),
            [](const CompFlow& a, const CompFlow& b) { return a.id < b.id; });

  for (const CompFlow& cf : comp_flows_) {
    Materialize(*cf.flow, now);
    cf.flow->frozen = false;
  }
  for (const int link : comp_links_) {
    Link& l = links_[static_cast<std::size_t>(link)];
    l.unfrozen = static_cast<int>(l.flows.size());
    l.frozen_sum = 0;
  }

  if (config_.qos.wfq) {
    FillWeighted();
  } else {
    FillMaxMin();
  }

  for (const CompFlow& cf : comp_flows_) RefreshCompletionRecords(cf.id, *cf.flow);
  CompactHeaps();
  if (config_.qos.aqm) ArmAqmChecks();
  HOPLITE_AUDIT_SCOPE(AuditFairShare());
}

void RackFabric::FillMaxMin() {
  // Progressive filling by water levels: every round, the lowest per-link
  // fair share among unsaturated links is the level at which those links
  // saturate; their flows freeze at exactly that level. Assigning the level
  // directly (instead of accumulating per-round deltas) makes the result
  // independent of which other components happen to be recomputed alongside
  // — the component-local pass is bit-identical to a whole-fabric pass.
  //
  // A round only needs the links that can still saturate, and only the
  // flows on the links that just did: every freeze within a round adds the
  // same level, so the order of freezes cannot change any frozen_sum.
  std::vector<int>& active = active_links_;
  active.clear();
  for (const int link : comp_links_) {
    if (links_[static_cast<std::size_t>(link)].unfrozen > 0) active.push_back(link);
  }
  std::vector<int>& saturated = saturated_links_;
  int unfrozen_flows = static_cast<int>(comp_flows_.size());
  int guard = unfrozen_flows + static_cast<int>(comp_links_.size()) + 1;
  while (unfrozen_flows > 0 && guard-- > 0) {
    ++counters_.fill_rounds;
    double level = std::numeric_limits<double>::infinity();
    for (const int link : active) {
      const Link& l = links_[static_cast<std::size_t>(link)];
      level = std::min(level, std::max(0.0, l.capacity - l.frozen_sum) / l.unfrozen);
    }
    HOPLITE_CHECK(std::isfinite(level)) << "unfrozen flow with no unsaturated link";
    saturated.clear();
    for (const int link : active) {
      const Link& l = links_[static_cast<std::size_t>(link)];
      const double headroom = l.capacity - (l.frozen_sum + level * l.unfrozen);
      if (headroom <= l.capacity * 1e-9) saturated.push_back(link);
    }
    for (const int link : saturated) {
      for (const CompFlow& cf : links_[static_cast<std::size_t>(link)].flows) {
        Flow& f = *cf.flow;
        if (f.frozen) continue;
        f.frozen = true;
        f.rate = level;
        --unfrozen_flows;
        for (int i = 0; i < f.num_links; ++i) {
          Link& l = links_[static_cast<std::size_t>(f.links[static_cast<std::size_t>(i)])];
          l.unfrozen -= 1;
          l.frozen_sum += level;
        }
      }
    }
    // A saturated link froze all its flows, so one test drops both it and
    // the links whose last unfrozen flow froze elsewhere.
    std::erase_if(active, [this](int link) {
      return links_[static_cast<std::size_t>(link)].unfrozen == 0;
    });
  }
  HOPLITE_CHECK_EQ(unfrozen_flows, 0) << "progressive filling did not converge";
}

void RackFabric::FillWeighted() {
  // Hierarchical (two-level) max-min: each contended link divides capacity
  // across *tenant demand groups* in proportion to QosConfig weights, then
  // evenly across each group's flows. Each round solves every contended
  // link's tenant water level nu (sum over groups of max(frozen, w * nu) ==
  // capacity), derives each group's per-flow candidate rate, and freezes the
  // flows of the globally tightest group(s) at that minimum: those flows are
  // at their hierarchical bottleneck, and every other link they cross can
  // sustain the granted rate (its own candidate was no smaller). Candidates
  // are monotone non-decreasing across rounds, so assigning the global
  // minimum level directly keeps the component-local pass bit-identical to
  // a whole-fabric pass, exactly like FillMaxMin.
  for (const int link : comp_links_) {
    links_[static_cast<std::size_t>(link)].wfq.clear();
  }
  // Build each link's demand groups in first-appearance order of the
  // id-sorted component flows: a deterministic order, so the solver's
  // float-sum order is reproducible run to run.
  for (const CompFlow& cf : comp_flows_) {
    const Flow& f = *cf.flow;
    for (int i = 0; i < f.num_links; ++i) {
      Link& l = links_[static_cast<std::size_t>(f.links[static_cast<std::size_t>(i)])];
      qos::TenantDemand* group = nullptr;
      for (qos::TenantDemand& g : l.wfq) {
        if (g.tenant == f.tenant) {
          group = &g;
          break;
        }
      }
      if (group == nullptr) {
        l.wfq.push_back(qos::TenantDemand{f.tenant, config_.qos.WeightOf(f.tenant),
                                          /*frozen=*/0.0, /*unfrozen=*/0, /*cand=*/0.0});
        group = &l.wfq.back();
      }
      group->unfrozen += 1;
    }
  }

  int unfrozen_flows = static_cast<int>(comp_flows_.size());
  int guard = unfrozen_flows + static_cast<int>(comp_links_.size()) + 1;
  while (unfrozen_flows > 0 && guard-- > 0) {
    ++counters_.fill_rounds;
    double best = std::numeric_limits<double>::infinity();
    for (const int link : comp_links_) {
      Link& l = links_[static_cast<std::size_t>(link)];
      if (l.unfrozen == 0) continue;
      const double nu = qos::SolveTenantWaterLevel(l.wfq, l.capacity);
      for (qos::TenantDemand& g : l.wfq) {
        if (g.unfrozen == 0) continue;
        g.cand = std::max(0.0, g.weight * nu - g.frozen) / g.unfrozen;
        best = std::min(best, g.cand);
      }
    }
    HOPLITE_CHECK(std::isfinite(best)) << "unfrozen flow with no contended link";
    const double rate = std::max(best, kMinRate);
    const double cut = best + std::max(best, 1.0) * kFreezeEps;
    for (const CompFlow& cf : comp_flows_) {
      Flow& f = *cf.flow;
      if (f.frozen) continue;
      bool tightest = false;
      for (int i = 0; i < f.num_links && !tightest; ++i) {
        const Link& l =
            links_[static_cast<std::size_t>(f.links[static_cast<std::size_t>(i)])];
        for (const qos::TenantDemand& g : l.wfq) {
          if (g.tenant == f.tenant) {
            tightest = g.unfrozen > 0 && g.cand <= cut;
            break;
          }
        }
      }
      if (!tightest) continue;
      f.frozen = true;
      f.rate = rate;
      --unfrozen_flows;
      for (int i = 0; i < f.num_links; ++i) {
        Link& l = links_[static_cast<std::size_t>(f.links[static_cast<std::size_t>(i)])];
        l.unfrozen -= 1;
        l.frozen_sum += rate;
        for (qos::TenantDemand& g : l.wfq) {
          if (g.tenant == f.tenant) {
            g.frozen += rate;
            g.unfrozen -= 1;
            break;
          }
        }
      }
    }
  }
  HOPLITE_CHECK_EQ(unfrozen_flows, 0) << "weighted filling did not converge";
}

void RackFabric::ArmAqmChecks() {
  // Only ToR uplinks carry AQM queues (the oversubscribed resource). Flows
  // on a component link were just materialized and re-rated by Recompute,
  // so `remaining` / `rate` are current.
  const int first_up = 2 * config_.num_nodes;
  const int last_up = first_up + num_racks_;
  for (const int link : comp_links_) {
    if (link < first_up || link >= last_up) continue;
    det::Map<qos::TenantId, std::pair<double, double>> queues;  // bytes, rate
    for (const CompFlow& cf : links_[static_cast<std::size_t>(link)].flows) {
      const Flow& f = *cf.flow;
      auto& [bytes, rate] = queues[f.tenant];
      bytes += f.remaining;
      rate += f.rate;
    }
    for (const auto& [tenant, load] : queues) {
      const auto& [bytes, rate] = load;
      if (rate <= 0.0) continue;
      if (bytes * 1e9 <= static_cast<double>(aqm_.sojourn_target()) * rate) continue;
      if (aqm_.Arm(link, tenant)) {
        sim_.ScheduleAfter(aqm_.interval(),
                           [this, link, tenant] { OnAqmCheck(link, tenant); });
      }
    }
  }
}

std::pair<double, double> RackFabric::TenantLoadOn(int link,
                                                   qos::TenantId tenant) const {
  const SimTime now = sim_.Now();
  double bytes = 0;
  double rate = 0;
  for (const CompFlow& cf : links_[static_cast<std::size_t>(link)].flows) {
    const Flow& f = *cf.flow;
    if (f.tenant != tenant) continue;
    bytes += RemainingAt(f, now);
    rate += f.rate;
  }
  return {bytes, rate};
}

void RackFabric::OnAqmCheck(int link, qos::TenantId tenant) {
  const auto [bytes, rate] = TenantLoadOn(link, tenant);
  const bool above =
      rate > 0.0 && bytes * 1e9 > static_cast<double>(aqm_.sojourn_target()) * rate;
  const qos::CodelAqm::Verdict verdict = aqm_.OnCheck(link, tenant, above);
  if (!verdict.mark) return;  // back under target: queue reset to quiescent

  // CoDel's early "drop", applied to the queue the sojourn was measured
  // over: every flow of the tenant's virtual queue on this link leaves the
  // wire for one pause, and each distinct sending client hears about it.
  // Pausing a single flow could not help anyone under WFQ — the tenant's
  // link share is unchanged while its other flows stay on the wire — so
  // the mark backs the whole per-tenant queue off, the flow-queuing
  // analogue of CE-marking the aggregate.
  std::vector<CompFlow> queue;
  for (const CompFlow& cf : links_[static_cast<std::size_t>(link)].flows) {
    if (cf.flow->tenant == tenant) queue.push_back(cf);
  }
  det::Set<NodeID> senders;
  for (const CompFlow& cf : queue) {
    senders.insert(cf.flow->src);
    PauseFlow(cf.id);
  }
  for (const NodeID src : senders) NotifyBackpressure(src, tenant);
  sim_.ScheduleAfter(verdict.next_check,
                     [this, link, tenant] { OnAqmCheck(link, tenant); });
}

void RackFabric::PauseFlow(TransferId id) {
  auto it = flows_.find(id);
  HOPLITE_CHECK(it != flows_.end());
  Flow& flow = it->second;
  HOPLITE_CHECK(flow.stage == Stage::kWire);
  Materialize(flow, sim_.Now());
  std::vector<int>& dirty = dirty_scratch_;
  dirty.clear();
  DetachFromLinks(id, flow, dirty);
  flow.stage = Stage::kPaused;
  flow.delivery_event =
      sim_.ScheduleAfter(aqm_.pause(), [this, id] { ResumeFlow(id); });
  Recompute(dirty);
  RescheduleCompletion();
}

void RackFabric::ResumeFlow(TransferId id) {
  auto it = flows_.find(id);
  HOPLITE_CHECK(it != flows_.end());
  Flow& flow = it->second;
  HOPLITE_CHECK(flow.stage == Stage::kPaused);
  flow.stage = Stage::kWire;
  flow.delivery_event = sim::EventId{};
  flow.anchor = sim_.Now();
  std::vector<int>& dirty = dirty_scratch_;
  dirty.clear();
  AssignLinks(id, flow, dirty);
  Recompute(dirty);
  RescheduleCompletion();
}

void RackFabric::AuditFairShare() const {
  // Covers the whole fabric, not just the recomputed component: untouched
  // components keep their rates, so their invariants must still hold.
  const double eps = 1e-3;
  std::vector<double> rate_sum(links_.size(), 0);
  std::vector<double> rate_max(links_.size(), 0);
  std::size_t wire_flows_on_links = 0;
  for (std::size_t link = 0; link < links_.size(); ++link) {
    for (const CompFlow& cf : links_[link].flows) {
      const auto it = flows_.find(cf.id);
      HOPLITE_AUDIT(it != flows_.end() && &it->second == cf.flow)
          << "link lists unknown flow " << cf.id;
      const Flow& f = *cf.flow;
      HOPLITE_AUDIT(f.stage == Stage::kWire) << "link lists delivered flow " << cf.id;
      rate_sum[link] += f.rate;
      rate_max[link] = std::max(rate_max[link], f.rate);
    }
    wire_flows_on_links += links_[link].flows.size();
    // Rate conservation: granted fair shares never exceed the link capacity.
    // WFQ mode clamps frozen rates to kMinRate, which can numerically
    // overshoot by up to one clamp per flow on the link.
    const double clamp_slack =
        config_.qos.wfq ? static_cast<double>(links_[link].flows.size()) * kMinRate : 0.0;
    HOPLITE_AUDIT(rate_sum[link] <= links_[link].capacity * (1 + 1e-6) + eps + clamp_slack)
        << "link " << link << " oversubscribed: " << rate_sum[link] << " of "
        << links_[link].capacity;
  }
  std::size_t wire_count = 0;
  for (const TransferId id : det::SortedKeys(flows_)) {
    const Flow& f = flows_.find(id)->second;
    if (f.stage != Stage::kWire) continue;
    ++wire_count;
    HOPLITE_AUDIT(f.num_links == 2 || f.num_links == 4)
        << "wire flow " << id << " crosses " << f.num_links << " links";
    HOPLITE_AUDIT(f.rate >= 0 && f.remaining >= 0) << "flow " << id;
    // Max-min optimality: every wire flow is bottlenecked somewhere — it
    // crosses a link with no slack where no concurrent flow gets more.
    // Per-flow equality does not hold under WFQ (shares are weighted by
    // tenant and split within the tenant, so concurrent flows on the
    // bottleneck legitimately differ); conservation, membership and the
    // counters above are the audited invariants in that mode.
    if (!config_.qos.wfq) {
      bool bottlenecked = false;
      for (int i = 0; i < f.num_links && !bottlenecked; ++i) {
        const auto link = static_cast<std::size_t>(f.links[static_cast<std::size_t>(i)]);
        const double slack = links_[link].capacity - rate_sum[link];
        bottlenecked = slack <= links_[link].capacity * 1e-6 + eps &&
                       f.rate >= rate_max[link] - eps;
      }
      HOPLITE_AUDIT(bottlenecked)
          << "flow " << id << " (rate " << f.rate << ") has no max-min bottleneck";
    }
    // Membership: the flow appears on each of its links' lists.
    for (int i = 0; i < f.num_links; ++i) {
      const auto& on_link =
          links_[static_cast<std::size_t>(f.links[static_cast<std::size_t>(i)])].flows;
      HOPLITE_AUDIT(std::any_of(on_link.begin(), on_link.end(),
                                [id](const CompFlow& cf) { return cf.id == id; }))
          << "flow " << id << " missing from its link list";
    }
  }
  HOPLITE_AUDIT(wire_count == wire_flow_count_)
      << "(" << wire_count << " wire flows vs counter " << wire_flow_count_ << ")";
  // Every link membership belongs to a wire flow, and wire flows appear on
  // exactly num_links lists: the totals must agree.
  std::size_t expected_memberships = 0;
  std::size_t recorded = 0;
  for (const TransferId id : det::SortedKeys(flows_)) {
    const Flow& f = flows_.find(id)->second;
    if (f.stage != Stage::kWire) continue;
    expected_memberships += static_cast<std::size_t>(f.num_links);
    if (f.own_at != kNoRecords && f.own_at != kSimTimeMax) ++recorded;
  }
  HOPLITE_AUDIT(wire_flows_on_links == expected_memberships)
      << "(" << wire_flows_on_links << " link memberships vs " << expected_memberships << ")";
  // Completion records: a flow whose own_at is a time holds exactly one live
  // record in each heap, at own_at and half_at (a kept record is as good as
  // a re-pushed one only if it is really there). Live records of a flow
  // marked kNoRecords are tolerated: OnWireCompletion re-pushes those.
  const auto live_records = [this](const std::vector<HeapEntry>& heap, bool own) {
    std::size_t live = 0;
    for (const HeapEntry& e : heap) {
      if (IsStale(e)) continue;
      const Flow& f = flows_.find(e.id)->second;
      if (f.own_at == kNoRecords) continue;
      HOPLITE_AUDIT(e.time == (own ? f.own_at : f.half_at))
          << "flow " << e.id << " record at " << e.time << " disagrees with its flow";
      ++live;
    }
    return live;
  };
  HOPLITE_AUDIT(live_records(own_heap_, true) == recorded) << "own-heap records lost";
  HOPLITE_AUDIT(live_records(half_heap_, false) == recorded) << "half-heap records lost";
}

void RackFabric::RefreshCompletionRecords(TransferId id, Flow& flow) {
  const SimTime now = flow.anchor;
  SimTime t_own = kSimTimeMax;
  SimTime t_half = kSimTimeMax;
  if (flow.remaining <= kDoneBytes) {
    t_own = now;
    t_half = now;
  } else if (flow.rate > 0) {
    const double own_ns = std::ceil(flow.remaining / flow.rate * 1e9);
    if (own_ns < static_cast<double>(kSimTimeMax - now)) {
      // Floor of one nanosecond: a residue that rounds to a zero-length
      // completion must still move time forward, or the completion event
      // reschedules itself at `now` forever.
      t_own = now + std::max<SimTime>(1, static_cast<SimTime>(own_ns));
      const double half_ns = std::ceil((flow.remaining - kDoneBytes) / flow.rate * 1e9);
      t_half = now + std::max<SimTime>(1, static_cast<SimTime>(std::max(0.0, half_ns)));
      // ceil() worked on rounded quotients; nudge onto the exact boundary
      // of the booked-remaining test so the sweep window matches a full
      // per-event scan. At most a couple of probes each way.
      for (int probe = 0; probe < 4 && t_half > now + 1 &&
                          RemainingAt(flow, t_half - 1) <= kDoneBytes;
           ++probe) {
        --t_half;
      }
      for (int probe = 0;
           probe < 4 && t_half < t_own && RemainingAt(flow, t_half) > kDoneBytes;
           ++probe) {
        ++t_half;
      }
      t_half = std::min(t_half, t_own);
    }
  }
  // Same times as the live records: keeping them is indistinguishable from
  // re-pushing, since the heaps act only on the (time, id) of live records.
  if (t_own == flow.own_at && t_half == flow.half_at) return;
  ++flow.gen;
  flow.own_at = t_own;
  flow.half_at = t_half;
  if (t_own == kSimTimeMax) return;  // no rate: waits for the next recompute
  ++counters_.records_pushed;
  own_heap_.push_back(HeapEntry{t_own, id, flow.gen});
  std::push_heap(own_heap_.begin(), own_heap_.end(), EntryLater{});
  half_heap_.push_back(HeapEntry{t_half, id, flow.gen});
  std::push_heap(half_heap_.begin(), half_heap_.end(), EntryLater{});
}

void RackFabric::RescheduleCompletion() {
  if (completion_event_.IsValid()) {
    sim_.Cancel(completion_event_);
    completion_event_ = sim::EventId{};
  }
  const SimTime now = sim_.Now();
  const auto valid_top = [this](std::vector<HeapEntry>& heap) -> const HeapEntry* {
    while (!heap.empty()) {
      const HeapEntry& top = heap.front();
      if (IsStale(top)) {
        std::pop_heap(heap.begin(), heap.end(), EntryLater{});
        heap.pop_back();
        continue;
      }
      return &top;
    }
    return nullptr;
  };
  const HeapEntry* own = valid_top(own_heap_);
  if (own == nullptr) return;
  SimTime at = std::max(own->time, now);
  // A flow whose residue has already drained under the done threshold
  // completes at the very next opportunity: any mutation that lands while
  // it is sub-residue fires the completion sweep immediately, exactly like
  // the old per-event full scan's `remaining <= done -> at = now` rule.
  const HeapEntry* half = valid_top(half_heap_);
  if (half != nullptr && half->time <= now) at = now;
  completion_event_ = sim_.ScheduleAt(at, [this] { OnWireCompletion(); });
}

void RackFabric::OnWireCompletion() {
  completion_event_ = sim::EventId{};
  const SimTime now = sim_.Now();
  std::vector<TransferId>& done = done_scratch_;
  std::vector<TransferId>& not_yet = not_yet_scratch_;
  done.clear();
  not_yet.clear();
  while (!half_heap_.empty() && half_heap_.front().time <= now) {
    const HeapEntry e = half_heap_.front();
    std::pop_heap(half_heap_.begin(), half_heap_.end(), EntryLater{});
    half_heap_.pop_back();
    if (IsStale(e)) continue;
    Flow& flow = flows_.find(e.id)->second;
    if (RemainingAt(flow, now) <= kDoneBytes) {
      done.push_back(e.id);
    } else {
      // Its half record is gone: the refresh below must push, even where
      // the prediction matches the (now half-dead) records.
      flow.own_at = kNoRecords;
      not_yet.push_back(e.id);
    }
  }
  // Completions run in ascending TransferId order, exactly like the old
  // whole-map sweep.
  std::sort(done.begin(), done.end());
  std::vector<int>& dirty = dirty_scratch_;
  dirty.clear();
  for (const TransferId id : done) {
    Flow& flow = flows_.find(id)->second;
    DetachFromLinks(id, flow, dirty);
    EnterDeliveryStage(id, flow);
  }
  const bool recomputed = !dirty.empty();
  if (recomputed) Recompute(dirty);
  // Residue not under the threshold yet (the sweep window was conservative):
  // re-anchor and push fresh records so the next event still sees the flow —
  // unless this event's Recompute already refreshed it (its component shared
  // a link with a completing flow), which would have made a pre-Recompute
  // push instant garbage in both heaps.
  for (const TransferId id : not_yet) {
    Flow& flow = flows_.find(id)->second;
    if (recomputed && flow.mark == epoch_) continue;
    Materialize(flow, now);
    RefreshCompletionRecords(id, flow);
  }
  RescheduleCompletion();
}

void RackFabric::EnterDeliveryStage(TransferId id, Flow& flow) {
  flow.stage = Stage::kDelivery;
  SimDuration latency = config_.one_way_latency + config_.per_message_overhead;
  if (RackOf(flow.src) != RackOf(flow.dst)) {
    latency += config_.fabric.cross_rack_extra_latency;
  }
  flow.delivery_event = sim_.ScheduleAfter(latency, [this, id] {
    auto it = flows_.find(id);
    HOPLITE_CHECK(it != flows_.end());
    DeliveryCallback cb = std::move(it->second.on_delivered);
    flows_.erase(it);
    cb();
  });
}

void RackFabric::CompactHeaps() {
  const auto compact = [this](std::vector<HeapEntry>& heap) {
    if (heap.size() < 64 || heap.size() <= 2 * wire_flow_count_ + 16) return;
    heap.erase(std::remove_if(heap.begin(), heap.end(),
                              [this](const HeapEntry& e) { return IsStale(e); }),
               heap.end());
    std::make_heap(heap.begin(), heap.end(), EntryLater{});
  };
  compact(own_heap_);
  compact(half_heap_);
}

}  // namespace hoplite::net
