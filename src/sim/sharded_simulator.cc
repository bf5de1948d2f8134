#include "sim/sharded_simulator.h"

#include <algorithm>
#include <utility>

namespace hoplite::sim {

thread_local ShardedSimulator::ExecContext ShardedSimulator::tls_ctx_;

ShardedSimulator::ShardedSimulator(Options options) {
  HOPLITE_CHECK_GE(options.shards, 1);
  HOPLITE_CHECK_LE(options.shards, 256) << "unreasonable shard count";
  shards_.resize(static_cast<std::size_t>(options.shards));
  for (Shard& shard : shards_) {
    shard.mail_to.resize(shards_.size());
  }
  // Index 0: the driver-context sentinel (no lane, never scheduled into).
  domains_.push_back(nullptr);
}

ShardedSimulator::~ShardedSimulator() { StopWorkers(); }

DomainId ShardedSimulator::AddDomain(std::string name) {
  const std::uint32_t shard = next_shard_rr_;
  next_shard_rr_ = (next_shard_rr_ + 1) % static_cast<std::uint32_t>(shards_.size());
  return AddDomain(std::move(name), static_cast<int>(shard));
}

DomainId ShardedSimulator::AddDomain(std::string name, int shard) {
  HOPLITE_CHECK(!in_window_);
  HOPLITE_CHECK_GE(shard, 0);
  HOPLITE_CHECK_LT(shard, static_cast<int>(shards_.size()));
  const DomainId id = static_cast<DomainId>(domains_.size());
  auto dom = std::make_unique<Domain>();
  dom->name = std::move(name);
  dom->id = id;
  dom->shard = static_cast<std::uint32_t>(shard);
  dom->lane = std::make_unique<Lane>(this, id);
  domains_.push_back(std::move(dom));
  // Lookahead matrices cover [0, num domains]; refresh every row.
  for (const std::unique_ptr<Domain>& d : domains_) {
    if (d != nullptr) d->lookahead_out.resize(domains_.size(), kNever);
  }
  return id;
}

void ShardedSimulator::SetLookahead(DomainId src, DomainId dst, SimDuration lookahead) {
  HOPLITE_CHECK(!in_window_);
  HOPLITE_CHECK_GE(src, 1u);
  HOPLITE_CHECK_LT(src, domains_.size());
  HOPLITE_CHECK_GE(dst, 1u);
  HOPLITE_CHECK_LT(dst, domains_.size());
  HOPLITE_CHECK(src != dst) << "lookahead is for cross-domain edges";
  HOPLITE_CHECK_GT(lookahead, 0) << "conservative lookahead must be positive";
  domains_[src]->lookahead_out[dst] = lookahead;
}

Engine& ShardedSimulator::domain(DomainId id) {
  HOPLITE_CHECK_GE(id, 1u);
  HOPLITE_CHECK_LT(id, domains_.size());
  return *domains_[id]->lane;
}

// ----------------------------------------------------------------------
// Lane backends.
// ----------------------------------------------------------------------

SimTime ShardedSimulator::LaneNow(DomainId id) const {
  // Inside one of this engine's callbacks the clock is the executing event's
  // time — the single global "current instant" — regardless of which lane is
  // asked. Outside, it is the domain's shard clock.
  if (const ExecContext* ctx = CurrentContext(); ctx != nullptr) return ctx->now;
  return shards_[domains_[id]->shard].now;
}

EventId ShardedSimulator::LaneScheduleAt(DomainId id, SimTime t, Engine::Callback fn) {
  HOPLITE_CHECK(fn != nullptr);
  const Domain& dst = *domains_[id];
  const ExecContext* ctx = CurrentContext();
  if (ctx == nullptr) {
    // Driver-context (root) schedule: only legal while the engine is parked
    // at a barrier, from the driver thread. Root order key: every event
    // executed so far happens-before this call, so parent_step = total
    // executed; parent_domain 0 sorts root schedules before same-step
    // children of real domains, matching the reference engine's FIFO.
    HOPLITE_CHECK(!in_window_) << "driver-context schedule during a parallel window";
    HOPLITE_CHECK_GE(t, shards_[dst.shard].now) << "cannot schedule into the past";
    const TieBreak tb{total_executed_, 0, static_cast<std::uint32_t>(root_calls_++)};
    return Commit(dst, t, tb, std::move(fn));
  }
  HOPLITE_CHECK_GE(t, ctx->now) << "cannot schedule into the past";
  const TieBreak tb{ctx->step, ctx->domain, tls_ctx_.next_idx++};
  if (ctx->domain == id) {
    // Same-domain: the executing worker owns the domain's shard.
    return Commit(dst, t, tb, std::move(fn));
  }
  // Cross-domain: must honor the declared lookahead edge.
  const Domain& src = *domains_[ctx->domain];
  const SimDuration lookahead = src.lookahead_out[id];
  HOPLITE_CHECK(lookahead != kNever)
      << "domain '" << src.name << "' schedules into '" << dst.name
      << "' without a declared lookahead edge (SetLookahead)";
  HOPLITE_CHECK_GE(t, ctx->now + lookahead)
      << "cross-domain schedule from '" << src.name << "' into '" << dst.name
      << "' violates its declared lookahead";
  if (dst.shard == ctx->shard) {
    // Same shard: the worker owns the destination queue too; commit directly.
    return Commit(dst, t, tb, std::move(fn));
  }
  // Cross-shard: park in the sender's outbox; the record (and its slot) is
  // materialized at the barrier by the driver. No cancellable handle —
  // cross-domain cancellation is not part of the contract.
  shards_[ctx->shard].mail_to[dst.shard].push_back(Mail{t, tb, id, std::move(fn)});
  return EventId{};
}

EventId ShardedSimulator::Commit(const Domain& dom, SimTime t, TieBreak tb,
                                 Engine::Callback fn) {
  return shards_[dom.shard].queue.Push(Key{t, tb}, std::move(fn), dom.id);
}

bool ShardedSimulator::LaneCancel(DomainId id, EventId ev) {
  const Domain& dom = *domains_[id];
  const ExecContext* ctx = CurrentContext();
  if (ctx == nullptr) {
    HOPLITE_CHECK(!in_window_) << "driver-context cancel during a parallel window";
  } else {
    HOPLITE_CHECK(ctx->domain == id)
        << "cross-domain cancel (from '" << domains_[ctx->domain]->name << "' into '"
        << dom.name << "') is outside the sharded-engine contract";
  }
  return shards_[dom.shard].queue.Cancel(ev, id);
}

// ----------------------------------------------------------------------
// Execution core.
// ----------------------------------------------------------------------

void ShardedSimulator::ExecuteHead(Shard& shard) {
  EventQueue<Key>::Fired ev = shard.queue.Pop();
  HOPLITE_CHECK_GE(ev.key.time, shard.now);
  shard.now = ev.key.time;
  ++shard.executed;
  Domain& dom = *domains_[ev.owner];
  const std::uint64_t step = dom.executed++;
  if constexpr (audit::kEnabled) {
    if ((shard.executed & (kAuditPeriod - 1)) == 0) AuditShard(shard);
  }
  ExecContext saved = tls_ctx_;
  tls_ctx_ = ExecContext{this, ev.owner, dom.shard, step, 0, ev.key.time};
  ev.fn();
  tls_ctx_ = saved;
}

void ShardedSimulator::RunWindow(Shard& shard) {
  for (const Key* head = shard.queue.Peek(); head != nullptr && head->time < shard.horizon;
       head = shard.queue.Peek()) {
    ExecuteHead(shard);
  }
}

void ShardedSimulator::DrainMail() {
  for (Shard& src : shards_) {
    for (std::size_t dst_index = 0; dst_index < src.mail_to.size(); ++dst_index) {
      std::vector<Mail>& box = src.mail_to[dst_index];
      for (Mail& mail : box) {
        Commit(*domains_[mail.dst], mail.time, mail.tb, std::move(mail.fn));
      }
      box.clear();
    }
  }
}

bool ShardedSimulator::WindowStep() {
  // All workers parked; the driver owns every shard here.
  struct Head {
    bool has = false;
    SimTime time = 0;
  };
  std::vector<Head> heads(shards_.size());
  bool any = false;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    if (const Key* head = shards_[s].queue.Peek(); head != nullptr) {
      heads[s] = Head{true, head->time};
      any = true;
    }
  }
  if (!any) return false;

  // Minimum lookahead between shard pairs, from the domain placement. Cheap
  // relative to a window (shards and domains are few); recomputed per window
  // so AddDomain/SetLookahead between runs need no invalidation hooks.
  const std::size_t n = shards_.size();
  std::vector<SimDuration> min_l(n * n, kNever);
  for (DomainId src = 1; src < domains_.size(); ++src) {
    const Domain& sd = *domains_[src];
    for (DomainId dst = 1; dst < domains_.size(); ++dst) {
      const SimDuration l = sd.lookahead_out[dst];
      if (l == kNever || domains_[dst]->shard == sd.shard) continue;
      SimDuration& cell = min_l[sd.shard * n + domains_[dst]->shard];
      cell = std::min(cell, l);
    }
  }

  // Lower bound on the time of the next event each shard could possibly
  // execute — its own head, or mail it might still receive: an *empty* shard
  // constrains its neighbors too, because a message into it can trigger a
  // reply. Classic CMB fixpoint; relaxation converges in <= n passes over
  // the (tiny) shard graph because every edge adds positive lookahead.
  std::vector<SimTime> lb(n, kNever);
  for (std::size_t s = 0; s < n; ++s) {
    if (heads[s].has) lb[s] = heads[s].time;
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (std::size_t src = 0; src < n; ++src) {
      if (lb[src] == kNever) continue;
      for (std::size_t dst = 0; dst < n; ++dst) {
        const SimDuration l = min_l[src * n + dst];
        if (l == kNever) continue;
        const SimTime via = lb[src] + l;
        if (via < lb[dst]) {
          lb[dst] = via;
          changed = true;
        }
      }
    }
  }

  int runnable_count = 0;
  std::size_t sole_runnable = 0;
  for (std::size_t s = 0; s < n; ++s) {
    Shard& shard = shards_[s];
    shard.runnable = false;
    if (!heads[s].has) continue;
    SimTime horizon = kNever;
    for (std::size_t other = 0; other < n; ++other) {
      if (other == s || lb[other] == kNever) continue;
      const SimDuration l = min_l[other * n + s];
      if (l == kNever) continue;
      horizon = std::min(horizon, lb[other] + l);
    }
    shard.horizon = horizon;
    if (heads[s].time < horizon) {
      shard.runnable = true;
      sole_runnable = s;
      ++runnable_count;
    }
  }
  // Conservative horizons always free the globally-least head, so progress
  // is guaranteed as long as anything is pending.
  HOPLITE_CHECK_GT(runnable_count, 0);
  max_parallel_shards_ = std::max(max_parallel_shards_, runnable_count);

  if (runnable_count == 1) {
    // Inline fast path: no worker handoff. A single-domain engine executes
    // its entire run here, in one window, on the caller thread.
    RunWindow(shards_[sole_runnable]);
  } else {
    StartWorkers();
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      in_window_ = true;
      remaining_ = runnable_count;
      ++epoch_;
      work_cv_.notify_all();
      done_cv_.wait(lock, [this] { return remaining_ == 0; });
      in_window_ = false;
    }
  }
  DrainMail();
  for (Shard& shard : shards_) {
    total_executed_ += shard.executed;
    shard.executed = 0;
  }
  ++barriers_;
  if constexpr (audit::kEnabled) AuditInvariants();
  return true;
}

void ShardedSimulator::Run() {
  HOPLITE_CHECK(CurrentContext() == nullptr) << "Run() from inside an event callback";
  while (WindowStep()) {
  }
}

ShardedSimulator::Shard* ShardedSimulator::FindGlobalHead() {
  Shard* best = nullptr;
  const Key* best_head = nullptr;
  for (Shard& shard : shards_) {
    const Key* head = shard.queue.Peek();
    if (head == nullptr) continue;
    if (best_head == nullptr || *head < *best_head) {
      best = &shard;
      best_head = head;
    }
  }
  return best;
}

bool ShardedSimulator::SequencedStep(SimTime deadline) {
  // Pick the globally least head by (time, tie-break) and run just that
  // event on the caller thread; deliver any mail it produced immediately.
  // Equivalent to windowed execution under the domain-isolation contract,
  // and exactly the reference engine's order for single-domain workloads.
  Shard* best = FindGlobalHead();
  if (best == nullptr || best->queue.Peek()->time > deadline) return false;
  ExecuteHead(*best);
  DrainMail();
  total_executed_ += best->executed;
  best->executed = 0;
  return true;
}

void ShardedSimulator::RunUntil(SimTime deadline) {
  HOPLITE_CHECK(CurrentContext() == nullptr) << "RunUntil() from inside an event callback";
  while (SequencedStep(deadline)) {
  }
  for (Shard& shard : shards_) {
    shard.now = std::max(shard.now, deadline);
  }
}

bool ShardedSimulator::RunUntilPredicate(const std::function<bool()>& pred) {
  HOPLITE_CHECK(CurrentContext() == nullptr)
      << "RunUntilPredicate() from inside an event callback";
  if (pred()) return true;
  while (SequencedStep()) {
    if (pred()) return true;
  }
  return pred();
}

bool ShardedSimulator::Idle() const {
  for (const Shard& shard : shards_) {
    if (!shard.queue.Empty()) return false;
    for (const std::vector<Mail>& box : shard.mail_to) {
      if (!box.empty()) return false;
    }
  }
  return true;
}

// ----------------------------------------------------------------------
// Worker pool.
// ----------------------------------------------------------------------

void ShardedSimulator::StartWorkers() {
  if (!workers_.empty()) return;
  workers_.reserve(shards_.size());
  for (std::uint32_t s = 0; s < shards_.size(); ++s) {
    workers_.emplace_back([this, s] { WorkerLoop(s); });
  }
}

void ShardedSimulator::StopWorkers() {
  if (workers_.empty()) return;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    stopping_ = true;
    ++epoch_;
    work_cv_.notify_all();
  }
  for (std::thread& worker : workers_) {
    worker.join();
  }
  workers_.clear();
}

void ShardedSimulator::WorkerLoop(std::uint32_t shard_index) {
  std::uint64_t seen_epoch = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      work_cv_.wait(lock, [&] { return epoch_ != seen_epoch; });
      seen_epoch = epoch_;
      if (stopping_) return;
      if (!shards_[shard_index].runnable) continue;
    }
    // The mutex handshake above orders the driver's barrier-time writes
    // before this window's reads; the shard is exclusively ours until we
    // report done.
    RunWindow(shards_[shard_index]);
    {
      std::lock_guard<std::mutex> lock(pool_mu_);
      shards_[shard_index].runnable = false;
      if (--remaining_ == 0) done_cv_.notify_all();
    }
  }
}

// ----------------------------------------------------------------------
// Audits.
// ----------------------------------------------------------------------

void ShardedSimulator::AuditShard(const Shard& shard) const {
  shard.queue.AuditInvariants(shard.now);
  shard.queue.ForEachLive([&](const Key& /*key*/, DomainId domain) {
    HOPLITE_AUDIT(domain >= 1 && domain < domains_.size());
    HOPLITE_AUDIT(&shards_[domains_[domain]->shard] == &shard)
        << "event of domain '" << domains_[domain]->name << "' on a foreign shard";
  });
}

void ShardedSimulator::AuditInvariants() const {
  for (const Shard& shard : shards_) {
    AuditShard(shard);
    for (const std::vector<Mail>& box : shard.mail_to) {
      HOPLITE_AUDIT(box.empty()) << "outbox not drained at a barrier";
    }
  }
}

}  // namespace hoplite::sim
