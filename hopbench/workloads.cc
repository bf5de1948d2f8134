// The four benchmark workloads, each the home of one layer:
//   wide-broadcast  directory (every claim scans the object's locations)
//   async-reduce    net (rack fair-share across staggered multi-chunk flows)
//   serving         sim + qos (many small ops, WFQ on)
//   churn           store/cache (eviction scans, stale-location re-reads)
// Collective workloads drive a HopliteCluster through the client API;
// serving and churn replay a workload-engine trace through the repo's own
// Hoplite WorkloadBackend, wrapped by a forwarding backend that times every
// Issue and checks the open-loop generator is never late.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <utility>

#include "bench.h"
#include "core/client.h"
#include "core/cluster.h"
#include "net/fabric.h"
#include "sim/engine.h"
#include "store/buffer.h"
#include "workload/backend.h"
#include "workload/driver.h"
#include "workload/scenario.h"
#include "workload/scenarios.h"

namespace hopbench {
namespace {

using hoplite::KB;
using hoplite::MB;
using hoplite::Milliseconds;
using hoplite::NodeID;
using hoplite::ObjectID;
using hoplite::Ref;
using hoplite::Rng;
using hoplite::Seconds;
using hoplite::ToSeconds;
using hoplite::core::GetOptions;
using hoplite::core::HopliteCluster;
namespace wl = hoplite::workload;

constexpr std::int64_t kCollectiveBytes = MB(32);
constexpr hoplite::SimDuration kStagger = Milliseconds(10);

// Frozen latency limits: 5x each class's unloaded latency as printed by
// `hopbench --calibrate` when the benchmark was defined. A collective
// participant's unloaded latency is its median latency in the same
// collective with every input ready at t = 0; an engine-workload class's is
// its median latency with every arrival rate scaled to 1%. Changing these
// redefines slo_frac and qos.capacity_qps.
constexpr double kWideLimitsMs[] = {16.775, 34965.7};              // put, receiver
constexpr double kReduceLimitsMs[] = {696.06, 5021.4};             // reduce, allreduce
constexpr double kServingLimitsMs[] = {1681.1, 1.32, 69.45};       // queries, votes, bulk
constexpr double kChurnLimitsMs[] = {0.43, 5.245, 8.225, 81.04};   // put, get, bcast, reduce

/// Per-cell seed: cells of one pass draw independent streams.
[[nodiscard]] std::uint64_t CellSeed(std::uint64_t seed, int cell) {
  return seed * 0x9e3779b97f4a7c15ull +
         static_cast<std::uint64_t>(cell) * 0x632be59bd9b4e019ull + 1;
}


/// Sums the cluster's public counters into `result`.
void CollectClusterCounters(HopliteCluster& cluster, PassResult& result) {
  result.events += cluster.simulator().executed_events();
  result.directory_ops += cluster.directory().ops_served();
  for (NodeID n = 0; n < cluster.num_nodes(); ++n) {
    const hoplite::net::NodeTrafficStats& traffic = cluster.network().TrafficOf(n);
    result.wire_bytes += traffic.bytes_sent;
    result.messages += traffic.messages_sent;
    const hoplite::store::LocalStore& store = cluster.store(n);
    result.evictions += store.evictions();
    result.hits += store.hits();
    result.misses += store.misses();
    result.peak_used_bytes = std::max(result.peak_used_bytes, store.peak_used_bytes());
  }
}

/// Wraps one client call in an op span (traced runs only) and records the
/// settle instant into the op record and the span.
template <typename T, typename Call>
Ref<T> IssueOp(Tracer* tracer, PassResult& result, std::size_t index, HopliteCluster& cluster,
               const char* name, Call call) {
  std::size_t span = 0;
  double t0 = 0;
  if (tracer != nullptr) {
    span = tracer->Begin(name, "issue", static_cast<std::int64_t>(index), cluster.Now());
    t0 = HostNow();
  }
  Ref<T> ref = call();
  if (tracer != nullptr) {
    result.issue_s += HostNow() - t0;
    tracer->End(span);
  }
  ref.OnSettled([&result, &cluster, index, tracer, span](const Ref<T>& settled) {
    OpRecord& op = result.ops[index];
    op.settled = cluster.Now();
    op.ok = settled.ready();
    if (!op.ok) op.code = settled.error().code;
    if (tracer != nullptr) tracer->SetSettle(span, op.settled);
  });
  return ref;
}

/// Checks a participant's received buffer: ready and of the object's size.
void CheckBuffer(const Ref<hoplite::store::Buffer>& ref, std::int64_t bytes, const char* what,
                 PassResult& result) {
  if (!ref.ready()) {
    result.check_failures.push_back(std::string(what) + ": participant ref not ready");
  } else if (ref.value().size() != bytes) {
    result.check_failures.push_back(std::string(what) + ": buffer size mismatch");
  }
}

/// One collective cell: its cluster, each participant's ready instant and
/// the object size.
struct Cell {
  std::unique_ptr<HopliteCluster> cluster;
  std::vector<SimTime> ready;
  std::int64_t bytes = kCollectiveBytes;
};

/// Draws a cell's inputs from `seed` (readiness in [0, kStagger), size in
/// [bytes_lo, bytes_hi]) and builds its cluster, timed as setup.
Cell SetupCell(const HopliteCluster::Options& options, std::uint64_t seed,
               std::int64_t bytes_lo, std::int64_t bytes_hi, Tracer* tracer,
               PassResult& result) {
  Cell cell;
  const double t0 = HostNow();
  {
    ScopedSpan span(tracer, "DrawInputs", "build_inputs");
    Rng rng(seed);
    cell.ready.resize(static_cast<std::size_t>(options.network.num_nodes));
    for (SimTime& t : cell.ready) t = rng.NextInRange(0, kStagger - 1);
    cell.bytes = rng.NextInRange(bytes_lo, bytes_hi);
  }
  const double t1 = HostNow();
  {
    ScopedSpan span(tracer, "HopliteCluster", "build_cluster");
    cell.cluster = std::make_unique<HopliteCluster>(options);
  }
  const double t2 = HostNow();
  result.trace_build_s += t1 - t0;
  result.setup_s += t2 - t0;
  result.cluster_build_s += t2 - t1;
  return cell;
}

/// Drives the cell's engine to drained, timed as the cell's wall.
void RunCell(HopliteCluster& cluster, double issue_start, Tracer* tracer, PassResult& result) {
  const double t0 = HostNow();
  {
    ScopedSpan span(tracer, "Engine::Run", "run");
    cluster.RunAll();
  }
  const double t1 = HostNow();
  result.run_s += t1 - t0;
  result.cell_wall_s.push_back(t1 - issue_start);
  CollectClusterCounters(cluster, result);
}

// ----------------------------------------------------------------------
// wide-broadcast: 32 MB from node 0 to 4095 receivers, flat fabric.
// ----------------------------------------------------------------------

constexpr int kWideNodes = 4096;
constexpr int kWideCells = 12;
// Parameter sizes vary per cell: with the source ready at t = 0 the chain's
// completion does not depend on receiver readiness, so the size draw is
// what makes cells (and seeds) differ.
constexpr std::int64_t kWideBytesLo = MB(24);
constexpr std::int64_t kWideBytesHi = MB(40);

/// One broadcast cell: node 0 Puts the object at t = 0 (the input is ready
/// when the cell starts), every other node Gets at its ready instant; the
/// collective ends when the last receiver holds the object.
void WideCell(Cell& cell, int c, Tracer* tracer, PassResult& result) {
  HopliteCluster& cluster = *cell.cluster;
  auto& sim = cluster.simulator();
  const int n = cluster.num_nodes();
  const ObjectID object = ObjectID::FromName("wide-broadcast").WithIndex(c);
  const std::size_t base = result.ops.size();
  for (int i = 0; i < n; ++i) {
    OpRecord op;
    op.cls = i == 0 ? 0 : 1;
    op.due = i == 0 ? 0 : cell.ready[static_cast<std::size_t>(i)];
    result.ops.push_back(op);
  }
  const double issue_start = HostNow();
  std::vector<Ref<hoplite::store::Buffer>> received;
  received.reserve(static_cast<std::size_t>(n) - 1);
  const std::int64_t bytes = cell.bytes;
  (void)IssueOp<ObjectID>(tracer, result, base, cluster, "Put", [&] {
    return cluster.client(0).Put(object, hoplite::store::Buffer::OfSize(bytes));
  });
  for (NodeID r = 1; r < n; ++r) {
    const std::size_t index = base + static_cast<std::size_t>(r);
    received.push_back(hoplite::At(sim, cell.ready[static_cast<std::size_t>(r)])
                           .Then([&cluster, &result, tracer, index, r, object] {
                             return IssueOp<hoplite::store::Buffer>(
                                 tracer, result, index, cluster, "Get", [&] {
                                   return cluster.client(r).Get(
                                       object, GetOptions{.read_only = true});
                                 });
                           }));
  }
  RunCell(cluster, issue_start, tracer, result);
  for (const auto& ref : received) CheckBuffer(ref, cell.bytes, "broadcast", result);
  SimTime last = 0;
  for (std::size_t i = base; i < result.ops.size(); ++i) {
    last = std::max(last, result.ops[i].settled);
  }
  result.collective_s.push_back(ToSeconds(last));
  result.payload_bytes += cell.bytes * (n - 1);
}

HopliteCluster::Options WideOptions() {
  HopliteCluster::Options options;
  options.network.num_nodes = kWideNodes;
  return options;
}

double WideBroadcastSetup(std::uint64_t seed) {
  PassResult result;
  for (int c = 0; c < kWideCells; ++c) {
    (void)SetupCell(WideOptions(), CellSeed(seed, c), kWideBytesLo, kWideBytesHi, nullptr,
                    result);
  }
  return result.setup_s;
}

PassResult WideBroadcastPass(std::uint64_t seed, Tracer* tracer) {
  PassResult result;
  for (int c = 0; c < kWideCells; ++c) {
    Cell cell = SetupCell(WideOptions(), CellSeed(seed, c), kWideBytesLo, kWideBytesHi,
                          tracer, result);
    WideCell(cell, c, tracer, result);
  }
  return result;
}

// ----------------------------------------------------------------------
// async-reduce: reduce and allreduce of 32 MB, 256 nodes in 8 racks at 4:1,
// arrivals staggered over 10 ms (Fig. 8's asynchrony).
// ----------------------------------------------------------------------

constexpr int kReduceNodes = 256;
// Twice as many allreduce cells as reduce cells: a reduce participant's op
// ends when the root holds the result, so reduce latencies cluster tightly;
// weighting toward allreduce keeps the pooled median inside a continuous
// latency range instead of on the gap between the two kinds.
constexpr int kReduceCells = 4;
constexpr int kAllreduceCells = 8;

HopliteCluster::Options RackOptions(int nodes) {
  HopliteCluster::Options options;
  options.network.num_nodes = nodes;
  options.network.fabric.topology = hoplite::net::TopologyKind::kRack;
  options.network.fabric.num_racks = 8;
  options.network.fabric.oversubscription = 4.0;
  return options;
}

/// One reduce (allreduce = false) or allreduce cell on `cluster`. Every
/// participant Puts its input at its ready instant; node 0 reduces all of
/// them. Reduce: node 0 reads the result back and every participant's op
/// ends then. Allreduce: every participant reads the result and its op
/// ends when it holds it.
void ReduceCell(Cell& cell, bool allreduce, int c, Tracer* tracer, PassResult& result) {
  HopliteCluster& cluster = *cell.cluster;
  auto& sim = cluster.simulator();
  const int n = cluster.num_nodes();
  const ObjectID target = ObjectID::FromName(allreduce ? "allreduce" : "reduce").WithIndex(c);
  const std::size_t base = result.ops.size();
  for (int w = 0; w < n; ++w) {
    OpRecord op;
    op.cls = allreduce ? 1 : 0;
    op.due = cell.ready[static_cast<std::size_t>(w)];
    result.ops.push_back(op);
  }
  const double issue_start = HostNow();
  hoplite::core::ReduceSpec spec;
  spec.target = target;
  for (NodeID w = 0; w < n; ++w) {
    const ObjectID source = target.WithIndex(w + 1);
    spec.sources.push_back(source);
    hoplite::At(sim, cell.ready[static_cast<std::size_t>(w)])
        .Then([&cluster, w, source, bytes = cell.bytes] {
          cluster.client(w).Put(source, hoplite::store::Buffer::OfSize(bytes));
        });
  }
  Ref<hoplite::core::ReduceResult> reduced = cluster.client(0).Reduce(std::move(spec));
  std::vector<Ref<hoplite::store::Buffer>> reads;
  for (NodeID w = 0; w < (allreduce ? n : 1); ++w) {
    reads.push_back(IssueOp<hoplite::store::Buffer>(
        tracer, result, base + static_cast<std::size_t>(w), cluster, "Get",
        [&] { return cluster.client(w).Get(target, GetOptions{.read_only = true}); }));
  }
  RunCell(cluster, issue_start, tracer, result);
  for (const auto& ref : reads) CheckBuffer(ref, cell.bytes, "reduce", result);
  if (!reduced.ready() || reduced.value().reduced.size() != static_cast<std::size_t>(n)) {
    result.check_failures.push_back("reduce: not every source was reduced");
  }
  if (!allreduce) {
    // Every participant's op ends when node 0 holds the result.
    const OpRecord& root = result.ops[base];
    for (std::size_t i = base + 1; i < result.ops.size(); ++i) {
      result.ops[i].settled = root.settled;
      result.ops[i].ok = root.ok;
      result.ops[i].code = root.code;
    }
  }
  SimTime last = 0;
  for (std::size_t i = base; i < result.ops.size(); ++i) {
    last = std::max(last, result.ops[i].settled);
  }
  result.collective_s.push_back(ToSeconds(last));
  result.payload_bytes += cell.bytes * (n - 1) * (allreduce ? 2 : 1);
}

double AsyncReduceSetup(std::uint64_t seed) {
  PassResult result;
  for (int c = 0; c < kReduceCells + kAllreduceCells; ++c) {
    (void)SetupCell(RackOptions(kReduceNodes), CellSeed(seed, c), kCollectiveBytes,
                    kCollectiveBytes, nullptr, result);
  }
  return result.setup_s;
}

PassResult AsyncReducePass(std::uint64_t seed, Tracer* tracer) {
  PassResult result;
  for (int c = 0; c < kReduceCells + kAllreduceCells; ++c) {
    Cell cell = SetupCell(RackOptions(kReduceNodes), CellSeed(seed, c), kCollectiveBytes,
                          kCollectiveBytes, tracer, result);
    ReduceCell(cell, c >= kReduceCells, c, tracer, result);
  }
  return result;
}

// ----------------------------------------------------------------------
// Workload-engine workloads (serving, churn).
// ----------------------------------------------------------------------

/// Forwards every engine call to the backend's engine; times Run().
class TimedEngine final : public hoplite::sim::Engine {
 public:
  TimedEngine(hoplite::sim::Engine& inner, Tracer* tracer, PassResult& result)
      : inner_(inner), tracer_(tracer), result_(result) {}
  [[nodiscard]] SimTime Now() const override { return inner_.Now(); }
  hoplite::sim::EventId ScheduleAt(SimTime t, Callback fn) override {
    return inner_.ScheduleAt(t, std::move(fn));
  }
  hoplite::sim::EventId ScheduleAfter(hoplite::SimDuration delay, Callback fn) override {
    return inner_.ScheduleAfter(delay, std::move(fn));
  }
  bool Cancel(hoplite::sim::EventId id) override { return inner_.Cancel(id); }
  void Run() override {
    ScopedSpan span(tracer_, "Engine::Run", "run");
    const double t0 = HostNow();
    inner_.Run();
    result_.run_s += HostNow() - t0;
  }
  void RunUntil(SimTime deadline) override { inner_.RunUntil(deadline); }
  bool RunUntilPredicate(const std::function<bool()>& pred) override {
    return inner_.RunUntilPredicate(pred);
  }
  [[nodiscard]] bool Idle() const override { return inner_.Idle(); }
  [[nodiscard]] std::uint64_t executed_events() const override {
    return inner_.executed_events();
  }

 private:
  hoplite::sim::Engine& inner_;
  Tracer* tracer_;
  PassResult& result_;
};

/// Forwarding WorkloadBackend: times Issue and InjectFault, records op spans
/// keyed by the op's index in the pass, and counts ops issued at any instant other than
/// their due time.
class TracedBackend final : public wl::WorkloadBackend {
 public:
  TracedBackend(std::unique_ptr<wl::WorkloadBackend> inner, const wl::WorkloadTrace& trace,
                Tracer* tracer, PassResult& result)
      : inner_(std::move(inner)), trace_(trace), tracer_(tracer), result_(result),
        engine_(inner_->simulator(), tracer, result),
        id_base_(static_cast<std::int64_t>(result.ops.size())) {}

  [[nodiscard]] const char* name() const override { return inner_->name(); }
  [[nodiscard]] hoplite::sim::Engine& simulator() override { return engine_; }

  [[nodiscard]] Ref<hoplite::Unit> Issue(const wl::WorkloadOp& op) override {
    if (engine_.Now() != op.at) ++late_;
    if (tracer_ == nullptr) return inner_->Issue(op);
    const std::int64_t index = id_base_ + (&op - trace_.ops.data());
    const std::size_t span =
        tracer_->Begin(trace_.spec.tenants[static_cast<std::size_t>(op.tenant)].name + ":" +
                           wl::OpKindName(op.kind),
                       "issue", index, engine_.Now());
    const double t0 = HostNow();
    Ref<hoplite::Unit> done = inner_->Issue(op);
    result_.issue_s += HostNow() - t0;
    tracer_->End(span);
    done.OnSettled([this, span](const Ref<hoplite::Unit>&) {
      tracer_->SetSettle(span, engine_.Now());
    });
    return done;
  }

  void InjectFault(NodeID node, bool kill) override {
    ScopedSpan span(tracer_, kill ? "InjectFault:kill" : "InjectFault:recover", "fault");
    inner_->InjectFault(node, kill);
  }

  [[nodiscard]] wl::StoreHighWater store_high_water() override {
    return inner_->store_high_water();
  }

  [[nodiscard]] std::size_t late() const { return late_; }

 private:
  std::unique_ptr<wl::WorkloadBackend> inner_;
  const wl::WorkloadTrace& trace_;
  Tracer* tracer_;
  PassResult& result_;
  TimedEngine engine_;
  std::int64_t id_base_;  ///< the pass-wide op index of this trace's op 0
  std::size_t late_ = 0;
};

/// Payload an op must move off its producing node to complete.
[[nodiscard]] std::int64_t PayloadOf(const wl::WorkloadOp& op) {
  switch (op.kind) {
    case wl::OpKind::kPut: return 0;
    case wl::OpKind::kGet: return op.bytes;
    case wl::OpKind::kBroadcast:
    case wl::OpKind::kReduce:
      return op.bytes * static_cast<std::int64_t>(op.peers.size());
  }
  return 0;
}

/// BuildTrace + MakeBackend for `spec`, host seconds (teardown excluded).
double EngineSetup(const wl::ScenarioSpec& spec) {
  const double t0 = HostNow();
  const wl::WorkloadTrace trace = wl::BuildTrace(spec);
  const std::unique_ptr<wl::WorkloadBackend> backend =
      wl::MakeBackend(wl::BackendKind::kHoplite, spec);
  return HostNow() - t0;
}

/// Replays `spec` once as one cell of `result`. `class_of` maps a trace op
/// to its latency class. Failed ops are recorded, not rejected here: the
/// caller counts them.
void EngineCell(const wl::ScenarioSpec& spec, int (*class_of)(const wl::WorkloadOp&),
                Tracer* tracer, PassResult& result) {
  const double t0 = HostNow();
  wl::WorkloadTrace trace;
  {
    ScopedSpan span(tracer, "BuildTrace", "build_inputs");
    trace = wl::BuildTrace(spec);
  }
  const double t1 = HostNow();
  std::unique_ptr<wl::WorkloadBackend> inner;
  {
    ScopedSpan span(tracer, "MakeBackend", "build_cluster");
    inner = wl::MakeBackend(wl::BackendKind::kHoplite, spec);
  }
  const double t2 = HostNow();
  result.trace_build_s += t1 - t0;
  result.cluster_build_s += t2 - t1;
  result.setup_s += t2 - t0;

  TracedBackend backend(std::move(inner), trace, tracer, result);
  const double t3 = HostNow();
  const wl::LoadReport report = wl::RunTrace(trace, backend);
  result.cell_wall_s.push_back(HostNow() - t3);

  result.events += backend.simulator().executed_events();
  const wl::StoreHighWater store = backend.store_high_water();
  result.evictions += store.evictions;
  result.hits += store.hits;
  result.misses += store.misses;
  result.peak_used_bytes = std::max(result.peak_used_bytes, store.peak_used_bytes);

  if (report.ops.size() != trace.ops.size()) {
    result.check_failures.push_back("attempted ops differ from the trace length");
  }
  if (backend.late() != 0) {
    result.check_failures.push_back("generator issued " + std::to_string(backend.late()) +
                                    " ops after their due instant");
  }
  for (std::size_t i = 0; i < report.ops.size() && i < trace.ops.size(); ++i) {
    const wl::WorkloadOp& op = trace.ops[i];
    const wl::OpOutcome& outcome = report.ops[i];
    OpRecord record;
    record.cls = class_of(op);
    record.due = op.at;
    record.settled = outcome.settled_at;
    record.ok = outcome.settled() && outcome.ok;
    record.code = outcome.error;
    if (outcome.issued_at != op.at) {
      result.check_failures.push_back("op issued_at differs from its due instant");
    }
    if (!outcome.settled()) {
      result.check_failures.push_back("op " + std::to_string(i) + " never settled");
    }
    if (outcome.settled() && outcome.ok &&
        (op.kind == wl::OpKind::kBroadcast || op.kind == wl::OpKind::kReduce)) {
      result.collective_s.push_back(outcome.latency_s());
    }
    if (outcome.ok) result.payload_bytes += PayloadOf(op);
    result.ops.push_back(record);
  }
  if (!report.all_settled) result.check_failures.push_back("run drained with ops unsettled");
}

// serving: the §5.4 serving scenario at 64 nodes with a bulk tenant of
// 16 MB Gets homed at the frontend, WFQ on.
constexpr int kServingNodes = 64;
constexpr double kServingQps = 32.0;
constexpr double kServingBulkPerS = 10.0;
constexpr int kServingCells = 2;  // independent 10 s traces per pass

wl::ScenarioSpec ServingSpec(std::uint64_t seed, double queries_per_s,
                             hoplite::SimDuration horizon) {
  wl::ScenarioTuning tuning;
  tuning.num_nodes = kServingNodes;
  tuning.load_scale = queries_per_s / 8.0;  // the scenario's base rate is 8 queries/s
  tuning.horizon = horizon;
  tuning.seed = seed;
  wl::ScenarioSpec spec = wl::BuildScenario("serving", tuning);
  // Votes carry variable-length prediction lists, all below the directory's
  // inline threshold.
  spec.tenants[1].sizes = wl::SizeDistribution::LogUniform(512, KB(4));
  wl::TenantSpec bulk;
  bulk.name = "bulk";
  bulk.arrivals = {wl::ArrivalProcess::Kind::kPoisson, kServingBulkPerS};
  bulk.mix = wl::OpMix{0.0, 1.0, 0.0, 0.0};
  bulk.sizes = wl::SizeDistribution::Fixed(MB(16));
  bulk.pinned_home = 0;
  spec.tenants.push_back(std::move(bulk));
  spec.qos.wfq = true;
  return spec;
}

int ServingClass(const wl::WorkloadOp& op) { return op.tenant; }

double ServingSetup(std::uint64_t seed) {
  double total = 0;
  for (int c = 0; c < kServingCells; ++c) {
    total += EngineSetup(ServingSpec(CellSeed(seed, c), kServingQps, Seconds(10)));
  }
  return total;
}

PassResult ServingPass(std::uint64_t seed, Tracer* tracer) {
  PassResult result;
  for (int c = 0; c < kServingCells; ++c) {
    EngineCell(ServingSpec(CellSeed(seed, c), kServingQps, Seconds(10)), ServingClass, tracer,
               result);
  }
  return result;
}

// churn: the memory-pressure tenants at 32 nodes (no-GC Puts, re-reads,
// 48 MB stores) plus a small-fan-in 8 MB reduce tenant; every Get carries
// a 500 ms timeout so no op can park forever.
constexpr int kChurnNodes = 32;
constexpr double kChurnLoadScale = 8.0;
constexpr int kChurnCells = 3;  // independent 10 s traces per pass

wl::ScenarioSpec ChurnSpec(std::uint64_t seed, double load_scale) {
  wl::ScenarioTuning tuning;
  tuning.num_nodes = kChurnNodes;
  tuning.load_scale = load_scale;
  tuning.horizon = Seconds(10);
  tuning.seed = seed;
  wl::ScenarioSpec spec = wl::BuildScenario("memory-pressure", tuning);
  // Continuous size bands around the scenario's fixed points (256 KB-4 MB
  // churn, 1 MB scans), so eviction sees every object size in between.
  spec.tenants[0].sizes = wl::SizeDistribution::LogUniform(KB(128), MB(4));
  spec.tenants[1].sizes = wl::SizeDistribution::LogUniform(KB(512), MB(2));
  wl::TenantSpec reducers;
  reducers.name = "reducers";
  reducers.arrivals = {wl::ArrivalProcess::Kind::kPoisson, 2.0 * load_scale};
  reducers.mix = wl::OpMix{0.0, 0.0, 0.0, 1.0};
  reducers.sizes = wl::SizeDistribution::LogUniform(MB(4), MB(16));
  reducers.fanout = 3;
  spec.tenants.push_back(std::move(reducers));
  for (wl::TenantSpec& tenant : spec.tenants) tenant.get_timeout = Milliseconds(500);
  return spec;
}

int ChurnClass(const wl::WorkloadOp& op) { return static_cast<int>(op.kind); }

double ChurnSetup(std::uint64_t seed) {
  double total = 0;
  for (int c = 0; c < kChurnCells; ++c) {
    total += EngineSetup(ChurnSpec(CellSeed(seed, c), kChurnLoadScale));
  }
  return total;
}

PassResult ChurnPass(std::uint64_t seed, Tracer* tracer) {
  PassResult result;
  for (int c = 0; c < kChurnCells; ++c) {
    EngineCell(ChurnSpec(CellSeed(seed, c), kChurnLoadScale), ChurnClass, tracer, result);
  }
  return result;
}

template <std::size_t N>
std::vector<double> Limits(const double (&limits)[N]) {
  return std::vector<double>(limits, limits + N);
}

}  // namespace

const std::vector<Workload>& Workloads() {
  static const std::vector<Workload> workloads = {
      {"wide-broadcast", Limits(kWideLimitsMs), WideBroadcastPass, WideBroadcastSetup},
      {"async-reduce", Limits(kReduceLimitsMs), AsyncReducePass, AsyncReduceSetup},
      {"serving", Limits(kServingLimitsMs), ServingPass, ServingSetup},
      {"churn", Limits(kChurnLimitsMs), ChurnPass, ChurnSetup},
  };
  return workloads;
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const std::vector<double>& CapacityLadder() {
  static const std::vector<double> ladder = {48, 64, 72, 80, 88, 96, 104, 112};
  return ladder;
}

ServingRung RunServingRung(double queries_per_s, std::uint64_t seed) {
  const hoplite::SimDuration horizon = Seconds(4);
  PassResult pass;
  EngineCell(ServingSpec(seed, queries_per_s, horizon), ServingClass, nullptr, pass);
  std::vector<std::vector<double>> per(std::size(kServingLimitsMs));
  SimTime end = 0;
  for (const OpRecord& op : pass.ops) {
    per[static_cast<std::size_t>(op.cls)].push_back(
        op.ok ? hoplite::ToMilliseconds(op.settled - op.due) : INFINITY);
    end = std::max(end, op.settled);
  }
  ServingRung rung;
  rung.drain_s = ToSeconds(end - horizon);
  rung.meets = end <= horizon + Seconds(2);
  for (std::size_t c = 0; c < per.size(); ++c) {
    auto& v = per[c];
    std::sort(v.begin(), v.end());
    const auto rank = static_cast<std::size_t>(std::ceil(0.99 * static_cast<double>(v.size())));
    rung.p99_ms.push_back(v.empty() ? 0.0 : v[std::max<std::size_t>(rank, 1) - 1]);
    rung.meets = rung.meets && rung.p99_ms.back() <= kServingLimitsMs[c];
  }
  return rung;
}

/// Median latency (ms) of class `cls` among the completed ops of `pass`.
double ClassMedianMs(const PassResult& pass, int cls) {
  std::vector<double> v;
  for (const OpRecord& op : pass.ops) {
    if (op.ok && op.cls == cls) v.push_back(hoplite::ToMilliseconds(op.settled - op.due));
  }
  std::sort(v.begin(), v.end());
  return v.empty() ? 0.0 : v[v.size() / 2];
}

void Calibrate() {
  // Collective classes: the workload's collective with every input ready
  // at t = 0 (no asynchrony, nothing else on the fabric); the source Put
  // of wide-broadcast alone on a 2-node cluster.
  {
    HopliteCluster::Options options;
    options.network.num_nodes = 2;
    PassResult pass;
    Cell cell{std::make_unique<HopliteCluster>(options), {0, 0}};
    WideCell(cell, 0, nullptr, pass);
    PassResult aligned;
    Cell wide{std::make_unique<HopliteCluster>(WideOptions()),
              std::vector<SimTime>(kWideNodes, 0)};
    WideCell(wide, 0, nullptr, aligned);
    std::printf("wide-broadcast put %.3f ms receiver %.3f ms\n", ClassMedianMs(pass, 0),
                ClassMedianMs(aligned, 1));
  }
  for (const bool allreduce : {false, true}) {
    PassResult pass;
    Cell cell{std::make_unique<HopliteCluster>(RackOptions(kReduceNodes)),
              std::vector<SimTime>(kReduceNodes, 0)};
    ReduceCell(cell, allreduce, 0, nullptr, pass);
    std::printf("async-reduce %s %.3f ms\n", allreduce ? "allreduce" : "reduce",
                ClassMedianMs(pass, allreduce ? 1 : 0));
  }
  // Engine workloads: every arrival rate scaled to 1%, so ops rarely
  // overlap; the per-class median is the unloaded latency.
  {
    wl::ScenarioSpec spec = ServingSpec(1, kServingQps, Seconds(200));
    for (wl::TenantSpec& t : spec.tenants) t.arrivals.rate_per_s *= 0.01;
    PassResult pass;
    EngineCell(spec, ServingClass, nullptr, pass);
    std::printf("serving queries %.3f votes %.3f bulk %.3f ms\n", ClassMedianMs(pass, 0),
                ClassMedianMs(pass, 1), ClassMedianMs(pass, 2));
  }
  {
    wl::ScenarioSpec spec = ChurnSpec(1, kChurnLoadScale * 0.01);
    spec.horizon = Seconds(200);
    PassResult pass;
    EngineCell(spec, ChurnClass, nullptr, pass);
    std::printf("churn put %.3f get %.3f broadcast %.3f reduce %.3f ms\n",
                ClassMedianMs(pass, 0), ClassMedianMs(pass, 1), ClassMedianMs(pass, 2),
                ClassMedianMs(pass, 3));
  }
  for (const double rate : CapacityLadder()) {
    const ServingRung rung = RunServingRung(rate, 1);
    std::printf("serving ladder %.0f queries/s: p99 queries %.3f votes %.3f bulk %.3f ms, "
                "drained %.3f s after the horizon -> %s\n",
                rate, rung.p99_ms[0], rung.p99_ms[1], rung.p99_ms[2], rung.drain_s,
                rung.meets ? "meets" : "misses");
  }
}

}  // namespace hopbench
