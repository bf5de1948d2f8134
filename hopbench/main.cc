// hopbench: the repository benchmark driver.
//
//   hopbench --workload NAME --seed N --seconds S --trace 0|1
//            [--trace-out FILE] [--calibrate]
//
// Runs passes of the workload (every cell once per pass, fresh clusters)
// until S host seconds have elapsed, checks each pass's outputs, and checks
// that every pass produced bit-identical simulated results. Host times are
// scaled to a fixed host speed measured by a reference kernel (see
// kRefNominalS). Prints a
// `digest` line (the simulated results' hash, for cross-run identity
// checks) and, as the last line, one JSON object: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. A traced run adds
// one pass with spans recorded around every layer call plus the solo layer
// drivers, and writes the spans as Chrome trace-event JSON.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "bench.h"

namespace hopbench {

void Tracer::WriteChromeJson(const std::string& path) const {
  std::ofstream out(path);
  const double origin = spans_.empty() ? 0.0 : spans_.front().host_start;
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[512];
    std::snprintf(line, sizeof line,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%lld,\"sim_issue_ns\":%lld,"
                  "\"sim_settle_ns\":%lld}}%s\n",
                  s.name.c_str(), s.cat.c_str(), (s.host_start - origin) * 1e6,
                  (s.host_end - s.host_start) * 1e6, static_cast<long long>(s.id),
                  static_cast<long long>(s.sim_issue), static_cast<long long>(s.sim_settle),
                  i + 1 < spans_.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

namespace {

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

[[nodiscard]] double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile of an ascending vector (+inf ranks last).
[[nodiscard]] double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(sorted.size())));
  return sorted[std::max<std::size_t>(rank, 1) - 1];
}

[[nodiscard]] double LatencyMs(const OpRecord& op) {
  return op.ok ? static_cast<double>(op.settled - op.due) * 1e-6 : INFINITY;
}

/// Censored latencies (ms, ascending) of the ops accepted by `pick`:
/// failed or unsettled ops count as +inf.
template <typename Pick>
[[nodiscard]] std::vector<double> Censored(const PassResult& pass, Pick pick) {
  std::vector<double> v;
  for (const OpRecord& op : pass.ops) {
    if (pick(op)) v.push_back(LatencyMs(op));
  }
  std::sort(v.begin(), v.end());
  return v;
}

[[nodiscard]] std::size_t FailedOps(const PassResult& pass) {
  std::size_t failed = 0;
  for (const OpRecord& op : pass.ops) failed += op.ok ? 0 : 1;
  return failed;
}

/// FNV-1a over every simulated field of a pass.
[[nodiscard]] std::uint64_t Digest(const PassResult& pass) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  for (const OpRecord& op : pass.ops) {
    mix(static_cast<std::uint64_t>(op.cls));
    mix(static_cast<std::uint64_t>(op.due));
    mix(static_cast<std::uint64_t>(op.settled));
    mix(op.ok ? 1 : 0);
    mix(op.ok ? 0 : static_cast<std::uint64_t>(op.code));
  }
  for (const double c : pass.collective_s) mix(std::bit_cast<std::uint64_t>(c));
  for (const std::uint64_t x :
       {pass.events, pass.directory_ops, pass.messages, static_cast<std::uint64_t>(pass.wire_bytes),
        static_cast<std::uint64_t>(pass.payload_bytes), pass.evictions, pass.hits, pass.misses,
        static_cast<std::uint64_t>(pass.peak_used_bytes)}) {
    mix(x);
  }
  return h;
}

[[nodiscard]] double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

/// Sum over cells of the per-cell median across passes.
[[nodiscard]] double SumOfCellMedians(const std::vector<std::vector<double>>& cell_walls) {
  double total = 0;
  for (std::size_t c = 0; c < cell_walls.front().size(); ++c) {
    std::vector<double> samples;
    for (const std::vector<double>& pass : cell_walls) samples.push_back(pass[c]);
    total += Median(samples);
  }
  return total;
}


/// Mean §5.1.2 completion over every collective of the pass.
[[nodiscard]] double CollectiveMean(const PassResult& pass) {
  double total = 0;
  for (const double c : pass.collective_s) total += c;
  return pass.collective_s.empty() ? 0.0 : total / static_cast<double>(pass.collective_s.size());
}

/// The end-to-end metrics: host ones as medians over the run, simulated
/// ones from `pass` (every pass is bit-identical, which the caller checks).
std::vector<Metric> EndToEnd(const Workload& w, const PassResult& pass, double wall_s,
                             double setup_s) {
  const std::vector<double> all = Censored(pass, [](const OpRecord&) { return true; });
  std::size_t within = 0;
  for (const OpRecord& op : pass.ops) {
    if (LatencyMs(op) <= w.limit_ms[static_cast<std::size_t>(op.cls)]) ++within;
  }
  return {
      {"wall_s", wall_s, "s"},
      {"setup_s", setup_s, "s"},
      {"peak_rss_mb", PeakRssMb(), "MB"},
      {"p50_ms", Percentile(all, 0.50), "ms"},
      {"p99_ms", Percentile(all, 0.99), "ms"},
      {"slo_frac", static_cast<double>(within) / static_cast<double>(pass.ops.size()),
       "fraction"},
      {"coll_s", CollectiveMean(pass), "s"},
  };
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Host time per unit of the solo layer drivers and the serving capacity.
struct SoloResults {
  double event_ns = 0;
  double claim_us = 0;
  double claim_us_255 = 0;
  double flow_us = 0;
  double evict_us = 0;
  double capacity_qps = 0;
};

SoloResults RunSoloDrivers(const Workload& w, std::uint64_t seed, Tracer& tracer) {
  SoloResults solo;
  {
    ScopedSpan span(&tracer, "solo:sim", "solo");
    solo.event_ns = SoloEventNs(seed);
  }
  {
    ScopedSpan span(&tracer, "solo:directory-4095", "solo");
    solo.claim_us = SoloClaimUs(4095, seed);
  }
  {
    ScopedSpan span(&tracer, "solo:directory-255", "solo");
    solo.claim_us_255 = SoloClaimUs(255, seed);
  }
  {
    ScopedSpan span(&tracer, "solo:net", "solo");
    solo.flow_us = SoloFlowUs(seed);
  }
  {
    ScopedSpan span(&tracer, "solo:store", "solo");
    solo.evict_us = SoloEvictUs(seed);
  }
  if (w.name == "serving") {
    ScopedSpan span(&tracer, "capacity-ladder", "capacity");
    for (const double rate : CapacityLadder()) {
      if (!RunServingRung(rate, seed).meets) break;
      solo.capacity_qps = rate;
    }
  }
  return solo;
}

/// The per-layer metrics of a traced run. Counts come from an untraced pass
/// (identical to the traced one); host splits from the traced pass.
std::vector<Metric> PerLayer(const Workload& w, const PassResult& pass, double untraced_wall,
                             double ref_s, const PassResult& traced, const SoloResults& solo) {
  double traced_wall = 0;
  for (const double s : traced.cell_wall_s) traced_wall += s;
  // The classes with the tightest and the loosest latency limit: the
  // latency-critical and the bulk side of every workload.
  const auto by_limit = [&w](bool tightest) {
    std::size_t best = 0;
    for (std::size_t c = 1; c < w.limit_ms.size(); ++c) {
      if ((w.limit_ms[c] < w.limit_ms[best]) == tightest) best = c;
    }
    return static_cast<int>(best);
  };
  const std::vector<double> tight =
      Censored(pass, [c = by_limit(true)](const OpRecord& op) { return op.cls == c; });
  const std::vector<double> loose =
      Censored(pass, [c = by_limit(false)](const OpRecord& op) { return op.cls == c; });
  // Jain's index over per-class slowdowns (unloaded latency / p50).
  double sum = 0, sum_sq = 0;
  for (std::size_t c = 0; c < w.limit_ms.size(); ++c) {
    const double p50 = Percentile(
        Censored(pass, [c](const OpRecord& op) { return op.cls == static_cast<int>(c); }), 0.5);
    const double x = Ratio(w.limit_ms[c] / 5.0, p50);
    sum += x;
    sum_sq += x * x;
  }
  const double jain = Ratio(sum * sum, static_cast<double>(w.limit_ms.size()) * sum_sq);
  double timeouts = 0, lost = 0, other = 0;
  for (const OpRecord& op : pass.ops) {
    if (op.ok) continue;
    if (op.settled >= 0 && op.code == hoplite::RefErrorCode::kTimeout) {
      ++timeouts;
    } else if (op.settled >= 0 && op.code == hoplite::RefErrorCode::kProducerLost) {
      ++lost;
    } else {
      ++other;
    }
  }
  const auto ops = static_cast<double>(pass.ops.size());
  const auto events = static_cast<double>(pass.events);
  return {
      {"sim.events", events, "count"},
      {"sim.ns_per_event", Ratio(untraced_wall * 1e9, events), "ns"},
      {"sim.run_s", traced.run_s, "s"},
      {"sim.solo_event_ns", solo.event_ns, "ns"},
      {"workload.ops", ops, "count"},
      {"workload.trace_build_s", traced.trace_build_s, "s"},
      {"workload.issue_s", traced.issue_s, "s"},
      {"core.cluster_build_s", traced.cluster_build_s, "s"},
      {"core.tight_p50_ms", Percentile(tight, 0.5), "ms"},
      {"core.tight_p99_ms", Percentile(tight, 0.99), "ms"},
      {"core.loose_p50_ms", Percentile(loose, 0.5), "ms"},
      {"core.loose_p99_ms", Percentile(loose, 0.99), "ms"},
      {"core.coll_median_s", Median(pass.collective_s), "s"},
      {"core.failed.timeout", timeouts, "count"},
      {"core.failed.producer_lost", lost, "count"},
      {"core.failed.other", other, "count"},
      {"directory.ops", static_cast<double>(pass.directory_ops), "count"},
      {"directory.ops_per_op", Ratio(static_cast<double>(pass.directory_ops), ops), "ratio"},
      {"directory.solo_claim_us", solo.claim_us, "us"},
      {"directory.solo_claim_us_255", solo.claim_us_255, "us"},
      {"net.wire_gb", static_cast<double>(pass.wire_bytes) / 1e9, "GB"},
      {"net.messages", static_cast<double>(pass.messages), "count"},
      {"net.wire_per_payload",
       Ratio(static_cast<double>(pass.wire_bytes), static_cast<double>(pass.payload_bytes)),
       "ratio"},
      {"net.solo_flow_us", solo.flow_us, "us"},
      {"store.hit_ratio",
       Ratio(static_cast<double>(pass.hits), static_cast<double>(pass.hits + pass.misses)),
       "fraction"},
      {"store.evictions", static_cast<double>(pass.evictions), "count"},
      {"store.peak_used_mb", static_cast<double>(pass.peak_used_bytes) / (1024.0 * 1024.0), "MB"},
      {"store.solo_evict_us", solo.evict_us, "us"},
      {"qos.jain", jain, "index"},
      {"qos.capacity_qps", solo.capacity_qps, "1/s"},
      {"trace.overhead_s", traced_wall - untraced_wall, "s"},
      {"host.raw_wall_s", untraced_wall, "s"},
      {"host.ref_ms", ref_s * 1e3, "ms"},
  };
}

void PrintResult(bool correct, std::size_t attempted, std::size_t failed,
                 const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // A censored percentile can be +inf; JSON has no infinity, so it is
    // reported as the largest finite double (the run is incorrect then).
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 1.7976931348623157e308;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), v, metrics[i].unit);
  }
  std::printf("}}\n");
}

constexpr std::size_t kSetupRepeats = 25;

// The host is shared: its speed drifts by tens of percent over minutes,
// alike for every workload running at the time. Host times in the
// end-to-end metrics are therefore scaled to a fixed host speed, measured
// by a reference kernel that shares no code with the simulator and is
// sampled throughout the run. kRefNominalS is the kernel's time on the
// 4-vCPU host the benchmark was defined on, so scaled figures read close to
// seconds there.
constexpr double kRefNominalS = 0.015;
constexpr std::size_t kMinRefSamples = 30;
constexpr double kRefShare = 0.05;  ///< reference time per unit of pass time

/// The reference kernel: a bounded binary heap of hashed keys, an ordered
/// map update per key and batched std::function calls — the shape of
/// discrete-event simulation work. Returns its host seconds.
double ReferenceKernel() {
  const double t0 = HostNow();
  std::vector<std::uint64_t> heap;
  std::map<std::uint64_t, std::uint64_t> index;
  std::vector<std::function<void()>> calls;
  std::uint64_t x = 0x9e3779b97f4a7c15ull, sum = 0;
  for (int i = 0; i < 30000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    heap.push_back(x);
    std::push_heap(heap.begin(), heap.end());
    index[x % 65536] += static_cast<std::uint64_t>(i);
    calls.emplace_back([&sum, x] { sum += x; });
    if (heap.size() > 2048) {
      std::pop_heap(heap.begin(), heap.end());
      sum += heap.back() + index[heap.back() % 65536];
      heap.pop_back();
    }
    if (calls.size() > 512) {
      for (const auto& f : calls) f();
      calls.clear();
    }
  }
  // Keeps the work observable so the compiler cannot drop it.
  if (sum == 0) std::fprintf(stderr, "reference kernel: zero checksum\n");
  return HostNow() - t0;
}

/// Samples the reference kernel until the samples add up to `budget_s`
/// (at least once).
void SampleReference(double budget_s, std::vector<double>& refs) {
  double spent = 0;
  do {
    refs.push_back(ReferenceKernel());
    spent += refs.back();
  } while (spent < budget_s);
}

int Usage() {
  std::fprintf(stderr,
               "usage: hopbench --workload NAME --seed N --seconds S --trace 0|1 "
               "[--trace-out FILE]\n       hopbench --calibrate\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (key == "--calibrate") {
      args[key] = "1";
    } else if (key.rfind("--", 0) == 0 && i + 1 < argc) {
      args[key] = argv[++i];
    } else {
      return Usage();
    }
  }
  if (args.count("--calibrate") > 0) {
    Calibrate();
    return 0;
  }
  if (args.count("--workload") == 0 || args.count("--seed") == 0) return Usage();
  const Workload* w = FindWorkload(args["--workload"]);
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args["--workload"].c_str());
    return 2;
  }
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = args.count("--seconds") > 0 ? std::atof(args["--seconds"].c_str()) : 10;
  const bool trace = args.count("--trace") > 0 && args["--trace"] == "1";

  // The first pass is kept whole; later ones keep only their digest and
  // host times, so memory does not grow with the number of passes. A set-up
  // sample and reference-kernel samples are taken between passes, then
  // topped up after the run.
  const double start = HostNow();
  std::vector<double> refs;
  SampleReference(0, refs);
  const PassResult first = w->run_pass(seed, nullptr);
  const std::uint64_t digest = Digest(first);
  std::vector<std::string> failures = first.check_failures;
  std::vector<std::vector<double>> cell_walls = {first.cell_wall_s};
  std::vector<double> setups;
  while (HostNow() - start < seconds) {
    SampleReference(kRefShare * SumOfCellMedians({cell_walls.back()}), refs);
    setups.push_back(w->setup_once(seed));
    const PassResult pass = w->run_pass(seed, nullptr);
    if (Digest(pass) != digest) failures.push_back("simulated results differ between passes");
    cell_walls.push_back(pass.cell_wall_s);
  }
  while (setups.size() < kSetupRepeats) setups.push_back(w->setup_once(seed));
  while (refs.size() < kMinRefSamples) SampleReference(0, refs);
  const double ref_s = Median(refs);
  const double raw_wall_s = SumOfCellMedians(cell_walls);
  const double host_scale = kRefNominalS / ref_s;
  const std::size_t failed = FailedOps(first);
  if (failed > 0) failures.push_back(std::to_string(failed) + " ops failed or never settled");

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = EndToEnd(*w, first, raw_wall_s * host_scale, Median(setups) * host_scale);
  } else {
    Tracer tracer;
    const PassResult traced = w->run_pass(seed, &tracer);
    if (Digest(traced) != digest) failures.push_back("traced pass differs from untraced");
    const SoloResults solo = RunSoloDrivers(*w, seed, tracer);
    for (const double v : {solo.event_ns, solo.claim_us, solo.claim_us_255, solo.flow_us}) {
      if (v <= 0) failures.push_back("a solo layer driver failed its own check");
    }
    metrics = PerLayer(*w, first, raw_wall_s, ref_s, traced, solo);
    if (args.count("--trace-out") > 0) tracer.WriteChromeJson(args["--trace-out"]);
  }
  for (const std::string& f : failures) std::fprintf(stderr, "check failed: %s\n", f.c_str());
  std::vector<double> walls;
  for (const std::vector<double>& pass : cell_walls) {
    double total = 0;
    for (const double cell : pass) total += cell;
    walls.push_back(total);
  }
  std::sort(walls.begin(), walls.end());
  std::fprintf(stderr,
               "%zu passes in %.2f s; pass wall min %.4f median %.4f max %.4f s; "
               "reference kernel %.2f ms (%zu samples), host scale %.4f\n",
               walls.size(), HostNow() - start, walls.front(), Median(walls), walls.back(),
               ref_s * 1e3, refs.size(), host_scale);
  std::printf("digest %016llx\n", static_cast<unsigned long long>(digest));
  PrintResult(failures.empty(), first.ops.size(), failed, metrics);
  return 0;
}

}  // namespace
}  // namespace hopbench

int main(int argc, char** argv) { return hopbench::Main(argc, argv); }
