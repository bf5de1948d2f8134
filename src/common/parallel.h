// ParallelFor: the one place this codebase starts threads.
//
// A single cluster is one coupling unit (RackFabric's max-min share couples
// every flow), so one simulation never runs in parallel with itself. What
// does run in parallel is independent work: figures under
// `bench_all --jobs N`, and composed clusters that each own a private
// sim::Simulator (`scale_shards`, the composed-cluster tests). Each index
// writes only state it owns, typically its slot of a result vector, so the
// output never depends on which thread ran which index.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <functional>
#include <thread>
#include <vector>

namespace hoplite {

/// Runs fn(0) .. fn(n - 1), each exactly once, on min(workers, n) threads,
/// the calling thread among them; returns when every call has returned.
/// Threads claim the next unstarted index, so uneven work balances itself.
/// With workers <= 1 the calls run inline, in index order.
inline void ParallelFor(std::size_t n, int workers,
                        const std::function<void(std::size_t)>& fn) {
  const std::size_t threads = std::min(static_cast<std::size_t>(std::max(workers, 1)), n);
  if (threads <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  const auto drain = [&] {
    for (std::size_t i = next.fetch_add(1); i < n; i = next.fetch_add(1)) fn(i);
  };
  std::vector<std::thread> pool;
  pool.reserve(threads - 1);
  for (std::size_t t = 1; t < threads; ++t) pool.emplace_back(drain);
  drain();
  for (std::thread& thread : pool) thread.join();
}

}  // namespace hoplite
