// Full-sweep determinism differential tests.
//
// 1. Every registered figure runs TWICE in the same process at reduced
//    scale, and the two serialized result documents must be byte-identical
//    once wall-clock content is excluded.
// 2. The same sweep runs its figures on a 4-worker ParallelFor, the pool
//    behind `bench_all --jobs`, and the document must be byte-identical to
//    the sequential one: running figures concurrently must never change a
//    result (no figure may share mutable state with another).
//
// This is the machine-checked form of the determinism contract the linter
// (scripts/lint_determinism.py) enforces statically: same inputs, same
// bytes. Running twice in-process is deliberately harsher than running the
// binary twice — leaked global state (a static counter, a reused id pool, a
// cache warmed by run one) shifts run two even when fresh processes agree.
//
// Wall-clock exclusions mirror the figure-baseline comparison rules:
// the engine-micro figure (wholly wall-clock), rows whose series or unit
// mentions wall time, and per-row wall_seconds coordinates.
#include "bench/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "common/units.h"

namespace hoplite::bench {
namespace {

RunOptions ReducedScale() {
  RunOptions options;
  options.max_nodes = 8;
  options.max_object_bytes = MB(4);
  options.repeats = 1;
  options.rounds = 2;
  return options;
}

bool IsWallRow(const Row& row) {
  return row.series.find("wall") != std::string::npos ||
         row.unit.find("wall") != std::string::npos;
}

Row StripWallCoords(Row row) {
  row.coords.erase(std::remove_if(row.coords.begin(), row.coords.end(),
                                  [](const auto& coord) {
                                    return coord.first.find("wall") != std::string::npos;
                                  }),
                   row.coords.end());
  return row;
}

// Runs every figure under `options` on `workers` threads and serializes the
// results in registration order.
std::string SweepJson(const RunOptions& options, int workers = 1) {
  std::vector<const Figure*> figures;
  for (const Figure& figure : Registry::Instance().figures()) {
    if (figure.name != "engine-micro") figures.push_back(&figure);  // wholly wall-clock
  }
  std::vector<FigureResult> results(figures.size());
  ParallelFor(figures.size(), workers, [&](std::size_t f) {
    std::vector<Row> rows;
    for (Row& row : figures[f]->fn(options)) {
      if (IsWallRow(row)) continue;
      rows.push_back(StripWallCoords(std::move(row)));
    }
    results[f] = FigureResult{figures[f]->name, figures[f]->title, std::move(rows)};
  });
  return ResultsToJson(results, options);
}

void ExpectSameDocument(const std::string& first, const std::string& second,
                        const std::string& what) {
  if (first == second) return;
  // Report the first divergence with context instead of dumping megabytes.
  std::size_t at = 0;
  while (at < first.size() && at < second.size() && first[at] == second[at]) ++at;
  const std::size_t from = at < 60 ? 0 : at - 60;
  FAIL() << what << ": sweep documents diverge at byte " << at << " (sizes "
         << first.size() << " vs " << second.size() << ")\n  run 1: ..."
         << first.substr(from, 120) << "\n  run 2: ..." << second.substr(from, 120);
}

TEST(SweepDeterminismTest, FullSweepTwiceInProcessIsByteIdentical) {
  ASSERT_EQ(Registry::Instance().figures().size(), 22u);
  const RunOptions options = ReducedScale();
  const std::string first = SweepJson(options);
  const std::string second = SweepJson(options);
  ASSERT_FALSE(first.empty());
  ExpectSameDocument(first, second, "reference engine, run 1 vs run 2");
}

TEST(SweepDeterminismTest, ThreadedSweepMatchesSequential) {
  const RunOptions options = ReducedScale();
  const std::string sequential = SweepJson(options);
  ASSERT_FALSE(sequential.empty());
  ExpectSameDocument(sequential, SweepJson(options, /*workers=*/4),
                     "4-worker sweep vs sequential");
}

}  // namespace
}  // namespace hoplite::bench
