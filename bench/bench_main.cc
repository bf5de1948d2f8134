// bench_all: the single driver for every figure-reproduction benchmark.
//
//   ./bench_all --list                         names every registered figure
//   ./bench_all --figure fig7                  runs one figure
//   ./bench_all --figure fig6,fig7 --out r.json   runs a subset, writes JSON
//   ./bench_all --figure all --out results.json   the full paper sweep
//
// Scale knobs (--max-nodes / --max-bytes / --repeats / --rounds) shrink
// every figure to toy sizes; the smoke test uses the same path.
//
// --jobs N runs independent figures on N worker threads (ParallelFor,
// src/common/parallel.h; figures share no mutable state, and the registry
// and scenario tables are filled once at static init and only read
// afterwards). Output stays deterministic: tables and the JSON document are
// emitted in registration order after every figure finishes, never
// interleaved, so a --jobs N document is byte-identical to --jobs 1.
#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/registry.h"
#include "common/parallel.h"

namespace hoplite::bench {
namespace {

void PrintUsage() {
  std::printf(
      "usage: bench_all [--list] [--figure NAME[,NAME...]|all] [--out FILE]\n"
      "                 [--max-nodes N] [--max-bytes N] [--repeats N]\n"
      "                 [--rounds N] [--jobs N] [--quiet]\n");
}

void PrintList() {
  std::printf("registered figures:\n");
  for (const Figure& figure : Registry::Instance().figures()) {
    std::printf("  %-18s %s\n", figure.name.c_str(), figure.title.c_str());
  }
}

void PrintTable(const FigureResult& result) {
  std::printf("\n==== %s: %s ====\n", result.name.c_str(), result.title.c_str());
  for (const Row& row : result.rows) {
    std::string key = row.series;
    for (const auto& [name, value] : row.labels) key += " " + name + "=" + value;
    std::printf("  %-44s", key.c_str());
    for (const auto& [name, value] : row.coords) {
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    std::printf("  ->  %.6g %s\n", row.value, row.unit.c_str());
  }
  std::printf("  (%zu rows)\n", result.rows.size());
}

/// Splits "fig6,fig7" into its comma-separated parts.
std::vector<std::string> SplitCommas(const std::string& arg) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (start <= arg.size()) {
    const std::size_t comma = arg.find(',', start);
    const std::size_t end = comma == std::string::npos ? arg.size() : comma;
    if (end > start) parts.push_back(arg.substr(start, end - start));
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return parts;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::vector<std::string> selected;
  std::string out_path;
  bool list_only = false;
  bool quiet = false;
  int jobs = 1;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto next_value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "bench_all: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // Strict positive-integer parse bounded by the flag's storage type:
    // trailing garbage ("1MB"), overflow, and int-wrapping values must be
    // errors, not a silently truncated scale.
    const auto int_value = [&](std::int64_t max) -> std::int64_t {
      const char* text = next_value();
      char* end = nullptr;
      errno = 0;
      const long long parsed = std::strtoll(text, &end, 10);
      if (errno == ERANGE || end == text || *end != '\0' || parsed <= 0 ||
          parsed > max) {
        std::fprintf(stderr,
                     "bench_all: %s needs a positive integer <= %lld, got '%s'\n",
                     arg.c_str(), static_cast<long long>(max), text);
        std::exit(2);
      }
      return parsed;
    };
    if (arg == "--list") {
      list_only = true;
    } else if (arg == "--figure") {
      for (std::string& name : SplitCommas(next_value())) {
        selected.push_back(std::move(name));
      }
    } else if (arg == "--out") {
      out_path = next_value();
    } else if (arg == "--max-nodes") {
      options.max_nodes = static_cast<int>(int_value(INT_MAX));
    } else if (arg == "--max-bytes") {
      options.max_object_bytes = int_value(INT64_MAX);
    } else if (arg == "--repeats") {
      options.repeats = static_cast<int>(int_value(INT_MAX));
    } else if (arg == "--rounds") {
      options.rounds = static_cast<int>(int_value(INT_MAX));
    } else if (arg == "--jobs") {
      jobs = static_cast<int>(int_value(256));
    } else if (arg == "--quiet") {
      quiet = true;
    } else if (arg == "--help" || arg == "-h") {
      PrintUsage();
      PrintList();
      return 0;
    } else {
      std::fprintf(stderr, "bench_all: unknown argument %s\n", arg.c_str());
      PrintUsage();
      return 2;
    }
  }

  if (list_only) {
    PrintList();
    return 0;
  }
  if (selected.empty()) {
    PrintUsage();
    PrintList();
    return 2;
  }

  // Resolve the selection against the registry ("all" = every figure, in
  // registration order) before running anything, so typos fail fast.
  // Duplicates ("all,fig6", a repeated name) run once.
  std::vector<const Figure*> figures;
  const auto select = [&figures](const Figure* figure) {
    if (std::find(figures.begin(), figures.end(), figure) == figures.end()) {
      figures.push_back(figure);
    }
  };
  for (const std::string& name : selected) {
    if (name == "all") {
      for (const Figure& figure : Registry::Instance().figures()) {
        select(&figure);
      }
      continue;
    }
    const Figure* figure = Registry::Instance().Find(name);
    if (figure == nullptr) {
      std::fprintf(stderr, "bench_all: unknown figure '%s'\n", name.c_str());
      PrintList();
      return 2;
    }
    select(figure);
  }

  std::vector<FigureResult> results(figures.size());
  if (jobs <= 1) {
    for (std::size_t f = 0; f < figures.size(); ++f) {
      if (!quiet) {
        std::printf("running %s: %s ...\n", figures[f]->name.c_str(),
                    figures[f]->title.c_str());
        std::fflush(stdout);
      }
      results[f] = FigureResult{figures[f]->name, figures[f]->title,
                                figures[f]->fn(options)};
      if (!quiet) PrintTable(results[f]);
    }
  } else {
    // Figure-granularity pool: each result lands in its registration-order
    // slot, so the tables and JSON below are identical to a sequential run.
    if (!quiet) {
      std::printf("running %zu figures on %d threads ...\n", figures.size(), jobs);
      std::fflush(stdout);
    }
    ParallelFor(figures.size(), jobs, [&](std::size_t f) {
      results[f] = FigureResult{figures[f]->name, figures[f]->title, figures[f]->fn(options)};
    });
    if (!quiet) {
      for (const FigureResult& result : results) PrintTable(result);
    }
  }

  const std::string json = ResultsToJson(results, options);
  if (out_path.empty()) {
    std::printf("%s\n", json.c_str());
  } else {
    std::FILE* f = std::fopen(out_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_all: cannot open %s for writing\n", out_path.c_str());
      return 1;
    }
    const bool written = std::fprintf(f, "%s\n", json.c_str()) >= 0;
    if (std::fclose(f) != 0 || !written) {
      std::fprintf(stderr, "bench_all: failed writing %s\n", out_path.c_str());
      return 1;
    }
    if (!quiet) std::printf("\nwrote %s (%zu figures)\n", out_path.c_str(), results.size());
  }
  return 0;
}

}  // namespace
}  // namespace hoplite::bench

int main(int argc, char** argv) { return hoplite::bench::Main(argc, argv); }
