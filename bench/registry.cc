#include "bench/registry.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "common/logging.h"

namespace hoplite::bench {

int RunOptions::Nodes(int paper) const {
  const int clamped = max_nodes > 0 ? std::min(paper, max_nodes) : paper;
  return std::max(clamped, 2);
}

std::int64_t RunOptions::Bytes(std::int64_t paper) const {
  const std::int64_t clamped =
      max_object_bytes > 0 ? std::min(paper, max_object_bytes) : paper;
  return std::max<std::int64_t>(clamped, 1);
}

std::vector<int> RunOptions::NodeCounts(std::vector<int> paper) const {
  if (max_nodes <= 0) return paper;
  std::erase_if(paper, [this](int n) { return n > max_nodes; });
  if (paper.empty()) paper.push_back(std::max(max_nodes, 2));
  return paper;
}

std::vector<std::int64_t> RunOptions::ObjectSizes(std::vector<std::int64_t> paper) const {
  if (max_object_bytes <= 0) return paper;
  std::erase_if(paper, [this](std::int64_t b) { return b > max_object_bytes; });
  if (paper.empty()) paper.push_back(max_object_bytes);
  return paper;
}

Registry& Registry::Instance() {
  static Registry registry;
  return registry;
}

void Registry::Register(Figure figure) {
  HOPLITE_CHECK(figure.fn != nullptr) << "figure " << figure.name << " has no runner";
  HOPLITE_CHECK(Find(figure.name) == nullptr)
      << "figure " << figure.name << " registered twice";
  figures_.push_back(std::move(figure));
}

const Figure* Registry::Find(const std::string& name) const {
  const auto it = std::find_if(figures_.begin(), figures_.end(),
                               [&name](const Figure& f) { return f.name == name; });
  return it == figures_.end() ? nullptr : &*it;
}

FigureRegistrar::FigureRegistrar(const char* name, const char* title, FigureFn fn) {
  Registry::Instance().Register(Figure{name, title, fn});
}

namespace {

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendNumber(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.12g", v);
  out += buf;
}

void AppendRow(std::string& out, const Row& row) {
  out += "{\"series\":";
  AppendEscaped(out, row.series);
  if (!row.labels.empty()) {
    out += ",\"labels\":{";
    for (std::size_t i = 0; i < row.labels.size(); ++i) {
      if (i > 0) out += ',';
      AppendEscaped(out, row.labels[i].first);
      out += ':';
      AppendEscaped(out, row.labels[i].second);
    }
    out += '}';
  }
  if (!row.coords.empty()) {
    out += ",\"coords\":{";
    for (std::size_t i = 0; i < row.coords.size(); ++i) {
      if (i > 0) out += ',';
      AppendEscaped(out, row.coords[i].first);
      out += ':';
      AppendNumber(out, row.coords[i].second);
    }
    out += '}';
  }
  out += ",\"value\":";
  AppendNumber(out, row.value);
  out += ",\"unit\":";
  AppendEscaped(out, row.unit);
  out += '}';
}

}  // namespace

std::string ResultsToJson(const std::vector<FigureResult>& results,
                          const RunOptions& options) {
  std::string out;
  out += "{\"schema\":\"hoplite-bench/1\",\"options\":{";
  out += "\"max_nodes\":";
  AppendNumber(out, options.max_nodes);
  out += ",\"max_object_bytes\":";
  AppendNumber(out, static_cast<double>(options.max_object_bytes));
  out += ",\"repeats\":";
  AppendNumber(out, options.repeats);
  out += ",\"rounds\":";
  AppendNumber(out, options.rounds);
  out += "},\"figures\":[";
  for (std::size_t f = 0; f < results.size(); ++f) {
    if (f > 0) out += ',';
    out += "{\"name\":";
    AppendEscaped(out, results[f].name);
    out += ",\"title\":";
    AppendEscaped(out, results[f].title);
    out += ",\"rows\":[";
    for (std::size_t r = 0; r < results[f].rows.size(); ++r) {
      if (r > 0) out += ',';
      AppendRow(out, results[f].rows[r]);
    }
    out += "]}";
  }
  out += "]}";
  return out;
}

}  // namespace hoplite::bench
