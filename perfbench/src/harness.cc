#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>

namespace perfbench {

double MicrosSince(Clock::time_point start) {
  return std::chrono::duration<double, std::micro>(Clock::now() - start)
      .count();
}

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  double pos = q * static_cast<double>(sorted.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(pos));
  size_t hi = std::min(lo + 1, sorted.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

double Samples::Mean() const {
  if (values_.empty()) return 0;
  return Sum() / static_cast<double>(values_.size());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

void Report::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, {value, unit}});
}

void Report::Fail(const std::string& what) {
  std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
  correct_ = false;
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += correct_ ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    char value[64];
    double v = std::isfinite(vu.first) ? vu.first : 0.0;
    std::snprintf(value, sizeof(value), "%.17g", v);
    if (!first) out += ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + value + ", \"unit\": \"" +
           vu.second + "\"}";
  }
  out += "}}";
  return out;
}

void BestLatencies::Add(const std::string& request, double us) {
  auto it = best_.try_emplace(request, Best{us, 0}).first;
  it->second.us = std::min(it->second.us, us);
  ++it->second.runs;
  ++samples_;
}

size_t BestLatencies::FewestRuns() const {
  if (best_.empty()) return 0;
  size_t fewest = best_.begin()->second.runs;
  for (const auto& [request, best] : best_) fewest = std::min(fewest, best.runs);
  return fewest;
}

Samples BestLatencies::Bests() const {
  Samples bests;
  for (const auto& [request, best] : best_) bests.Add(best.us);
  return bests;
}

void ReportBest(const std::string& prefix, const BestLatencies& latencies,
                Report* report) {
  report->Check(latencies.FewestRuns() >= kMinRuns,
                prefix + ": a request ran " +
                    std::to_string(latencies.FewestRuns()) +
                    " times, fewer than " + std::to_string(kMinRuns));
  const Samples bests = latencies.Bests();
  std::fprintf(stderr,
               "perfbench: %s: %zu distinct requests, %zu samples, each "
               "request run at least %zu times\n",
               prefix.c_str(), bests.size(), latencies.samples(),
               latencies.FewestRuns());
  report->Metric(prefix + "_ms", bests.Quantile(0.5) * 1e-3, "ms");
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

Tracer::Tracer() : origin_(Clock::now()) {}

int64_t Tracer::NowNs() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              origin_)
      .count();
}

int Tracer::Begin(const char* name, int parent) {
  spans_.push_back(Span{name, NowNs(), -1, parent});
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::End(int id) { spans_[id].end_ns = NowNs(); }

std::map<std::string, double> Tracer::SelfMicros() const {
  std::vector<int64_t> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[i] = spans_[i].end_ns - spans_[i].start_ns;
  }
  for (const Span& s : spans_) {
    if (s.parent >= 0) self[s.parent] -= s.end_ns - s.start_ns;
  }
  std::map<std::string, double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    out[spans_[i].name] += static_cast<double>(self[i]) / 1000.0;
  }
  return out;
}

Samples Tracer::Durations(const std::string& name) const {
  Samples out;
  for (const Span& s : spans_) {
    if (name == s.name) {
      out.Add(static_cast<double>(s.end_ns - s.start_ns) / 1000.0);
    }
  }
  return out;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"parent\": " << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

std::vector<std::pair<int64_t, int64_t>> Circulant(
    int64_t first, int64_t n, const std::vector<int64_t>& steps, Rng* rng) {
  std::vector<int64_t> name(n);
  for (int64_t i = 0; i < n; ++i) name[i] = first + i;
  for (int64_t i = n - 1; i > 0; --i) {
    std::swap(name[i], name[rng->Between(0, i)]);
  }
  std::vector<std::pair<int64_t, int64_t>> edges;
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t step : steps) edges.push_back({name[i], name[(i + step) % n]});
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

std::string PairFacts(const std::string& rel,
                      const std::vector<std::pair<int64_t, int64_t>>& pairs) {
  std::string out;
  for (const auto& [a, b] : pairs) {
    out += rel + "(" + std::to_string(a) + ", " + std::to_string(b) + ").\n";
  }
  return out;
}

std::string SameGenerationFacts(int64_t first, int depth,
                                std::vector<int64_t>* nodes) {
  // Heap numbering: node k has children 2k and 2k+1 (k >= 1).
  const int64_t count = (int64_t{1} << (depth + 1)) - 1;
  std::string out;
  for (int64_t k = 1; k <= count; ++k) {
    nodes->push_back(first + k - 1);
    for (int64_t child : {2 * k, 2 * k + 1}) {
      if (child > count) continue;
      const std::string p = std::to_string(first + k - 1);
      const std::string c = std::to_string(first + child - 1);
      out += "up(" + c + ", " + p + ").\ndown(" + p + ", " + c + ").\n";
    }
    // Adjacent nodes of one level are flat-related (k + 1 starts the next
    // level exactly when it is a power of two), and so is the root with
    // itself, so same-generation answers reach every level.
    const int64_t next = k + 1;
    if (next <= count && (next & k) != 0) {
      out += "flat(" + std::to_string(first + k - 1) + ", " +
             std::to_string(first + k) + ").\n";
    }
  }
  out += "flat(" + std::to_string(first) + ", " + std::to_string(first) +
         ").\n";
  return out;
}

std::vector<std::string> CanonicalRows(const factlog::eval::AnswerSet& answers,
                                       const factlog::eval::ValueStore& store) {
  std::vector<std::string> rows;
  rows.reserve(answers.rows.size());
  for (const auto& row : answers.rows) {
    std::string r;
    for (factlog::eval::ValueId v : row) {
      r += store.ToString(v);
      r += '\t';
    }
    rows.push_back(std::move(r));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

}  // namespace perfbench
