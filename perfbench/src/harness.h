// Shared plumbing of the repository benchmark: command-line options, timing
// samples, the result record printed as the run's last line, in-memory
// spans, and seeded fact generation.
//
// Every workload follows the same shape: set up (several times, so set-up
// time is a median), run a closed loop for --seconds with tracing off and
// report end-to-end metrics, or run a single-client traced pass and report
// per-layer metrics; then check its outputs outside the timed loop.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/seminaive.h"
#include "eval/value.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double MicrosSince(Clock::time_point start);
double SecondsSince(Clock::time_point start);

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for on-disk state (durable databases, span dumps).
  std::string workdir;
};

/// A set of timing samples with interpolated quantiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  size_t size() const { return values_.size(); }
  /// Linear interpolation between closest ranks; 0 when empty.
  double Quantile(double q) const;
  double Mean() const;
  double Sum() const;

 private:
  std::vector<double> values_;
};

/// The run's result: operation counts, correctness, and named metrics.
/// Printed as one JSON object on the last line of standard output.
class Report {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (the message goes to standard error) and
  /// marks the run incorrect.
  void Fail(const std::string& what);
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  /// Closed-loop operations issued and operations that returned an error or
  /// were rejected. Failed operations leave no latency sample.
  void CountOps(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return correct_; }
  std::string ToJson() const;

 private:
  bool correct_ = true;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics_;
};

/// The fastest latency of each distinct request of a run. Other tenants of a
/// shared host slow its cores by up to 2x for seconds at a time, which moves
/// every percentile of the raw latencies from run to run; a request's fastest
/// run is its least disturbed one, and that stays put. Thread-compatible.
class BestLatencies {
 public:
  void Add(const std::string& request, double us);
  /// Times the least-run request ran; 0 when none has.
  size_t FewestRuns() const;
  /// The fastest latency of every distinct request.
  Samples Bests() const;
  /// Latencies added, over all requests.
  size_t samples() const { return samples_; }

 private:
  struct Best {
    double us;
    size_t runs;
  };
  std::map<std::string, Best> best_;
  size_t samples_ = 0;
};

/// Runs every distinct request needs before its fastest one is reported.
inline constexpr size_t kMinRuns = 5;

/// Reports `<prefix>_ms`, the median over distinct requests of their fastest
/// latency, and writes the sample counts to standard error. Fails the run
/// when a request ran fewer than kMinRuns times.
void ReportBest(const std::string& prefix, const BestLatencies& latencies,
                Report* report);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Spans recorded by the traced pass: name, start, end, parent. Kept in
/// memory and written out at the end of the run.
class Tracer {
 public:
  Tracer();
  /// Opens a span under `parent` (-1 for a root) and returns its id.
  int Begin(const char* name, int parent = -1);
  void End(int id);
  /// Self time (duration minus the time covered by child spans) summed per
  /// span name, in microseconds.
  std::map<std::string, double> SelfMicros() const;
  /// Duration of every span named `name`, in microseconds.
  Samples Durations(const std::string& name) const;
  /// Writes one JSON object per span.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int parent;
  };
  int64_t NowNs() const;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// RAII span.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, int parent = -1)
      : tracer_(tracer), id_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer* tracer_;
  int id_;
};

/// Deterministic generator for workload inputs: the same seed yields the
/// same facts and request sequence on every platform.
class Rng {
 public:
  explicit Rng(uint64_t seed) : engine_(seed) {}
  /// Uniform in [lo, hi].
  int64_t Between(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(engine_() %
                                     static_cast<uint64_t>(hi - lo + 1));
  }
  /// `count` distinct values, uniform in [lo, hi], in the order drawn.
  std::vector<int64_t> Distinct(int64_t lo, int64_t hi, size_t count) {
    std::vector<int64_t> values;
    std::set<int64_t> seen;
    while (values.size() < count) {
      const int64_t v = Between(lo, hi);
      if (seen.insert(v).second) values.push_back(v);
    }
    return values;
  }

 private:
  std::mt19937_64 engine_;
};

/// A circulant digraph on nodes [first, first + n): node i has an edge to
/// node i + s (mod n) for each of `steps`, and the nodes are then renamed by
/// a seeded permutation. Every node looks alike (the graph is
/// vertex-transitive) and, with step 1, reaches every other, so closure
/// sizes and the work of a bound query are the same for every seed and
/// every constant; the seed renames nodes and so changes the order of facts
/// and the constants a workload picks.
std::vector<std::pair<int64_t, int64_t>> Circulant(
    int64_t first, int64_t n, const std::vector<int64_t>& steps, Rng* rng);

/// Renders `rel(a, b).` facts, one per line, for Engine::LoadFacts.
std::string PairFacts(const std::string& rel,
                      const std::vector<std::pair<int64_t, int64_t>>& pairs);

/// The same-generation EDB of a complete binary tree with `depth` levels
/// below its root `first`: up(child, parent), down(parent, child), and flat
/// between adjacent nodes of each level. Appends the node ids to `nodes`.
std::string SameGenerationFacts(int64_t first, int depth,
                                std::vector<int64_t>* nodes);

/// Answers rendered value by value and sorted, so answer sets from engines
/// with different value stores compare fact for fact.
std::vector<std::string> CanonicalRows(const factlog::eval::AnswerSet& answers,
                                       const factlog::eval::ValueStore& store);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
