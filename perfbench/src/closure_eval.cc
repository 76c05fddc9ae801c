// closure_eval: one closed-loop client on a sequential engine with one
// storage shard per CPU, against hot plans that the plan cache already holds.
// Traffic is full left-linear closure scans plus bound three-form TC and
// same-generation point queries on circulant graphs, so the work is
// in the fixpoint (probe, join, index build) and answer extraction, with
// compile near zero.
//
// The engine evaluates sequentially because the parallel fixpoint's latency
// on a shared 4-CPU host swings by up to 2-3x between runs (p90 most), too
// much to gate on. The traced run measures the parallel fixpoint on the same
// plans instead (exec.*, at nproc-2 pool workers plus the caller), and the
// output check runs a parallel engine against this one.

#include <memory>
#include <string>
#include <vector>

#include "api/engine.h"
#include "exec/thread_pool.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace api = factlog::api;

constexpr int64_t kNodes = 100;        // scan graph `e`: nodes
const std::vector<int64_t> kSteps = {1, 10};  // and circulant steps
// Point queries run on a larger graph `g`, so each fixpoint iteration's
// delta is big enough to be partitioned across the pool.
constexpr int64_t kPointBase = 10000;
constexpr int64_t kPointNodes = 1000;
const std::vector<int64_t> kPointSteps = {1, 10, 100};
constexpr int kSgDepth = 10;           // same-generation tree levels
constexpr int64_t kSgBase = 100000;
constexpr int kHotConstants = 16;      // bound constants per point program
constexpr int kSetups = 7;
constexpr int kCheckedPoints = 12;

constexpr const char* kLeftTcScan =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).";
constexpr const char* kThreeFormTc =
    "t(X, Y) :- t(X, W), t(W, Y). t(X, Y) :- g(X, W), t(W, Y). "
    "t(X, Y) :- t(X, W), g(W, Y). t(X, Y) :- g(X, Y). ?- t(";
constexpr const char* kSameGeneration =
    "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). "
    "?- sg(";

struct Workload {
  std::string facts;
  std::vector<std::string> tc_points;  // hot bound three-form TC queries
  std::vector<std::string> sg_points;  // hot bound same-generation queries
};

Workload MakeWorkload(uint64_t seed) {
  Rng rng(seed);
  Workload w;
  w.facts = PairFacts("e", Circulant(1, kNodes, kSteps, &rng));
  w.facts +=
      PairFacts("g", Circulant(kPointBase, kPointNodes, kPointSteps, &rng));
  std::vector<int64_t> sg_nodes;
  w.facts += SameGenerationFacts(kSgBase, kSgDepth, &sg_nodes);
  // Same-generation constants are leaves (the last level), so every point
  // query of a kind does the same work whatever the seed.
  const int64_t leaves = int64_t{1} << kSgDepth;
  for (int64_t node :
       rng.Distinct(kPointBase, kPointBase + kPointNodes - 1, kHotConstants)) {
    w.tc_points.push_back(kThreeFormTc + std::to_string(node) + ", Y).");
  }
  for (int64_t leaf : rng.Distinct(1, leaves, kHotConstants)) {
    w.sg_points.push_back(kSameGeneration +
                          std::to_string(sg_nodes[sg_nodes.size() - leaf]) +
                          ", Y).");
  }
  return w;
}

class RequestStream {
 public:
  explicit RequestStream(const Workload* w) : w_(w) {}
  // A fixed rotation (scan, then TC and same-generation points in turn), so
  // the mix is the same for every seed; each program's constants come round
  // in turn, so every point query runs equally often.
  ReadRequest Next() {
    switch (turn_++ % 5) {
      case 0:
        return {kLeftTcScan, true};
      case 1:
      case 3:
        return {w_->tc_points[tc_turn_++ % w_->tc_points.size()], false};
      default:
        return {w_->sg_points[sg_turn_++ % w_->sg_points.size()], false};
    }
  }

 private:
  const Workload* w_;
  uint64_t turn_ = 0;
  size_t tc_turn_ = 0;
  size_t sg_turn_ = 0;
};

// Pool workers for the parallel fixpoint: with the caller, one short of the
// CPUs, so a worker preempted by the rest of the system does not stall every
// barrier.
size_t ParallelWidth() {
  const size_t cpus = AvailableCpus();
  return cpus > 2 ? cpus - 2 : 1;
}

// A parallel engine's answers equal this sequential engine's, fact for fact.
void CheckParallel(api::Engine* engine, const Workload& w, uint64_t seed,
                   Report* report) {
  api::EngineOptions options;
  options.num_threads = ParallelWidth();
  options.num_shards = AvailableCpus();
  api::Engine parallel(options);
  if (!parallel.LoadFacts(w.facts).ok()) {
    report->Fail("closure_eval: parallel engine LoadFacts");
    return;
  }
  const std::string scan = kLeftTcScan;
  std::vector<const std::string*> texts = {&scan};
  Rng rng(seed);
  for (int i = 0; i < kCheckedPoints; ++i) {
    texts.push_back(&w.tc_points[rng.Between(0, kHotConstants - 1)]);
    texts.push_back(&w.sg_points[rng.Between(0, kHotConstants - 1)]);
  }
  for (const std::string* text : texts) {
    auto got = parallel.Query(*text);
    auto want = engine->Query(*text);
    report->Check(got.ok() && want.ok() &&
                      CanonicalRows(*got, parallel.db().store()) ==
                          CanonicalRows(*want, engine->db().store()),
                  "closure_eval: parallel answers differ: " + *text);
  }
}

}  // namespace

void RunClosureEval(const Options& options, Report* report) {
  const Workload w = MakeWorkload(options.seed);

  EndToEnd e2e;
  // Set-up: load the EDB and warm the plan cache: every program the traffic
  // sends is compiled and run once, so the timed loop meets hot plans only.
  // Null when it failed.
  auto set_up = [&] {
    Clock::time_point start = Clock::now();
    api::EngineOptions engine_options;
    engine_options.num_shards = AvailableCpus();
    auto fresh = std::make_unique<api::Engine>(engine_options);
    factlog::Status loaded = fresh->LoadFacts(w.facts);
    bool warmed = loaded.ok() && fresh->Query(kLeftTcScan).ok();
    for (int k = 0; warmed && k < kHotConstants; ++k) {
      warmed = fresh->Query(w.tc_points[k]).ok() &&
               fresh->Query(w.sg_points[k]).ok();
    }
    e2e.setup_s.Add(SecondsSince(start));
    if (!warmed) {
      report->Fail("closure_eval: setup failed");
      fresh.reset();
    }
    return fresh;
  };
  std::unique_ptr<api::Engine> engine;
  for (int i = 0; i < SetupsBefore(kSetups); ++i) {
    if ((engine = set_up()) == nullptr) return;
  }

  RequestStream stream(&w);
  // Traced reads also run the parallel fixpoint on a bench-owned pool, so its
  // task and steal counters cover exactly those fixpoints.
  factlog::exec::ThreadPool pool(options.trace ? ParallelWidth() : 0);
  ReadContext ctx;
  ctx.engine = engine.get();
  ctx.pool = &pool;
  ctx.num_shards = engine->options().num_shards;
  RunSingleClient(
      options, &e2e, [&] { return stream.Next(); }, ctx,
      [&](const Tracer&, const LayerTotals& totals) {
        const double hits = CacheHitFraction(totals);
        report->Check(hits >= 0.99,
                      "closure_eval: plan-cache hit fraction " +
                          std::to_string(hits) + " below 0.99");
      },
      report);
  if (!options.trace) {
    for (int i = SetupsBefore(kSetups); i < kSetups; ++i) {
      if (set_up() == nullptr) return;
    }
    ReportEndToEnd(e2e, report);
  }

  CheckParallel(engine.get(), w, options.seed * 104729 + 3, report);
}

}  // namespace perfbench
