// adhoc_compile: one closed-loop client sends the paper's programs as text
// to a width-0, single-shard engine over a small EDB. It cycles through 384
// requests with different constants, three times what the plan cache holds,
// so every request pays parse -> lint -> passes -> join plan, and the
// sequential fixpoint runs on small deltas: the compile layers do most of
// the work.

#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "eval/seminaive.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace api = factlog::api;
namespace eval = factlog::eval;

constexpr int64_t kComponents = 16;     // disjoint sub-databases
constexpr int64_t kNodes = 24;          // graph nodes per component
const std::vector<int64_t> kSteps = {1, 5};  // circulant steps
constexpr int kSgDepth = 4;             // same-generation tree levels
constexpr int64_t kSgBase = 100000;     // first same-generation node id
constexpr int64_t kSgStride = 32;       // ids per same-generation tree
constexpr int kSetups = 9;
constexpr int kWarmupRequests = 60;     // per set-up, before timing
// Distinct requests the timed loop cycles through, in a fixed order: three
// times the plan cache's 128 entries, so each one's plan has been evicted
// by the time it comes round again, and every request is timed many times.
constexpr size_t kDistinctRequests = 384;
constexpr int kPrograms = 6;  // the scan and five point programs
constexpr int kCheckedRequests = 40;

// Bound point-query programs; `$` is replaced by the bound constant.
constexpr const char* kThreeFormTc =
    "t(X, Y) :- t(X, W), t(W, Y). t(X, Y) :- e(X, W), t(W, Y). "
    "t(X, Y) :- t(X, W), e(W, Y). t(X, Y) :- e(X, Y). ?- t($, Y).";
constexpr const char* kLeftTc =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t($, Y).";
constexpr const char* kRightTc =
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t($, Y).";
constexpr const char* kSameGeneration =
    "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). "
    "?- sg($, Y).";
constexpr const char* kSelectionPushing =
    "p(X, Y) :- l(X), p(X, U), c1(U, V), p(V, Y), r1(Y). "
    "p(X, Y) :- l(X), p(X, U), c2(U, V), p(V, Y), r2(Y). "
    "p(X, Y) :- l(X), f(X, V), p(V, Y), r3(Y). "
    "p(X, Y) :- e(X, Y), r1(Y), r2(Y), r3(Y). ?- p($, Y).";
// The scan: closure of every source in a window [lo, hi] of one component.
constexpr const char* kWindowClosure =
    "s(X, Y) :- e(X, Y), geq(X, $lo), geq($hi, X). "
    "s(X, Y) :- s(X, W), e(W, Y). ?- s(X, Y).";

std::string Bind(std::string text, const std::string& slot,
                 int64_t value) {
  for (size_t at = text.find(slot); at != std::string::npos;
       at = text.find(slot, at)) {
    text.replace(at, slot.size(), std::to_string(value));
  }
  return text;
}

// The EDB of each component: a circulant graph `e` with the
// selection-pushing relations over its nodes, and a same-generation tree.
// Queries never leave their component, so a component's facts alone answer
// them (the naive-evaluation check relies on this).
struct Edb {
  std::vector<std::string> component_facts;
  std::vector<int64_t> sg_nodes;  // component c owns a kSgStride-id block

  std::string AllFacts() const {
    std::string all;
    for (const std::string& f : component_facts) all += f;
    return all;
  }
};

Edb MakeEdb(uint64_t seed) {
  Rng rng(seed);
  Edb edb;
  for (int64_t c = 0; c < kComponents; ++c) {
    const int64_t first = c * kNodes + 1;
    std::string facts =
        PairFacts("e", Circulant(first, kNodes, kSteps, &rng));
    for (int64_t i = first; i < first + kNodes; ++i) {
      const std::string n = std::to_string(i);
      // Unit filters hold on most nodes, so selections prune a little.
      for (const char* unit : {"l", "r1", "r2", "r3"}) {
        if (rng.Between(0, 9) != 0) facts += std::string(unit) + "(" + n + ").\n";
      }
      if (i + 1 < first + kNodes) {
        facts += "c1(" + n + ", " + std::to_string(i + 1) + ").\n";
        facts += "c2(" + std::to_string(i + 1) + ", " + n + ").\n";
      }
      if (i + 2 < first + kNodes) {
        facts += "f(" + n + ", " + std::to_string(i + 2) + ").\n";
      }
    }
    facts +=
        SameGenerationFacts(kSgBase + c * kSgStride, kSgDepth, &edb.sg_nodes);
    edb.component_facts.push_back(std::move(facts));
  }
  return edb;
}

struct Request {
  std::string text;
  bool scan = false;
  int64_t component = 0;
};

class RequestStream {
 public:
  RequestStream(uint64_t seed, const Edb* edb) : rng_(seed), edb_(edb) {}

  // The programs rotate in a fixed order (a scan, then each point program),
  // so the mix, and with it every percentile, is the same for every seed;
  // the seed draws the component and the constants.
  Request Next() { return Make(turn_++ % kPrograms); }

  // A request of program `kind`, 0 for the scan.
  Request Make(int kind) {
    const int64_t c = rng_.Between(0, kComponents - 1);
    const int64_t node = c * kNodes + rng_.Between(1, kNodes);
    switch (kind) {
      case 0: {
        const int64_t lo = c * kNodes + rng_.Between(1, kNodes - 3);
        return {Bind(Bind(kWindowClosure, "$lo", lo), "$hi",
                     lo + rng_.Between(0, 3)),
                true, c};
      }
      case 1:
        return {Bind(kThreeFormTc, "$", node), false, c};
      case 2:
        return {Bind(kLeftTc, "$", node), false, c};
      case 3:
        return {Bind(kRightTc, "$", node), false, c};
      case 4: {
        // A leaf of component c's tree: its same generation is all leaves.
        const int64_t leaves = int64_t{1} << kSgDepth;
        const int64_t tree_end =
            (c + 1) * static_cast<int64_t>(edb_->sg_nodes.size()) / kComponents;
        return {Bind(kSameGeneration, "$",
                     edb_->sg_nodes[tree_end - rng_.Between(1, leaves)]),
                false, c};
      }
      default:
        return {Bind(kSelectionPushing, "$", node), false, c};
    }
  }

 private:
  Rng rng_;
  const Edb* edb_;
  uint64_t turn_ = 0;
};

// The timed traffic: kDistinctRequests distinct requests from a
// RequestStream, sent over and over in the same order.
class RequestCycle {
 public:
  RequestCycle(uint64_t seed, const Edb* edb) {
    RequestStream stream(seed, edb);
    std::set<std::string> seen;
    for (size_t i = 0; i < kDistinctRequests; ++i) {
      Request request;
      do {
        request = stream.Make(static_cast<int>(i % kPrograms));
      } while (!seen.insert(request.text).second);
      requests_.push_back(std::move(request));
    }
  }
  const Request& Next() { return requests_[turn_++ % requests_.size()]; }

 private:
  std::vector<Request> requests_;
  size_t turn_ = 0;
};

// Engine answers on a seeded sample equal naive T_P evaluation of the
// source program over the request's component.
void CheckAgainstNaive(api::Engine* engine, const Edb& edb,
                       RequestStream* sample, Report* report) {
  eval::EvalOptions naive;
  naive.strategy = eval::Strategy::kNaive;
  for (int i = 0; i < kCheckedRequests; ++i) {
    Request request = sample->Next();
    auto answers = engine->Query(request.text);
    auto program = factlog::ast::ParseProgram(request.text);
    api::Engine component;
    if (!answers.ok() || !program.ok() ||
        !component.LoadFacts(edb.component_facts[request.component]).ok()) {
      report->Fail("adhoc_compile: request failed: " + request.text);
      return;
    }
    auto expected = eval::EvaluateQuery(*program, *program->query(),
                                        &component.db(), naive);
    report->Check(expected.ok() &&
                      CanonicalRows(*expected, component.db().store()) ==
                          CanonicalRows(*answers, engine->db().store()),
                  "adhoc_compile: answers differ from naive evaluation: " +
                      request.text);
  }
}

}  // namespace

void RunAdhocCompile(const Options& options, Report* report) {
  const Edb edb = MakeEdb(options.seed);
  const std::string facts = edb.AllFacts();

  EndToEnd e2e;
  // Set-up: load the EDB, then warm the engine with requests of every
  // program, so lazily built base-relation indices and the statistics
  // catalog are in place before timing. Null when it failed.
  auto set_up = [&](int i) {
    Clock::time_point start = Clock::now();
    auto fresh = std::make_unique<api::Engine>();
    bool ok = fresh->LoadFacts(facts).ok();
    RequestStream warmup(options.seed * 15485863 + i, &edb);
    for (int k = 0; ok && k < kWarmupRequests; ++k) {
      ok = fresh->Query(warmup.Next().text).ok();
    }
    e2e.setup_s.Add(SecondsSince(start));
    if (!ok) {
      report->Fail("adhoc_compile: setup failed");
      fresh.reset();
    }
    return fresh;
  };
  std::unique_ptr<api::Engine> engine;
  for (int i = 0; i < SetupsBefore(kSetups); ++i) {
    if ((engine = set_up(i)) == nullptr) return;
  }

  RequestCycle cycle(options.seed * 7919 + 1, &edb);
  ReadContext ctx;
  ctx.engine = engine.get();
  RunSingleClient(
      options, &e2e,
      [&] {
        const Request& request = cycle.Next();
        return ReadRequest{request.text, request.scan};
      },
      ctx,
      [&](const Tracer& tracer, const LayerTotals& totals) {
        // Isolation: the compile layers carry at least half of a request.
        const double share = CompileFraction(tracer, totals);
        report->Check(share >= 0.5, "adhoc_compile: compile layers carry " +
                                        std::to_string(share) +
                                        " of request time, under half");
      },
      report);
  if (!options.trace) {
    for (int i = SetupsBefore(kSetups); i < kSetups; ++i) {
      if (set_up(i) == nullptr) return;
    }
    ReportEndToEnd(e2e, report);
  }

  RequestStream sample(options.seed * 104729 + 3, &edb);
  CheckAgainstNaive(engine.get(), edb, &sample, report);
}

}  // namespace perfbench
