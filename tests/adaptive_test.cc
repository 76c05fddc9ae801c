// Tests for feedback-driven adaptive join planning: the StatsCatalog's
// decay / merge / seeding semantics, mid-fixpoint re-planning (oracle
// equivalence against the static plan across shard x thread configurations),
// the engine cache's re-cost-in-place drift guard, and catalog persistence
// across checkpoint -> reopen.

#include "plan/stats_catalog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
#include "eval/seminaive.h"
#include "plan/join_plan.h"
#include "tests/test_util.h"

namespace factlog {
namespace {

namespace fs = std::filesystem;

using test::A;
using test::AddFacts;
using test::P;

// ---- StatsCatalog units -----------------------------------------------------

TEST(AdornmentPatternTest, RendersBoundColumns) {
  EXPECT_EQ(plan::AdornmentPattern(2, {}), "ff");
  EXPECT_EQ(plan::AdornmentPattern(2, {0}), "bf");
  EXPECT_EQ(plan::AdornmentPattern(3, {0, 2}), "bfb");
  EXPECT_EQ(plan::AdornmentPattern(3, {2, 0}), "bfb");
  EXPECT_EQ(plan::AdornmentPattern(0, {}), "");
  // Out-of-range columns are ignored rather than corrupting the pattern.
  EXPECT_EQ(plan::AdornmentPattern(2, {5, -1, 1}), "fb");
}

TEST(StatsCatalogTest, FirstObservationReplacesLaterOnesDecay) {
  plan::StatsCatalog catalog;
  catalog.ObserveExtent("e", 100);
  auto snap = catalog.Snapshot();
  EXPECT_DOUBLE_EQ(snap.at("e").extent, 100.0);
  EXPECT_EQ(snap.at("e").extent_runs, 1u);

  catalog.ObserveExtent("e", 200);
  snap = catalog.Snapshot();
  // kAlpha = 0.5: (1-a)*100 + a*200.
  EXPECT_DOUBLE_EQ(snap.at("e").extent, 150.0);
  EXPECT_EQ(snap.at("e").extent_runs, 2u);

  catalog.ObserveDelta("t", 40.0);
  catalog.ObserveDelta("t", 10.0);
  snap = catalog.Snapshot();
  EXPECT_DOUBLE_EQ(snap.at("t").delta_mean, 25.0);
  EXPECT_EQ(snap.at("t").delta_runs, 2u);
  // Extent and delta decay independently.
  EXPECT_EQ(snap.at("t").extent_runs, 0u);
}

TEST(StatsCatalogTest, ObserveBatchMergesDuplicateAdornmentsIntoOneRun) {
  plan::StatsCatalog catalog;
  // Two rules probed e the same way in one run: the batch must decay the
  // catalog once with the summed totals, not twice.
  std::vector<plan::ProbeObservation> batch;
  batch.push_back({"e", 2, {0}, /*probes=*/10, /*matched=*/5});
  batch.push_back({"e", 2, {0}, /*probes=*/30, /*matched=*/15});
  batch.push_back({"e", 2, {}, /*probes=*/4, /*matched=*/4});
  batch.push_back({"f", 2, {0}, /*probes=*/0, /*matched=*/0});  // dropped
  catalog.ObserveBatch(batch);

  auto snap = catalog.Snapshot();
  ASSERT_EQ(snap.count("e"), 1u);
  EXPECT_EQ(snap.count("f"), 0u);
  const plan::ProbeStats& bf = snap.at("e").probes.at("bf");
  EXPECT_DOUBLE_EQ(bf.probes, 40.0);
  EXPECT_DOUBLE_EQ(bf.matched, 20.0);
  EXPECT_EQ(bf.runs, 1u);
  EXPECT_DOUBLE_EQ(bf.MatchedPerProbe(), 0.5);
  const plan::ProbeStats& ff = snap.at("e").probes.at("ff");
  EXPECT_DOUBLE_EQ(ff.probes, 4.0);
  EXPECT_EQ(ff.runs, 1u);

  // A second batch decays: probes (1-a)*40 + a*20 = 30.
  catalog.ObserveBatch({{"e", 2, {0}, 20, 10}});
  snap = catalog.Snapshot();
  EXPECT_DOUBLE_EQ(snap.at("e").probes.at("bf").probes, 30.0);
  EXPECT_EQ(snap.at("e").probes.at("bf").runs, 2u);
}

TEST(StatsCatalogTest, SeedPlanOptionsLiveHintsWin) {
  plan::StatsCatalog catalog;
  catalog.ObserveExtent("e", 500);
  catalog.ObserveExtent("t", 200);
  catalog.ObserveDelta("t", 12.5);
  catalog.ObserveProbes("e", "bf", 100, 25);

  plan::PlanOptions opts;
  opts.extent_hints["e"] = 50;  // live EDB size: exact, must not be clobbered
  catalog.SeedPlanOptions(&opts);

  EXPECT_EQ(opts.extent_hints.at("e"), 50u);
  EXPECT_EQ(opts.extent_hints.at("t"), 200u);  // IDB: only the catalog knows
  EXPECT_DOUBLE_EQ(opts.delta_hints.at("t"), 12.5);
  EXPECT_DOUBLE_EQ(opts.probe_hints.at("e").at("bf"), 0.25);
}

TEST(StatsCatalogTest, MergeFoldsObservationByObservation) {
  plan::StatsCatalog a;
  a.ObserveExtent("e", 100);
  plan::StatsCatalog b;
  b.ObserveExtent("e", 300);
  b.ObserveExtent("f", 50);
  b.ObserveProbes("e", "bf", 10, 5);

  a.Merge(b);
  auto snap = a.Snapshot();
  EXPECT_DOUBLE_EQ(snap.at("e").extent, 200.0);  // decayed toward b's value
  EXPECT_EQ(snap.at("e").extent_runs, 2u);
  EXPECT_DOUBLE_EQ(snap.at("f").extent, 50.0);  // new predicate: replaced
  EXPECT_EQ(snap.at("f").extent_runs, 1u);
  EXPECT_DOUBLE_EQ(snap.at("e").probes.at("bf").probes, 10.0);
}

TEST(StatsCatalogTest, SnapshotRestoreRoundTrip) {
  plan::StatsCatalog catalog;
  catalog.ObserveExtent("e", 123);
  catalog.ObserveDelta("t", 7.25);
  catalog.ObserveProbes("e", "fb", 64, 16);
  auto before = catalog.Snapshot();

  plan::StatsCatalog other;
  other.ObserveExtent("junk", 1);
  other.Restore(before);
  auto after = other.Snapshot();

  ASSERT_EQ(after.size(), before.size());
  EXPECT_EQ(after.count("junk"), 0u);
  EXPECT_DOUBLE_EQ(after.at("e").extent, 123.0);
  EXPECT_DOUBLE_EQ(after.at("t").delta_mean, 7.25);
  EXPECT_DOUBLE_EQ(after.at("e").probes.at("fb").matched, 16.0);
}

// ---- Mid-fixpoint adaptivity ------------------------------------------------

// Renders an answer set order-independently (ValueStores differ between
// engines; the rendering does not).
std::set<std::string> Tuples(const eval::AnswerSet& answers,
                             const eval::ValueStore& store) {
  std::set<std::string> out;
  for (const auto& row : answers.rows) {
    std::string s = "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ", ";
      s += store.ToString(row[i]);
    }
    s += ")";
    out.insert(std::move(s));
  }
  return out;
}

// Seeded reachability over a long chain plus a large irrelevant edge set:
// t's per-iteration delta is one row while e holds `chain + junk` rows, so
// a plan that drives the recursive rule over e scans the whole relation
// every iteration. The junk edges share no nodes with the chain.
std::string BroomFacts(int chain, int junk) {
  std::string facts = "seed(" + std::to_string(chain) + ", " +
                      std::to_string(chain + 1) + ").\n";
  for (int i = 0; i < chain; ++i) {
    facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  for (int i = 0; i < junk; ++i) {
    facts += "e(" + std::to_string(100000 + i) + ", " +
             std::to_string(200000 + i) + ").\n";
  }
  return facts;
}

const char kSeededTc[] =
    "t(X, Y) :- seed(X, Y). t(X, Y) :- e(X, W), t(W, Y).";

TEST(AdaptiveFixpoint, MisleadingPlanReplansMidRunAndStaysOracleIdentical) {
  // The plan is costed as if e held 4 rows (the "compiled while the database
  // was tiny" scenario); it really holds 1040. The static run is stuck
  // driving the recursive rule over e for the whole fixpoint; the adaptive
  // run notices the 260x extent drift before the first delta pass and
  // switches the driver to t's one-row delta.
  ast::Program program = P(kSeededTc);
  ast::Atom query = A("t(X, Y)");
  plan::PlanOptions popts;
  popts.extent_hints["e"] = 4;
  popts.extent_hints["seed"] = 1;
  plan::ProgramPlan misleading = plan::PlanProgram(program, popts);

  auto run = [&](double threshold, eval::EvalStats* stats) {
    eval::Database db;
    AddFacts(&db, BroomFacts(/*chain=*/40, /*junk=*/1000));
    eval::EvalOptions opts;
    opts.program_plan = &misleading;
    opts.replan_threshold = threshold;
    auto answers = eval::EvaluateQuery(program, query, &db, opts, stats);
    EXPECT_TRUE(answers.ok()) << answers.status().ToString();
    return Tuples(*answers, db.store());
  };

  eval::EvalStats static_stats;
  std::set<std::string> static_answers = run(0.0, &static_stats);
  eval::EvalStats adaptive_stats;
  std::set<std::string> adaptive_answers = run(4.0, &adaptive_stats);

  EXPECT_EQ(static_stats.replans, 0u);
  EXPECT_GE(adaptive_stats.replans, 1u);
  // Fact sets are oracle-identical; so are head instantiations (a join
  // order permutes the enumeration, never the set of satisfying
  // assignments).
  EXPECT_EQ(adaptive_answers, static_answers);
  EXPECT_EQ(static_answers.size(), 41u);
  EXPECT_EQ(adaptive_stats.instantiations, static_stats.instantiations);
  EXPECT_EQ(adaptive_stats.total_facts, static_stats.total_facts);
  // The join work is where adaptivity pays: the static plan matches the
  // whole of e every iteration.
  EXPECT_LT(adaptive_stats.rows_matched, static_stats.rows_matched / 2);
}

// A distribution that shifts mid-fixpoint: one row per delta while the
// chain burns down, then a 200-wide fan arrives in the last iterations.
std::string ShiftingFacts(int chain, int fan) {
  std::string facts = "seed(" + std::to_string(chain) + ", " +
                      std::to_string(chain + 1) + ").\n";
  for (int i = 0; i < chain; ++i) {
    facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  for (int i = 0; i < fan; ++i) {
    facts += "e(" + std::to_string(300000 + i) + ", 0).\n";
  }
  return facts;
}

// Adaptive (default replan threshold) vs. static (threshold 0) through the
// api::Engine across the shard x thread matrix: fact-for-fact equality, and
// the adaptive run never does more head-instantiation work.
TEST(AdaptiveFixpoint, EngineOracleSweep) {
  struct Workload {
    const char* name;
    std::string facts;
    size_t answers;
  };
  const Workload workloads[] = {
      {"skewed_broom", BroomFacts(/*chain=*/24, /*junk=*/400), 25},
      {"shifting_fan", ShiftingFacts(/*chain=*/24, /*fan=*/200), 225},
  };
  for (const Workload& w : workloads) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE(std::string(w.name) + " shards=" +
                     std::to_string(shards) + " threads=" +
                     std::to_string(threads));
        auto run = [&](double threshold, api::QueryStats* stats) {
          api::EngineOptions opts;
          opts.num_shards = shards;
          opts.num_threads = threads;
          opts.eval.replan_threshold = threshold;
          api::Engine engine(opts);
          EXPECT_TRUE(engine.LoadFacts(w.facts).ok());
          auto answers = engine.Query(P(kSeededTc), A("t(X, Y)"),
                                      api::Strategy::kAuto, stats);
          EXPECT_TRUE(answers.ok()) << answers.status().ToString();
          return Tuples(*answers, engine.db().store());
        };
        api::QueryStats static_stats;
        std::set<std::string> expected = run(0.0, &static_stats);
        api::QueryStats adaptive_stats;
        std::set<std::string> actual = run(4.0, &adaptive_stats);
        EXPECT_EQ(actual, expected);
        EXPECT_EQ(expected.size(), w.answers);
        EXPECT_EQ(static_stats.eval.replans, 0u);
        EXPECT_LE(adaptive_stats.eval.instantiations,
                  static_stats.eval.instantiations);
      }
    }
  }
}

// Only rules that run a delta pass in a round are checked for drift. The
// factored three-form TC point alternates m_t_bf and ft rounds, so each
// rule's delta swings between 0 and its frontier every other round; re-plans
// of the idle rule never reorder anything, so the adaptive run must match
// the static one exactly and never count a re-plan.
TEST(AdaptiveFixpoint, FactoredTcPointIsNotReplanned) {
  std::string facts;
  for (int i = 0; i < 300; ++i) {
    for (int step : {1, 10}) {
      facts += "g(" + std::to_string(i) + ", " +
               std::to_string((i + step) % 300) + ").\n";
    }
  }
  const ast::Program program = P(
      "t(X, Y) :- t(X, W), t(W, Y). t(X, Y) :- g(X, W), t(W, Y). "
      "t(X, Y) :- t(X, W), g(W, Y). t(X, Y) :- g(X, Y).");
  auto run = [&](double threshold, api::QueryStats* stats) {
    api::EngineOptions opts;
    opts.num_shards = 4;
    opts.eval.replan_threshold = threshold;
    api::Engine engine(opts);
    EXPECT_TRUE(engine.LoadFacts(facts).ok());
    auto answers =
        engine.Query(program, A("t(7, Y)"), api::Strategy::kAuto, stats);
    EXPECT_TRUE(answers.ok()) << answers.status().ToString();
    return Tuples(*answers, engine.db().store());
  };
  api::QueryStats static_stats;
  std::set<std::string> expected = run(0.0, &static_stats);
  api::QueryStats adaptive_stats;
  std::set<std::string> actual = run(4.0, &adaptive_stats);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(expected.size(), 300u);
  EXPECT_GT(adaptive_stats.eval.iterations, 10u);
  EXPECT_EQ(adaptive_stats.eval.replans, 0u);
  EXPECT_EQ(adaptive_stats.eval.rows_matched, static_stats.eval.rows_matched);
}

// A rule idle for most of the fixpoint keeps its plan and estimates until
// its first active round. r's q literal is planned at the default delta
// estimate (16 rows) and reads 16 rows when it finally runs, so it never
// drifts; had the idle rounds (where q's delta reads 0) been checked, each
// would have re-planned r with q first.
TEST(AdaptiveFixpoint, IdleRuleKeepsItsPlan) {
  std::string facts = "seed(40, 41).\ng(100, 99).\n";
  for (int i = 0; i < 40; ++i) {
    facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  for (int j = 100; j < 116; ++j) {
    facts += "e(" + std::to_string(j) + ", 0).\nstop(" + std::to_string(j) +
             ").\n";
  }
  const ast::Program program = P(
      "c(X, Y) :- seed(X, Y). c(X, Y) :- e(X, W), c(W, Y). "
      "q(X) :- c(X, Y), stop(X). r(X, Z) :- q(X), g(X, Z).");
  auto run = [&](double threshold, eval::EvalStats* stats) {
    eval::Database db;
    AddFacts(&db, facts);
    eval::EvalOptions opts;
    opts.replan_threshold = threshold;
    auto answers = eval::EvaluateQuery(program, A("r(X, Z)"), &db, opts, stats);
    EXPECT_TRUE(answers.ok()) << answers.status().ToString();
    return Tuples(*answers, db.store());
  };
  eval::EvalStats static_stats;
  std::set<std::string> expected = run(0.0, &static_stats);
  eval::EvalStats adaptive_stats;
  std::set<std::string> actual = run(4.0, &adaptive_stats);
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(expected.size(), 1u);
  EXPECT_EQ(adaptive_stats.replans, 0u);
  EXPECT_EQ(adaptive_stats.rows_matched, static_stats.rows_matched);
}

// ---- Engine drift guard: re-cost in place -----------------------------------

TEST(AdaptiveEngine, DriftedCacheHitRecostsWithoutRecompiling) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 3).").ok());
  const std::string prog = "p(X) :- e(X, Y). ?- p(X).";
  ASSERT_TRUE(engine.Query(prog).ok());
  const uint64_t compiles_before = engine.stats().compiles;

  std::string growth;
  for (int i = 100; i < 160; ++i) {
    growth += "e(" + std::to_string(i) + ", 0).\n";
  }
  ASSERT_TRUE(engine.LoadFacts(growth).ok());

  api::QueryStats qs;
  ASSERT_TRUE(engine.Query(P(prog), A("p(X)"), api::Strategy::kAuto, &qs).ok());
  EXPECT_TRUE(qs.cache_hit);
  EXPECT_GT(engine.stats().plans_recosted, 0u);
  EXPECT_EQ(engine.stats().compiles, compiles_before);
}

// The catalog itself learns from every execution: extents, deltas, probes.
TEST(AdaptiveEngine, ExecutionsFeedTheCatalog) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts(BroomFacts(/*chain=*/12, /*junk=*/20)).ok());
  ASSERT_TRUE(engine.Query(P(kSeededTc), A("t(X, Y)")).ok());
  // The catalog is keyed by the executed (transformed) program's predicate
  // names, so assert on the shape of the feedback rather than on "t".
  auto snap = engine.stats_catalog().Snapshot();
  ASSERT_FALSE(snap.empty());
  bool extents = false, deltas = false;
  for (const auto& [pred, ps] : snap) {
    if (ps.extent_runs > 0 && ps.extent > 0.0) extents = true;
    if (ps.delta_runs > 0) deltas = true;
  }
  EXPECT_TRUE(extents) << "no observed extents reached the catalog";
  EXPECT_TRUE(deltas) << "no observed delta means reached the catalog";
}

// ---- Catalog persistence ----------------------------------------------------

class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("factlog_adaptive_" + tag + "_" + std::to_string(counter_++)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int ScratchDir::counter_ = 0;

void ExpectCatalogEq(const std::map<std::string, plan::PredicateStats>& a,
                     const std::map<std::string, plan::PredicateStats>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [pred, pa] : a) {
    ASSERT_EQ(b.count(pred), 1u) << pred;
    const plan::PredicateStats& pb = b.at(pred);
    EXPECT_EQ(pa.extent, pb.extent) << pred;
    EXPECT_EQ(pa.extent_runs, pb.extent_runs) << pred;
    EXPECT_EQ(pa.delta_mean, pb.delta_mean) << pred;
    EXPECT_EQ(pa.delta_runs, pb.delta_runs) << pred;
    ASSERT_EQ(pa.probes.size(), pb.probes.size()) << pred;
    for (const auto& [pattern, sa] : pa.probes) {
      ASSERT_EQ(pb.probes.count(pattern), 1u) << pred << "/" << pattern;
      const plan::ProbeStats& sb = pb.probes.at(pattern);
      EXPECT_EQ(sa.probes, sb.probes) << pred << "/" << pattern;
      EXPECT_EQ(sa.matched, sb.matched) << pred << "/" << pattern;
      EXPECT_EQ(sa.runs, sb.runs) << pred << "/" << pattern;
    }
  }
}

TEST(AdaptivePersistence, CheckpointReopenRestoresCatalogAndPlans) {
  ScratchDir dir("catalog");
  ast::Program program = P(kSeededTc);
  ast::Atom query = A("t(X, Y)");
  std::map<std::string, plan::PredicateStats> saved;
  {
    auto engine = api::Engine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(
        (*engine)->LoadFacts(BroomFacts(/*chain=*/16, /*junk=*/60)).ok());
    ASSERT_TRUE((*engine)->Query(program, query).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
    saved = (*engine)->stats_catalog().Snapshot();
    ASSERT_FALSE(saved.empty());
  }  // destructor = clean close (catalog lives in the checkpoint meta)

  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  // Bit-exact restore: the meta file serializes the decayed doubles raw.
  ExpectCatalogEq((*engine)->stats_catalog().Snapshot(), saved);
  // The warm-recompiled plan must be exactly what the saved measurements
  // plus the restored base-relation sizes dictate — i.e. the restored
  // catalog, not the cost model's defaults, drives the plan.
  auto compiled = (*engine)->Compile(program, query, api::Strategy::kAuto);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  plan::PlanOptions popts;
  for (const auto& [name, rel] : (*engine)->db().relations()) {
    popts.extent_hints[name] = rel->size();
  }
  plan::StatsCatalog learned;
  learned.Restore(saved);
  learned.SeedPlanOptions(&popts);
  plan::ProgramPlan expected = plan::PlanProgram((*compiled)->program, popts);
  EXPECT_EQ(plan::Explain((*compiled)->program, (*compiled)->plans),
            plan::Explain((*compiled)->program, expected));
  // And the measurements visibly moved the plan off the default estimates:
  // a defaults-only plan of the same program reads differently.
  plan::ProgramPlan defaults =
      plan::PlanProgram((*compiled)->program, plan::PlanOptions{});
  EXPECT_NE(plan::Explain((*compiled)->program, expected),
            plan::Explain((*compiled)->program, defaults));
}

}  // namespace
}  // namespace factlog
