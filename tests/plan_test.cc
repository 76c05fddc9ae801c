// Tests for the compile-time join planner (src/plan) and its integration
// with the evaluators: the greedy cost model's decisions, the planned and
// left-to-right sweep over the corpus at 1/2/8 shards x 1/2/8 threads
// against the naive oracle (identical fact sets, head instantiation counts
// never higher than left-to-right), and the right-linear TC regression —
// the driver literal is the outermost (plan-order-first) relation literal
// and planned driver partitioning does strictly less join work than the
// left-to-right baseline.

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "eval/seminaive.h"
#include "exec/parallel_seminaive.h"
#include "exec/thread_pool.h"
#include "plan/join_plan.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"

namespace factlog {
namespace {

using test::A;
using test::kNumSweepPrograms;
using test::kNumSweepWorkloads;
using test::kSweepPrograms;
using test::kSweepWorkloads;
using test::P;
using test::R;

std::vector<size_t> OrderOf(const plan::JoinPlan& jp) {
  std::vector<size_t> out;
  for (const plan::LiteralPlan& lp : jp.order) out.push_back(lp.body_index);
  return out;
}

// ---- Planner unit tests -----------------------------------------------------

TEST(PlanRuleTest, RightLinearTcPutsDeltaOccurrenceFirst) {
  // t(X, Y) :- e(X, W), t(W, Y): t ranges over fixpoint deltas, so the
  // planner drives the rule with it instead of rescanning e per delta pass.
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  plan::ProgramPlan pp = plan::PlanProgram(program);
  ASSERT_EQ(pp.rules.size(), 2u);
  EXPECT_EQ(OrderOf(pp.rules[0]), (std::vector<size_t>{0}));
  EXPECT_FALSE(pp.rules[0].reordered);
  EXPECT_EQ(OrderOf(pp.rules[1]), (std::vector<size_t>{1, 0}));
  EXPECT_TRUE(pp.rules[1].reordered);
  // The driver is the outermost relation literal of the plan — the
  // recursive occurrence itself.
  EXPECT_EQ(pp.rules[1].driver, 1);
  EXPECT_EQ(pp.rules[1].order.front().body_index,
            static_cast<size_t>(pp.rules[1].driver));
  // e is then probed on its first column (W is bound by the occurrence).
  EXPECT_EQ(pp.rules[1].order[1].index_cols, (std::vector<int>{1}));
}

TEST(PlanRuleTest, LeftLinearTcKeepsSourceOrder) {
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).");
  plan::ProgramPlan pp = plan::PlanProgram(program);
  EXPECT_EQ(OrderOf(pp.rules[1]), (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(pp.rules[1].reordered);
  EXPECT_EQ(pp.rules[1].driver, 0);
  EXPECT_EQ(pp.rules[1].order[1].index_cols, (std::vector<int>{0}));
}

TEST(PlanRuleTest, TiesPreserveSourceOrder) {
  plan::JoinPlan jp = plan::PlanRule(R("r(X, Z) :- e(X, Y), f(Y, Z)."));
  EXPECT_EQ(OrderOf(jp), (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(jp.reordered);
  EXPECT_EQ(jp.driver, 0);
}

TEST(PlanRuleTest, ExtentHintsBreakTies) {
  plan::PlanOptions opts;
  opts.extent_hints["e"] = 100000;
  opts.extent_hints["f"] = 10;
  plan::JoinPlan jp = plan::PlanRule(R("r(X, Z) :- e(X, Y), f(Y, Z)."), opts);
  EXPECT_EQ(OrderOf(jp), (std::vector<size_t>{1, 0}));
  EXPECT_EQ(jp.driver, 1);
  // e joins second, probed on column 1 (Y bound by f).
  EXPECT_EQ(jp.order[1].index_cols, (std::vector<int>{1}));
  EXPECT_EQ(jp.order[0].est_rows, 10u);
}

TEST(PlanRuleTest, BoundColumnsBeatUnboundScans) {
  // q(1, Y) starts with a ground column; under equal extents it wins the
  // driver slot from the unbound scan of p.
  plan::JoinPlan jp = plan::PlanRule(R("r(Y, Z) :- p(Z, Y), q(1, Y)."));
  EXPECT_EQ(OrderOf(jp), (std::vector<size_t>{1, 0}));
  EXPECT_EQ(jp.order[0].index_cols, (std::vector<int>{0}));
  EXPECT_EQ(jp.order[1].index_cols, (std::vector<int>{1}));
}

TEST(PlanRuleTest, BuiltinsRunAsSoonAsExecutable) {
  plan::PlanOptions opts;
  opts.extent_hints["big"] = 100000;
  opts.extent_hints["tiny"] = 2;
  // tiny is scheduled first, affine computes Z from its X immediately, and
  // big joins last with both columns bound.
  plan::JoinPlan jp = plan::PlanRule(
      R("r(X, Z) :- big(X, Z), tiny(X), affine(X, 2, 0, Z)."), opts);
  EXPECT_EQ(OrderOf(jp), (std::vector<size_t>{1, 2, 0}));
  EXPECT_EQ(jp.order[2].index_cols, (std::vector<int>{0, 1}));
  EXPECT_EQ(jp.driver, 1);
}

TEST(PlanRuleTest, BuiltinWrittenFirstRunsOnceReady) {
  // equal/2 is written before e(X) binds X: the plan runs it afterwards.
  plan::JoinPlan jp = plan::PlanRule(R("t(X, Y) :- equal(X, Y), e(X)."));
  EXPECT_EQ(OrderOf(jp), (std::vector<size_t>{1, 0}));
  EXPECT_TRUE(jp.reordered);
  EXPECT_EQ(test::Answers("t(X, Y) :- equal(X, Y), e(X). ?- t(X, Y).",
                          "e(1)."),
            (std::vector<std::string>{"(1, 1)"}));
  // The left-to-right baseline keeps the source order exactly.
  plan::PlanOptions ltr;
  ltr.reorder = false;
  EXPECT_EQ(OrderOf(plan::PlanRule(R("t(X, Y) :- equal(X, Y), e(X)."), ltr)),
            (std::vector<size_t>{0, 1}));
}

TEST(PlanRuleTest, BuiltinNoOrderRunsIsPlannedLastAndErrors) {
  // No order binds Y or Z (lint's L002): the builtin goes last and the
  // evaluation fails there.
  plan::JoinPlan jp = plan::PlanRule(R("t(X) :- equal(Y, Z), e(X)."));
  EXPECT_EQ(OrderOf(jp), (std::vector<size_t>{1, 0}));
  ast::Program p = P("t(X) :- equal(Y, Z), e(X).");
  eval::Database db;
  test::AddFacts(&db, "e(1).");
  auto result = eval::Evaluate(p, &db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(PlanRuleTest, DeterministicAcrossCalls) {
  ast::Rule rule = R("r(X, Z) :- a(X, Y), b(Y, Z), c(Z, X), geq(X, 0).");
  plan::PlanOptions opts;
  opts.extent_hints = {{"a", 50}, {"b", 5000}, {"c", 50}};
  plan::JoinPlan first = plan::PlanRule(rule, opts);
  for (int i = 0; i < 5; ++i) {
    plan::JoinPlan again = plan::PlanRule(rule, opts);
    EXPECT_EQ(OrderOf(again), OrderOf(first));
    EXPECT_EQ(again.driver, first.driver);
  }
}

TEST(ProgramPlanTest, CompatibleChecksStructure) {
  ast::Program program = P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  plan::ProgramPlan pp = plan::PlanProgram(program);
  EXPECT_TRUE(pp.Compatible(program));
  ast::Program other = P("t(X, Y) :- e(X, Y).");
  EXPECT_FALSE(pp.Compatible(other));
  EXPECT_EQ(pp.reordered_rules(), 1u);
}

TEST(CompiledQueryTest, CarriesJoinPlanAndTraceEntry) {
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).");
  auto compiled =
      core::CompileQuery(program, *program.query(), core::Strategy::kAuto);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_TRUE(compiled->plans.Compatible(compiled->program));
  bool saw_plan_pass = false;
  for (const core::PassTraceEntry& entry : compiled->trace) {
    if (entry.pass == "join-plan") {
      saw_plan_pass = true;
      EXPECT_TRUE(entry.applied);
    }
  }
  EXPECT_TRUE(saw_plan_pass);
  EXPECT_FALSE(plan::Explain(compiled->program, compiled->plans).empty());
}

// ---- Plan vs join-loop groundness oracle ------------------------------------

TEST(PlanIndexColsTest, MatchStaticIndexColsOnPlanCompiledRules) {
  // The plan's declared index requirements are what the engines pre-build;
  // eval::StaticIndexCols (computed on the compiled, plan-ordered body) is
  // the independent ground truth for what the join loop probes. The two
  // groundness analyses — AST-level in plan::, pattern-level in eval:: —
  // must never diverge.
  for (int p = 0; p < kNumSweepPrograms; ++p) {
    ast::Program original = P(kSweepPrograms[p].text);
    ast::Atom query = A(kSweepPrograms[p].query);
    auto compiled = core::CompileQuery(original, query, core::Strategy::kAuto);
    ASSERT_TRUE(compiled.ok());
    for (const ast::Program* program : {&original, &compiled->program}) {
      eval::Database db;
      plan::ProgramPlan pp = plan::PlanProgram(*program);
      for (size_t i = 0; i < program->rules().size(); ++i) {
        auto cr = eval::CompiledRule::Compile(program->rules()[i],
                                              &db.store(), &pp.rules[i]);
        ASSERT_TRUE(cr.ok());
        std::vector<std::vector<int>> oracle = eval::StaticIndexCols(*cr);
        for (size_t k = 0; k < pp.rules[i].order.size(); ++k) {
          if (!pp.rules[i].order[k].is_relation) continue;
          EXPECT_EQ(pp.rules[i].order[k].index_cols, oracle[k])
              << kSweepPrograms[p].name << " rule " << i << " literal " << k;
        }
      }
    }
  }
}

// ---- Plan-compiled rules: premises stay in source order ---------------------

TEST(CompiledRuleTest, PremisesReportedInSourceOrderUnderReordering) {
  eval::Database db;
  test::AddFacts(&db, "e(1, 2). s(2, 3).");
  ast::Rule rule = R("r(X, Y) :- e(X, W), s(W, Y).");
  plan::PlanOptions opts;
  opts.extent_hints = {{"e", 100000}, {"s", 1}};
  plan::JoinPlan jp = plan::PlanRule(rule, opts);
  ASSERT_EQ(OrderOf(jp), (std::vector<size_t>{1, 0}));  // s scheduled first
  auto compiled = eval::CompiledRule::Compile(rule, &db.store(), &jp);
  ASSERT_TRUE(compiled.ok());

  std::vector<eval::RelationView> views = {
      eval::RelationView{db.Find("e"), nullptr},
      eval::RelationView{db.Find("s"), nullptr}};
  // Views are indexed by COMPILED position: literal 0 is s, literal 1 is e.
  std::swap(views[0], views[1]);
  eval::JoinStats stats;
  std::vector<std::vector<eval::FactKey>> seen;
  auto st = EnumerateRule(
      *compiled, &db.store(), views, /*track_premises=*/true, &stats,
      [&](const std::vector<eval::ValueId>&,
          const std::vector<eval::FactKey>* premises) {
        seen.push_back(*premises);
        return true;
      });
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(seen.size(), 1u);
  ASSERT_EQ(seen[0].size(), 2u);
  EXPECT_EQ(seen[0][0].predicate, "e");  // source order, not plan order
  EXPECT_EQ(seen[0][1].predicate, "s");
}

// ---- Planner-vs-left-to-right equivalence sweep -----------------------------

std::map<std::string, std::set<std::string>> FactSets(
    const eval::EvalResult& result, const eval::ValueStore& store) {
  std::map<std::string, std::set<std::string>> out;
  for (const auto& [pred, rel] : result.idb()) {
    std::set<std::string>& rows = out[pred];
    for (size_t r = 0; r < rel->size(); ++r) {
      std::string s = "(";
      for (size_t c = 0; c < rel->arity(); ++c) {
        if (c > 0) s += ", ";
        s += store.ToString(rel->row(r)[c]);
      }
      s += ")";
      rows.insert(s);
    }
  }
  return out;
}

class PlannedSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

// The planner's oracle check: for every corpus program (original and
// pipeline-compiled), evaluation in left-to-right and planned order — with
// no pool and on pools at 1/2/8 storage shards x 1/2/8 threads — produces
// exactly the fact sets of naive T_P evaluation on flat storage (an
// independent fixpoint, so no run is compared with itself). Every planned
// run takes the left-to-right run's iteration count, and its head
// instantiation count is never higher (a complete body match is
// join-order-invariant, so they are in fact equal; the planner's win shows
// up in rows_matched).
TEST_P(PlannedSweepTest, PlannedMatchesNaiveOracle) {
  const test::SweepProgram& ps = kSweepPrograms[std::get<0>(GetParam())];
  const test::SweepWorkload& ws = kSweepWorkloads[std::get<1>(GetParam())];

  ast::Program original = P(ps.text);
  ast::Atom query = A(ps.query);
  auto compiled = core::CompileQuery(original, query, core::Strategy::kAuto);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  struct Variant {
    const char* name;
    const ast::Program* program;
  };
  const Variant variants[] = {{"original", &original},
                              {"compiled", &compiled->program}};

  for (const Variant& v : variants) {
    eval::Database oracle_db;
    ws.make(&oracle_db);
    eval::EvalOptions naive;
    naive.strategy = eval::Strategy::kNaive;
    auto oracle = eval::Evaluate(*v.program, &oracle_db, naive);
    ASSERT_TRUE(oracle.ok()) << v.name << ": " << oracle.status().ToString();
    auto expected = FactSets(*oracle, oracle_db.store());

    // Left-to-right, no pool: the join-order baseline.
    eval::Database ltr_db;
    ws.make(&ltr_db);
    eval::EvalOptions ltr;
    ltr.join_order = eval::JoinOrder::kLeftToRight;
    auto baseline = eval::Evaluate(*v.program, &ltr_db, ltr);
    ASSERT_TRUE(baseline.ok())
        << v.name << ": " << baseline.status().ToString();
    EXPECT_EQ(FactSets(*baseline, ltr_db.store()), expected) << v.name;

    // Planned, no pool.
    eval::Database seq_db;
    ws.make(&seq_db);
    auto planned = eval::Evaluate(*v.program, &seq_db);
    ASSERT_TRUE(planned.ok()) << v.name << ": " << planned.status().ToString();
    EXPECT_EQ(FactSets(*planned, seq_db.store()), expected) << v.name;
    EXPECT_LE(planned->stats().instantiations,
              baseline->stats().instantiations)
        << v.name;
    EXPECT_EQ(planned->stats().iterations, baseline->stats().iterations)
        << v.name;

    // Planned on a pool across the shard x thread grid.
    for (size_t shards : {1u, 2u, 8u}) {
      for (size_t threads : {1u, 2u, 8u}) {
        eval::Database db(eval::StorageOptions{shards, {}});
        ws.make(&db);
        exec::ThreadPool pool(threads);
        exec::ParallelEvalOptions opts;
        opts.min_rows_to_partition = 1;  // exercise fan-out on tiny extents
        opts.num_shards = shards;
        auto parallel = exec::EvaluateParallel(*v.program, &db, &pool, opts);
        ASSERT_TRUE(parallel.ok())
            << v.name << " @" << threads << "t/" << shards << "sh: "
            << parallel.status().ToString();
        EXPECT_EQ(FactSets(*parallel, db.store()), expected)
            << v.name << " @" << threads << "t/" << shards << "sh";
        EXPECT_LE(parallel->stats().instantiations,
                  baseline->stats().instantiations)
            << v.name << " @" << threads << "t/" << shards << "sh";
        EXPECT_EQ(parallel->stats().iterations, baseline->stats().iterations)
            << v.name << " @" << threads << "t/" << shards << "sh";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, PlannedSweepTest,
    ::testing::Combine(::testing::Range(0, kNumSweepPrograms),
                       ::testing::Range(0, kNumSweepWorkloads)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kSweepPrograms[std::get<0>(info.param)].name) +
             "_x_" + kSweepWorkloads[std::get<1>(info.param)].name;
    });

// ---- Right-linear TC regression --------------------------------------------

TEST(RightLinearTcRegressionTest, DriverIsOutermostRelationLiteral) {
  // The acceptance regression: for the right-linear recursive rule the
  // driver literal is the outermost relation literal of the plan (the
  // recursive occurrence, moved to the front), so the parallel fixpoint
  // partitions delta shards instead of re-enumerating the e-prefix per
  // shard.
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  plan::ProgramPlan pp = plan::PlanProgram(program);
  const plan::JoinPlan& jp = pp.rules[1];
  ASSERT_FALSE(jp.order.empty());
  EXPECT_EQ(static_cast<int>(jp.order.front().body_index), jp.driver);
  EXPECT_EQ(program.rules()[1].body()[jp.driver].predicate(), "t");
}

TEST(RightLinearTcRegressionTest, PlannedDriverPartitioningDoesLessWork) {
  // Planned vs left-to-right on sharded right-linear TC: identical fact
  // sets and instantiation counts, strictly fewer rows matched (the
  // left-to-right baseline rescans e once per delta shard per iteration).
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  auto run = [&](eval::JoinOrder order) {
    eval::Database db(eval::StorageOptions{8, {}});
    workload::MakeChain(48, "e", &db);
    workload::MakeRandomGraph(48, 96, /*seed=*/7, "e", &db);
    exec::ThreadPool pool(2);
    exec::ParallelEvalOptions opts;
    opts.min_rows_to_partition = 1;
    opts.num_shards = 8;
    opts.eval.join_order = order;
    auto result = exec::EvaluateParallel(program, &db, &pool, opts);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result;
  };
  auto planned = run(eval::JoinOrder::kPlanned);
  auto baseline = run(eval::JoinOrder::kLeftToRight);
  ASSERT_TRUE(planned.ok() && baseline.ok());
  EXPECT_EQ(planned->stats().total_facts, baseline->stats().total_facts);
  EXPECT_EQ(planned->stats().instantiations,
            baseline->stats().instantiations);
  EXPECT_LT(planned->stats().rows_matched, baseline->stats().rows_matched);
  // Total join work (matches + instantiations) drops too.
  EXPECT_LT(planned->stats().rows_matched + planned->stats().instantiations,
            baseline->stats().rows_matched +
                baseline->stats().instantiations);
}

// ---- BaseIndexNeeds derives exactly the plan's index set -------------------

TEST(BaseIndexNeedsTest, NamesThePlannedBaseProbesAndMatchesSharedEvaluation) {
  eval::Database db;
  workload::MakeChain(200, "e", &db);
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).");
  auto compiled =
      core::CompileQuery(program, *program.query(), core::Strategy::kAuto);
  ASSERT_TRUE(compiled.ok());

  // The compiled program probes e on its bound first column in both of its
  // rules; the query predicate is derived, so there is no extraction probe.
  auto needs = plan::BaseIndexNeeds(compiled->program, compiled->plans,
                                    compiled->query);
  const std::vector<std::pair<std::string, std::vector<int>>> want = {
      {"e", {0}}, {"e", {0}}};
  EXPECT_EQ(needs, want);

  auto baseline =
      eval::EvaluateQuery(compiled->program, compiled->query, &db);
  ASSERT_TRUE(baseline.ok());

  for (const auto& [pred, cols] : needs) db.Find(pred)->EnsureIndex(cols);
  eval::EvalOptions opts;
  opts.shared_edb = true;
  opts.program_plan = &compiled->plans;
  auto shared = eval::EvaluateQuery(compiled->program, compiled->query, &db,
                                    opts);
  ASSERT_TRUE(shared.ok()) << shared.status().ToString();
  EXPECT_EQ(shared->rows, baseline->rows);
}

TEST(BaseIndexNeedsTest, BaseQueryAddsTheExtractionProbe) {
  ast::Program program = P("t(X, Y) :- e(X, Y).");
  plan::ProgramPlan plan = plan::PlanProgram(program);
  // A base query predicate is probed on its ground positions.
  auto needs = plan::BaseIndexNeeds(program, plan, A("e(1, Y)"));
  ASSERT_EQ(needs.size(), 1u);
  EXPECT_EQ(needs[0].first, "e");
  EXPECT_EQ(needs[0].second, std::vector<int>{0});
  // A derived query predicate is extracted from private IDB state.
  EXPECT_TRUE(plan::BaseIndexNeeds(program, plan, A("t(1, Y)")).empty());
  // A plan built for another program yields nothing.
  EXPECT_TRUE(plan::BaseIndexNeeds(P("t(X, Y) :- e(X, Y), e(Y, X)."), plan,
                                   A("e(1, Y)"))
                  .empty());
}

// ---- Per-rule stats ---------------------------------------------------------

TEST(PerRuleStatsTest, RuleCountersSumToTotals) {
  eval::Database db;
  workload::MakeChain(16, "e", &db);
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  auto result = eval::Evaluate(program, &db);
  ASSERT_TRUE(result.ok());
  const eval::EvalStats& stats = result->stats();
  ASSERT_EQ(stats.rule_instantiations.size(), 2u);
  uint64_t inst = 0, rows = 0;
  for (size_t i = 0; i < 2; ++i) {
    inst += stats.rule_instantiations[i];
    rows += stats.rule_rows_matched[i];
  }
  EXPECT_EQ(inst, stats.instantiations);
  EXPECT_EQ(rows, stats.rows_matched);
  EXPECT_GT(stats.instantiations, 0u);

  exec::ThreadPool pool(2);
  exec::ParallelEvalOptions popts;
  popts.min_rows_to_partition = 1;
  popts.num_shards = 4;
  eval::Database pdb(eval::StorageOptions{4, {}});
  workload::MakeChain(16, "e", &pdb);
  auto parallel = exec::EvaluateParallel(program, &pdb, &pool, popts);
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(parallel->stats().rule_instantiations.size(), 2u);
  EXPECT_EQ(parallel->stats().rule_instantiations,
            result->stats().rule_instantiations);
}

}  // namespace
}  // namespace factlog
