// Tests for the api::Engine facade: the strategy-equivalence sweep over the
// workload generators, the plan cache, and the execution modes.

#include "api/engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "ast/parser.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"
#include "workload/list_gen.h"

namespace factlog::api {
namespace {

using test::A;
using test::P;

const char kRightTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";

// ---- Strategy-equivalence sweep --------------------------------------------
//
// Every strategy that compiles a (program, workload) combination must return
// exactly the answers of the original program. kMagic, kSupplementaryMagic,
// kFactoring, and kAuto must always apply; kCounting and kLinearRewrite may
// refuse (kFailedPrecondition) or, for left-linear Counting, diverge into
// the evaluation budget (kResourceExhausted) — the paper's §6.4 observation.

class EngineSweepTest : public ::testing::TestWithParam<int> {};

struct ProgramSpec {
  const char* name;
  const char* program;
  const char* query;
  void (*load)(eval::Database* db);
};

void LoadChain(eval::Database* db) { workload::MakeChain(24, "e", db); }
void LoadCycle(eval::Database* db) { workload::MakeCycle(16, "e", db); }
void LoadGrid(eval::Database* db) { workload::MakeGrid(5, 5, "e", db); }
void LoadSg(eval::Database* db) { workload::MakeSameGeneration(2, 4, db); }
void LoadMembers(eval::Database* db) {
  workload::MakeMembershipPredicate(12, 2, 0, "p", db);
}

const ProgramSpec kSweep[] = {
    {"right_tc_chain",
     "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadChain},
    {"right_tc_cycle",
     "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadCycle},
    {"left_tc_chain",
     "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadChain},
    {"nonlinear_tc_grid",
     "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y). ?- t(1, Y).",
     "t(1, Y)", LoadGrid},
    {"three_form_tc_chain",
     "t(X, Y) :- t(X, W), t(W, Y). t(X, Y) :- e(X, W), t(W, Y). "
     "t(X, Y) :- t(X, W), e(W, Y). t(X, Y) :- e(X, Y). ?- t(1, Y).",
     "t(1, Y)", LoadChain},
    {"same_generation_tree",
     "sg(X, Y) :- flat(X, Y). sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). "
     "?- sg(2, Y).",
     "sg(2, Y)", LoadSg},
};

TEST_P(EngineSweepTest, AllApplicableStrategiesAgree) {
  const ProgramSpec& spec = kSweep[GetParam()];
  Engine engine;
  spec.load(&engine.db());
  ast::Program program = P(spec.program);
  ast::Atom query = A(spec.query);

  // Reference: the original program evaluated bottom-up on the same store.
  auto reference = eval::EvaluateQuery(program, query, &engine.db());
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  const std::string expected = reference->ToString(engine.db().store());

  std::vector<Strategy> required = {Strategy::kAuto, Strategy::kMagic,
                                    Strategy::kSupplementaryMagic,
                                    Strategy::kFactoring};
  for (Strategy s : required) {
    QueryStats stats;
    auto answers = engine.Query(program, query, s, &stats);
    ASSERT_TRUE(answers.ok())
        << spec.name << " / " << core::StrategyToString(s) << ": "
        << answers.status().ToString();
    EXPECT_EQ(answers->ToString(engine.db().store()), expected)
        << spec.name << " / " << core::StrategyToString(s);
  }

  // Counting and the direct linear rewritings are partial strategies: when
  // they compile and evaluate within budget, they too must agree. A small
  // fact budget keeps the §6.4 divergence of left-linear/cyclic Counting
  // from burning time before it is reported.
  EngineOptions partial_options;
  partial_options.eval.max_facts = 200'000;
  Engine partial(partial_options);
  spec.load(&partial.db());
  for (Strategy s : {Strategy::kCounting, Strategy::kLinearRewrite}) {
    auto plan = partial.Compile(program, query, s);
    if (!plan.ok()) {
      EXPECT_EQ(plan.status().code(), StatusCode::kFailedPrecondition)
          << spec.name << " / " << core::StrategyToString(s);
      continue;
    }
    auto answers = partial.Execute(**plan);
    if (!answers.ok()) {
      // Left-linear Counting does not terminate (§6.4); the budget stops it.
      EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted)
          << spec.name << " / " << core::StrategyToString(s) << ": "
          << answers.status().ToString();
      continue;
    }
    EXPECT_EQ(answers->ToString(partial.db().store()), expected)
        << spec.name << " / " << core::StrategyToString(s);
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, EngineSweepTest, ::testing::Range(0, 6),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(kSweep[info.param].name);
                         });

TEST(EngineSweepTest, ListMembershipStrategiesAgree) {
  // pmem (Example 1.2) carries function symbols; the original program is not
  // range-restricted, so the magic-transformed strategies are compared to
  // each other and to the known answer count.
  ast::Program program = workload::MakePmemProgram(12);
  ast::Atom query = *program.query();
  Engine engine;
  LoadMembers(&engine.db());

  std::map<std::string, std::string> results;
  for (Strategy s : {Strategy::kAuto, Strategy::kMagic,
                     Strategy::kSupplementaryMagic, Strategy::kFactoring}) {
    auto answers = engine.Query(program, query, s);
    ASSERT_TRUE(answers.ok()) << core::StrategyToString(s) << ": "
                              << answers.status().ToString();
    EXPECT_EQ(answers->rows.size(), 6u) << core::StrategyToString(s);
    results[core::StrategyToString(s)] =
        answers->ToString(engine.db().store());
  }
  for (const auto& [name, rendered] : results) {
    EXPECT_EQ(rendered, results.begin()->second) << name;
  }
}

// ---- Auto strategy selection -----------------------------------------------

TEST(EngineAutoTest, FactorsWhenTheoremConditionsHold) {
  Engine engine;
  ast::Program p = P(kRightTc);
  auto plan = engine.Compile(p, *p.query(), Strategy::kAuto);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->strategy, Strategy::kFactoring);
  EXPECT_TRUE((*plan)->factoring_applied);
}

TEST(EngineAutoTest, FallsBackToSupplementaryMagic) {
  Engine engine;
  ast::Program p = P(
      "sg(X, Y) :- flat(X, Y). "
      "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y). ?- sg(1, Y).");
  auto plan = engine.Compile(p, *p.query(), Strategy::kAuto);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ((*plan)->strategy, Strategy::kSupplementaryMagic);
  EXPECT_FALSE((*plan)->factoring_applied);
}

// The paper's cost measure on an all-free scan, where factoring cannot apply
// and kAuto falls back to supplementary magic: the 100-node circulant with
// steps 1 and 10 (perfbench closure_eval's scan graph) has 10000 closure
// pairs. kAuto must derive no more than kMagic (m_t_ff plus t_ff), which
// holds only while the fallback does not copy t_ff into sup_1_1.
TEST(EngineAutoTest, AllFreeLeftTcDerivesWhatMagicDerives) {
  Engine engine;
  constexpr int64_t kNodes = 100;
  for (int64_t i = 0; i < kNodes; ++i) {
    engine.AddPair("e", 1 + i, 1 + (i + 1) % kNodes);
    engine.AddPair("e", 1 + i, 1 + (i + 10) % kNodes);
  }
  ast::Program p =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).");
  QueryStats auto_stats, magic_stats;
  auto auto_rows = engine.Query(p, *p.query(), Strategy::kAuto, &auto_stats);
  auto magic_rows =
      engine.Query(p, *p.query(), Strategy::kMagic, &magic_stats);
  ASSERT_TRUE(auto_rows.ok()) << auto_rows.status().ToString();
  ASSERT_TRUE(magic_rows.ok()) << magic_rows.status().ToString();
  EXPECT_EQ(auto_rows->rows.size(), 10000u);
  EXPECT_EQ(auto_rows->rows, magic_rows->rows);
  EXPECT_EQ(auto_stats.eval.total_facts, 10001u);
  EXPECT_EQ(auto_stats.eval.instantiations, 20201u);
  EXPECT_EQ(magic_stats.eval.total_facts, 10001u);
  EXPECT_EQ(magic_stats.eval.instantiations, 20201u);
}

// ---- Plan cache ------------------------------------------------------------

TEST(EnginePlanCacheTest, SecondCompileIsAHit) {
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  QueryStats first, second;
  auto a1 = engine.Query(kRightTc, Strategy::kAuto, &first);
  ASSERT_TRUE(a1.ok());
  EXPECT_FALSE(first.cache_hit);
  auto a2 = engine.Query(kRightTc, Strategy::kAuto, &second);
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(second.compile_us, 0);
  EXPECT_EQ(engine.stats().compiles, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 1u);
  EXPECT_EQ(engine.plan_cache_size(), 1u);
  EXPECT_EQ(a1->rows, a2->rows);
}

TEST(EnginePlanCacheTest, CacheHitRenamesAnswerVarsToCaller) {
  // Regression: a cache hit used to return columns named by the *cached*
  // plan's query variables, not the caller's.
  Engine engine;
  for (int i = 1; i < 5; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  QueryStats first, second;
  auto a1 = engine.Query(p, A("t(X, Y)"), Strategy::kAuto, &first);
  ASSERT_TRUE(a1.ok()) << a1.status().ToString();
  EXPECT_EQ(a1->vars, (std::vector<std::string>{"X", "Y"}));
  auto a2 = engine.Query(p, A("t(A, B)"), Strategy::kAuto, &second);
  ASSERT_TRUE(a2.ok());
  EXPECT_TRUE(second.cache_hit);  // canonically the same plan
  EXPECT_EQ(a2->vars, (std::vector<std::string>{"A", "B"}));
  EXPECT_EQ(a1->rows, a2->rows);
}

TEST(EnginePlanCacheTest, BoundCacheHitRenamesAnswerVars) {
  Engine engine;
  for (int i = 1; i < 5; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  QueryStats stats;
  ASSERT_TRUE(engine.Query(p, A("t(1, Y)")).ok());
  auto renamed = engine.Query(p, A("t(1, Out)"), Strategy::kAuto, &stats);
  ASSERT_TRUE(renamed.ok());
  EXPECT_TRUE(stats.cache_hit);
  EXPECT_EQ(renamed->vars, (std::vector<std::string>{"Out"}));
}

TEST(EnginePlanCacheTest, ConcurrentMissesCompileOnce) {
  // Single-flight: concurrent misses on one key must not double-compile or
  // double-count EngineStats::compiles.
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int i = 0; i < 4; ++i) {
    threads.emplace_back([&] {
      auto plan = engine.Compile(p, A("t(1, Y)"), Strategy::kAuto);
      if (!plan.ok()) ++failures;
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(engine.stats().compiles, 1u);
  EXPECT_EQ(engine.stats().cache_hits, 3u);
  EXPECT_EQ(engine.plan_cache_size(), 1u);
}

TEST(EngineTest, MutationDuringQueryFailsPrecondition) {
  // The documented contract — mutations must not race evaluations — is now
  // enforced: AddFact during a running query returns kFailedPrecondition.
  EngineOptions options;
  options.eval.strategy = eval::Strategy::kNaive;  // deliberately slow
  Engine engine(options);
  // A 500-cycle under naive evaluation re-derives every t(1, *) fact on each
  // of ~500 iterations — plenty of wall-clock for the race window.
  for (int i = 1; i <= 500; ++i) engine.AddPair("e", i, i % 500 + 1);
  std::atomic<bool> done{false};
  std::thread worker([&] {
    auto answers = engine.Query(kRightTc);
    EXPECT_TRUE(answers.ok());
    done.store(true);
  });
  // Wait until the evaluation is visibly in flight, then mutate.
  while (engine.running_queries() == 0 && !done.load()) {
    std::this_thread::yield();
  }
  Status st = engine.AddFact(
      ast::Atom("e", {ast::Term::Int(500), ast::Term::Int(501)}));
  if (!st.ok()) {
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  } else {
    // The query finished in the window between the checks; legal.
    EXPECT_TRUE(done.load());
  }
  worker.join();
  // After the query drains, mutations succeed again.
  EXPECT_TRUE(engine
                  .AddFact(ast::Atom("e", {ast::Term::Int(600),
                                           ast::Term::Int(601)}))
                  .ok());
  EXPECT_EQ(engine.running_queries(), 0);
}

TEST(EnginePlanCacheTest, KeyIsCanonical) {
  // Renamed variables and reordered rules are the same plan.
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  QueryStats first, second;
  ASSERT_TRUE(engine.Query(kRightTc, Strategy::kAuto, &first).ok());
  ASSERT_TRUE(engine
                  .Query("t(P, Q) :- e(P, M), t(M, Q). t(P, Q) :- e(P, Q). "
                         "?- t(1, Out).",
                         Strategy::kAuto, &second)
                  .ok());
  EXPECT_TRUE(second.cache_hit);
  EXPECT_EQ(engine.stats().compiles, 1u);
}

TEST(EnginePlanCacheTest, DifferentConstantsAreDifferentPlans) {
  // The compiled plan bakes the query constant into the magic seed, so a
  // differently-bound query must recompile — and must answer correctly.
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  auto from1 = engine.Query(p, A("t(1, Y)"), Strategy::kAuto);
  auto from5 = engine.Query(p, A("t(5, Y)"), Strategy::kAuto);
  ASSERT_TRUE(from1.ok());
  ASSERT_TRUE(from5.ok());
  EXPECT_EQ(engine.stats().compiles, 2u);
  EXPECT_EQ(from1->rows.size(), 7u);
  EXPECT_EQ(from5->rows.size(), 3u);
}

TEST(EnginePlanCacheTest, StrategiesAreCachedSeparately) {
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  ASSERT_TRUE(engine.Query(p, *p.query(), Strategy::kMagic).ok());
  ASSERT_TRUE(engine.Query(p, *p.query(), Strategy::kFactoring).ok());
  EXPECT_EQ(engine.stats().compiles, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.plan_cache_size(), 2u);
}

TEST(EnginePlanCacheTest, LruEviction) {
  EngineOptions options;
  options.plan_cache_capacity = 2;
  Engine engine(options);
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ast::Program p = P(kRightTc);
  ASSERT_TRUE(engine.Query(p, A("t(1, Y)")).ok());
  ASSERT_TRUE(engine.Query(p, A("t(2, Y)")).ok());
  // Touch t(1, Y): it becomes the most recently used entry.
  ASSERT_TRUE(engine.Query(p, A("t(1, Y)")).ok());
  // A third plan evicts t(2, Y), not t(1, Y).
  ASSERT_TRUE(engine.Query(p, A("t(3, Y)")).ok());
  EXPECT_EQ(engine.plan_cache_size(), 2u);
  QueryStats stats;
  ASSERT_TRUE(engine.Query(p, A("t(1, Y)"), Strategy::kAuto, &stats).ok());
  EXPECT_TRUE(stats.cache_hit);
  QueryStats stats2;
  ASSERT_TRUE(engine.Query(p, A("t(2, Y)"), Strategy::kAuto, &stats2).ok());
  EXPECT_FALSE(stats2.cache_hit);  // was evicted
}

TEST(EnginePlanCacheTest, CanBeDisabled) {
  EngineOptions options;
  options.plan_cache_capacity = 0;
  Engine engine(options);
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ASSERT_TRUE(engine.Query(kRightTc).ok());
  ASSERT_TRUE(engine.Query(kRightTc).ok());
  EXPECT_EQ(engine.stats().compiles, 2u);
  EXPECT_EQ(engine.stats().cache_hits, 0u);
  EXPECT_EQ(engine.plan_cache_size(), 0u);
}

TEST(EnginePlanCacheTest, ClearPlanCache) {
  Engine engine;
  for (int i = 1; i < 8; ++i) engine.AddPair("e", i, i + 1);
  ASSERT_TRUE(engine.Query(kRightTc).ok());
  EXPECT_EQ(engine.plan_cache_size(), 1u);
  engine.ClearPlanCache();
  EXPECT_EQ(engine.plan_cache_size(), 0u);
  QueryStats stats;
  ASSERT_TRUE(engine.Query(kRightTc, Strategy::kAuto, &stats).ok());
  EXPECT_FALSE(stats.cache_hit);
}

// ---- EDB loading and execution modes ---------------------------------------

TEST(EngineTest, LoadFactsParsesGroundFacts) {
  Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 3). e(3, 4).").ok());
  auto answers = engine.Query(kRightTc);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 3u);
}

TEST(EngineTest, LoadFactsRejectsRules) {
  Engine engine;
  Status st = engine.LoadFacts("e(1, 2). t(X, Y) :- e(X, Y).");
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, QueryTextWithoutQueryFails) {
  Engine engine;
  auto answers = engine.Query("t(X, Y) :- e(X, Y).");
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, MutatingEdbBetweenQueriesUsesCachedPlan) {
  Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2).").ok());
  auto before = engine.Query(kRightTc);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->rows.size(), 1u);
  engine.AddPair("e", 2, 3);
  QueryStats stats;
  auto after = engine.Query(kRightTc, Strategy::kAuto, &stats);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(stats.cache_hit);  // plans depend on the program, not the EDB
  EXPECT_EQ(after->rows.size(), 2u);
}

}  // namespace
}  // namespace factlog::api
