#include "core/pipeline.h"

#include <gtest/gtest.h>

#include "core/canonical.h"
#include "eval/seminaive.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"
#include "workload/list_gen.h"

namespace factlog::core {
namespace {

using test::A;
using test::P;

TEST(PipelineTest, ThreeFormTcProducesPaperFinalProgram) {
  // Example 1.1 / 4.2 / 5.3 end to end: the 4-rule unary program.
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), t(W, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
    ?- t(5, Y).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->factoring_applied);
  EXPECT_EQ(result->factorability.cls, FactorClass::kSelectionPushing);
  ASSERT_TRUE(result->optimized.has_value());
  ast::Program expected = P(R"(
    m_t_bf(W) :- ft(W).
    m_t_bf(5).
    ft(Y) :- m_t_bf(X), e(X, Y).
    query(Y) :- ft(Y).
    ?- query(Y).
  )");
  EXPECT_TRUE(StructurallyEqual(*result->optimized, expected))
      << result->optimized->ToString();
  EXPECT_EQ(result->final_query().ToString(), "query(Y)");
}

TEST(PipelineTest, FinalProgramHasUnaryRecursivePredicates) {
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), t(W, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
    ?- t(5, Y).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  // Every IDB predicate of the final program is unary: the arity reduction
  // the paper is about.
  for (const ast::Rule& r : result->optimized->rules()) {
    EXPECT_LE(r.head().arity(), 1u) << r.ToString();
  }
}

TEST(PipelineTest, FinalProgramComputesCorrectAnswers) {
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), t(W, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
    ?- t(1, Y).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  eval::Database db;
  workload::MakeChain(50, "e", &db);
  auto answers = eval::EvaluateQuery(result->final_program(),
                                     result->final_query(), &db);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->rows.size(), 49u);
}

TEST(PipelineTest, FactCountIsLinearNotQuadratic) {
  // The headline claim: Magic alone materializes O(n^2) t_bf facts on a
  // chain queried from node 1; the factored program stores O(n).
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), t(W, Y).
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
    ?- t(1, Y).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());

  const int64_t n = 60;
  eval::Database db1, db2;
  workload::MakeChain(n, "e", &db1);
  workload::MakeChain(n, "e", &db2);

  auto magic = eval::Evaluate(result->magic.program, &db1);
  ASSERT_TRUE(magic.ok());
  auto factored = eval::Evaluate(*result->optimized, &db2);
  ASSERT_TRUE(factored.ok());

  // t_bf holds all (i, j) pairs with i <= j reachable from 1: Theta(n^2).
  EXPECT_GT(magic->SizeOf("t_bf"), static_cast<size_t>(n * (n - 1) / 4));
  // The factored program's total IDB is O(n).
  EXPECT_LT(factored->stats().total_facts, static_cast<size_t>(4 * n));
}

TEST(PipelineTest, PmemExample46FinalProgram) {
  ast::Program p = workload::MakePmemProgram(3);
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_TRUE(result->factoring_applied);
  ASSERT_TRUE(result->optimized.has_value());
  // The paper's final listing: seed, destructuring magic rule, fpmem exit,
  // query.
  ast::Program expected = P(R"(
    m_pmem_fb([1, 2, 3]).
    m_pmem_fb(T) :- m_pmem_fb([H | T]).
    fpmem(X) :- m_pmem_fb([X | T]), p(X).
    query(X) :- fpmem(X).
    ?- query(X).
  )");
  EXPECT_TRUE(StructurallyEqual(*result->optimized, expected))
      << result->optimized->ToString();
}

TEST(PipelineTest, PmemFinalProgramIsLinear) {
  const int64_t n = 40;
  ast::Program p = workload::MakePmemProgram(n);
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  eval::Database db;
  workload::MakeMembershipPredicate(n, 1, 0, "p", &db);
  auto eval_result = eval::Evaluate(*result->optimized, &db);
  ASSERT_TRUE(eval_result.ok());
  // m_pmem holds the n suffixes plus nil; fpmem and query the n members:
  // ~3n + 1 facts, i.e. O(n) (vs O(n^2) for the unfactored Magic program).
  EXPECT_LT(eval_result->stats().total_facts, static_cast<uint64_t>(4 * n));
  auto answers = eval::ExtractAnswers(result->final_query(),
                                      &eval_result.value(), &db);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), static_cast<size_t>(n));
}

TEST(PipelineTest, NotFactorableFallsBackToMagic) {
  // Query from a leaf (node 16 in a binary tree of depth 4): leaves are the
  // only nodes with flat partners.
  ast::Program p = P(R"(
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    ?- sg(16, Y).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->factoring_applied);
  EXPECT_FALSE(result->optimized.has_value());
  // final_program() is the Magic program and still answers correctly.
  eval::Database db;
  workload::MakeSameGeneration(2, 4, &db);
  auto magic_answers = eval::EvaluateQuery(result->final_program(),
                                           result->final_query(), &db);
  auto orig_answers = eval::EvaluateQuery(p, *p.query(), &db);
  ASSERT_TRUE(magic_answers.ok());
  ASSERT_TRUE(orig_answers.ok());
  EXPECT_EQ(magic_answers->rows, orig_answers->rows);
  EXPECT_FALSE(orig_answers->rows.empty());
}

TEST(PipelineTest, Example51StaticReduction) {
  ast::Program p = P(R"(
    p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).
    p(X, Y, Z) :- exit0(X, Y, Z).
    ?- p(5, 6, U).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->static_reduction_applied);
  EXPECT_EQ(result->reduced_positions, (std::vector<int>{0}));
  EXPECT_TRUE(result->factoring_applied);
}

TEST(PipelineTest, Example52PseudoLeftLinear) {
  ast::Program p = P(R"(
    p(X, Y, Z) :- p(X, Y, W), d(W, X, Z).
    p(X, Y, Z) :- exit0(X, Y, Z).
    ?- p(5, 6, U).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->static_reduction_applied);
  EXPECT_EQ(result->reduced_positions, (std::vector<int>{0}));
  ASSERT_TRUE(result->factoring_applied);
  // The reduced program is left-linear; the query constant 5 lands inside
  // the d atom, as in the paper's listing.
  bool has_const_in_d = false;
  for (const ast::Rule& r : result->optimized->rules()) {
    for (const ast::Atom& b : r.body()) {
      if (b.predicate() == "d" && b.args()[1] == ast::Term::Int(5)) {
        has_const_in_d = true;
      }
    }
  }
  EXPECT_TRUE(has_const_in_d) << result->optimized->ToString();
}

TEST(PipelineTest, TraceRecordsDecisions) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
    ?- t(5, Y).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  std::string all = TraceToString(result->trace);
  EXPECT_NE(all.find("t_bf"), std::string::npos);
  EXPECT_NE(all.find("selection-pushing"), std::string::npos);
  EXPECT_NE(all.find("factored"), std::string::npos);
  // The trace is structured: every executed pass contributes an entry with
  // its name and rule counts. Compilation opens with the mandatory lint
  // pass; the strategy's own passes follow.
  ASSERT_FALSE(result->trace.empty());
  EXPECT_EQ(result->trace.front().pass, "lint");
  ASSERT_GT(result->trace.size(), 1u);
  EXPECT_EQ(result->trace[1].pass, "adorn");
  bool saw_factoring_pass = false;
  for (const PassTraceEntry& entry : result->trace) {
    if (entry.pass == "factoring") {
      saw_factoring_pass = true;
      EXPECT_TRUE(entry.applied);
      EXPECT_GT(entry.rules_after, 0u);
    }
  }
  EXPECT_TRUE(saw_factoring_pass);
}

TEST(PipelineTest, SecondArgumentBoundFactorsSymmetrically) {
  // Binding the second argument of left-linear TC makes it right-linear
  // after adornment; the pipeline factors it all the same.
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), e(W, Y).
    t(X, Y) :- e(X, Y).
    ?- t(X, 9).
  )");
  auto result = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->factoring_applied)
      << result->classification.diagnostic;
  eval::Database db;
  workload::MakeChain(9, "e", &db);
  auto answers = eval::EvaluateQuery(result->final_program(),
                                     result->final_query(), &db);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 8u);  // nodes 1..8 reach 9
}

}  // namespace
}  // namespace factlog::core
