// Edge cases of the evaluation engines: zero-ary predicates, repeated query
// variables, builtin error paths, and budget boundaries.

#include <gtest/gtest.h>

#include "eval/seminaive.h"
#include "eval/topdown.h"
#include "tests/test_util.h"

namespace factlog::eval {
namespace {

using test::A;
using test::AddFacts;
using test::Answers;
using test::P;

TEST(EvalEdgeCaseTest, ZeroAryPredicates) {
  const char prog[] = R"(
    go :- e(1, 2).
    result(X) :- go, e(X, Y).
    ?- result(X).
  )";
  EXPECT_EQ(Answers(prog, "e(1, 2). e(3, 4)."),
            (std::vector<std::string>{"(1)", "(3)"}));
  // Without the trigger fact, `go` fails and nothing is derived.
  EXPECT_TRUE(Answers(prog, "e(3, 4).").empty());
}

TEST(EvalEdgeCaseTest, RepeatedQueryVariables) {
  // ?- t(X, X) selects the diagonal; the answer row binds X once.
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    ?- t(X, X).
  )");
  Database db;
  AddFacts(&db, "e(1, 1). e(1, 2). e(3, 3).");
  auto answers = EvaluateQuery(p, *p.query(), &db);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->vars, (std::vector<std::string>{"X"}));
  EXPECT_EQ(answers->rows.size(), 2u);
}

TEST(EvalEdgeCaseTest, GroundQueryYieldsEmptyRow) {
  ast::Program p = P("t(X) :- e(X). ?- t(2).");
  Database db;
  AddFacts(&db, "e(2).");
  auto answers = EvaluateQuery(p, *p.query(), &db);
  ASSERT_TRUE(answers.ok());
  ASSERT_EQ(answers->rows.size(), 1u);
  EXPECT_TRUE(answers->rows[0].empty());  // no variables to bind
}

TEST(EvalEdgeCaseTest, DuplicateBodyLiteralsAreHarmless) {
  const char prog[] = R"(
    t(X) :- e(X), e(X), e(X).
    ?- t(X).
  )";
  EXPECT_EQ(Answers(prog, "e(4)."), (std::vector<std::string>{"(4)"}));
}

TEST(EvalEdgeCaseTest, EqualRunsOnceOneSideIsBound) {
  // Written first, equal/2 has both sides unbound; the planned order runs it
  // after e(X) binds X.
  EXPECT_EQ(Answers("t(X, Y) :- equal(X, Y), e(X). ?- t(X, Y).", "e(1)."),
            (std::vector<std::string>{"(1, 1)"}));
}

TEST(EvalEdgeCaseTest, EqualWithBothSidesUnboundUnderEveryOrderErrors) {
  // No order binds Y or Z (lint's L002); the engines reject the rule.
  ast::Program p = P("t(X) :- e(X), equal(Y, Z).");
  Database db;
  AddFacts(&db, "e(1).");
  auto result = Evaluate(p, &db);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(EvalEdgeCaseTest, AffineWithNonIntegerFailsQuietly) {
  // A symbolic value does not satisfy the integer builtin; no error, no row.
  const char prog[] = R"(
    t(Z) :- e(X), affine(X, 2, 0, Z).
    ?- t(Z).
  )";
  EXPECT_EQ(Answers(prog, "e(sym). e(3)."), (std::vector<std::string>{"(6)"}));
}

TEST(EvalEdgeCaseTest, GeqFiltersIntegers) {
  const char prog[] = R"(
    t(X) :- e(X), geq(X, 3).
    ?- t(X).
  )";
  EXPECT_EQ(Answers(prog, "e(1). e(3). e(5)."),
            (std::vector<std::string>{"(3)", "(5)"}));
}

TEST(EvalEdgeCaseTest, IterationBudgetExact) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, W), t(W, Y).
  )");
  Database db;
  test::AddFacts(&db, "e(1, 2). e(2, 3). e(3, 4). e(4, 5).");
  // The chain needs 5 semi-naive iterations (4 derivation rounds plus the
  // empty-delta round); a budget of 2 must trip.
  EvalOptions tight;
  tight.max_iterations = 2;
  auto result = Evaluate(p, &db, tight);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
  EvalOptions enough;
  enough.max_iterations = 8;
  ASSERT_TRUE(Evaluate(p, &db, enough).ok());
}

TEST(EvalEdgeCaseTest, SelfLoopTerminates) {
  const char prog[] = R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, W), t(W, Y).
    ?- t(1, Y).
  )";
  EXPECT_EQ(Answers(prog, "e(1, 1)."), (std::vector<std::string>{"(1)"}));
}

TEST(EvalEdgeCaseTest, LargeConstantsAndNegatives) {
  const char prog[] = R"(
    t(Y) :- e(X, Y), geq(X, 0).
    ?- t(Y).
  )";
  EXPECT_EQ(Answers(prog, "e(-7, 1). e(0, 2). e(9000000000, 3)."),
            (std::vector<std::string>{"(2)", "(3)"}));
}

TEST(EvalEdgeCaseTest, TopDownGroundCompoundQuery) {
  ast::Program p = P("len([], 0).\n len([H | T], N) :- len(T, M), "
                     "affine(M, 1, 1, N).");
  Database db;
  auto yes = SolveTopDown(p, A("len([a, b, c], N)"), &db);
  ASSERT_TRUE(yes.ok()) << yes.status().ToString();
  ASSERT_EQ(yes->rows.size(), 1u);
  EXPECT_EQ(db.store().ToString(yes->rows[0][0]), "3");
}

TEST(EvalEdgeCaseTest, SymbolsAndIntsDoNotCollide) {
  const char prog[] = R"(
    t(X) :- e(X, X).
    ?- t(X).
  )";
  // The symbol "1" (as functor-less atom `one`) differs from the int 1.
  EXPECT_EQ(Answers(prog, "e(1, 1). e(one, one). e(1, one)."),
            (std::vector<std::string>{"(1)", "(one)"}));
}

}  // namespace
}  // namespace factlog::eval
