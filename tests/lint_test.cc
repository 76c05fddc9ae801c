// Tests for the static program linter (analysis/lint.h): one positive and
// one negative case per diagnostic code, the stratification machinery it is
// built on, pipeline integration, and a re-lint of every committed program
// corpus (examples/programs/ must be error-free, tests/bad_programs/ must
// not be).

#include "analysis/lint.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/dependency_graph.h"
#include "api/engine.h"
#include "core/pipeline.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"

namespace factlog::analysis {
namespace {

using test::A;
using test::DlFilesIn;
using test::P;
using test::R;
using test::ReadFileOrDie;

int Count(const LintReport& report, const std::string& code) {
  return static_cast<int>(
      std::count_if(report.diagnostics.begin(), report.diagnostics.end(),
                    [&](const Diagnostic& d) { return d.code == code; }));
}

// ---- L001: safety / range restriction ----

TEST(LintTest, UnsafeHeadVariableIsError) {
  LintReport report = LintProgram(P("p(X, Y) :- e(X, X). ?- p(1, Y)."));
  EXPECT_EQ(Count(report, "L001"), 1);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.errors(), 1u);
}

TEST(LintTest, SafeRuleHasNoL001) {
  LintReport report =
      LintProgram(P("p(X, Y) :- e(X, Y). ?- p(1, Y)."));
  EXPECT_EQ(Count(report, "L001"), 0);
  EXPECT_TRUE(report.ok());
}

TEST(LintTest, BuiltinBindingSatisfiesSafety) {
  // Y is bound through affine propagation, Z through equal: no L001.
  LintReport report = LintProgram(
      P("p(X, Y, Z) :- e(X), affine(X, 2, 1, Y), equal(Z, Y). ?- p(1, Y, Z)."));
  EXPECT_EQ(Count(report, "L001"), 0);
  EXPECT_TRUE(report.ok());
}

// ---- L002: builtin executability ----

TEST(LintTest, UnboundGeqIsError) {
  LintReport report =
      LintProgram(P("big(X, Y) :- e(X, Y), geq(Z, 10). ?- big(1, Y)."));
  EXPECT_EQ(Count(report, "L002"), 1);
  EXPECT_FALSE(report.ok());
}

TEST(LintTest, ExecutableBuiltinChainHasNoL002) {
  // affine solves C from SC; order in the source does not matter.
  LintReport report = LintProgram(
      P("cost(P, C) :- affine(SC, 1, 0, C), madeof(P, S), cost(S, SC). "
        "cost(P, C) :- basic(P, C). ?- cost(1, C)."));
  EXPECT_EQ(Count(report, "L002"), 0);
  EXPECT_TRUE(report.ok());
}

TEST(LintTest, EqualBothSidesFreeIsError) {
  LintReport report =
      LintProgram(P("p(X) :- e(X), equal(Y, Z). ?- p(1)."));
  EXPECT_EQ(Count(report, "L002"), 1);
}

// ---- L003: arity consistency ----
// ParseProgram already runs ValidateArities, so conflicting uses must be
// assembled directly on the AST.

TEST(LintTest, ConflictingRuleAritiesAreError) {
  ast::Program program;
  program.AddRule(R("p(X) :- e(X)."));
  program.AddRule(R("q(X, Y) :- p(X, Y)."));
  program.set_query(A("q(1, Y)"));
  LintReport report = LintProgram(program);
  EXPECT_EQ(Count(report, "L003"), 1);
  EXPECT_FALSE(report.ok());
}

TEST(LintTest, EdbSchemaMismatchIsError) {
  ast::Program program;
  program.AddRule(R("p(X) :- e(X)."));
  program.set_query(A("p(1)"));
  LintOptions opts;
  opts.edb_arities["e"] = 2;  // the database says e/2, the program uses e/1
  LintReport report = LintProgram(program, opts);
  EXPECT_EQ(Count(report, "L003"), 1);
}

TEST(LintTest, BuiltinArityMisuseIsError) {
  ast::Program program;
  program.AddRule(R("p(X) :- e(X), geq(X)."));
  program.set_query(A("p(1)"));
  LintReport report = LintProgram(program);
  EXPECT_EQ(Count(report, "L003"), 1);
}

TEST(LintTest, ConsistentAritiesHaveNoL003) {
  LintReport report = LintProgram(
      P(".edb e/2. t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). "
        "?- t(1, Y)."));
  EXPECT_EQ(Count(report, "L003"), 0);
  EXPECT_TRUE(report.ok());
}

// ---- L004: stratification ----

TEST(LintTest, NegativeEdgeInsideSccIsError) {
  LintOptions opts;
  opts.negative_edges.insert({"p", "q"});
  LintReport report =
      LintProgram(P("p(X) :- q(X). q(X) :- p(X). ?- p(1)."), opts);
  EXPECT_EQ(Count(report, "L004"), 1);
  EXPECT_FALSE(report.ok());
}

TEST(LintTest, CrossStratumNegationIsFine) {
  LintOptions opts;
  opts.negative_edges.insert({"p", "q"});
  LintReport report =
      LintProgram(P("p(X) :- q(X). q(X) :- b(X). ?- p(1)."), opts);
  EXPECT_EQ(Count(report, "L004"), 0);
  EXPECT_TRUE(report.ok());
  ASSERT_TRUE(report.strata.count("p") == 1 && report.strata.count("q") == 1);
  EXPECT_GT(report.strata["p"], report.strata["q"]);
  EXPECT_GE(report.num_strata, 2);
}

TEST(LintTest, PositiveProgramIsSingleStratum) {
  LintReport report = LintProgram(
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y)."));
  EXPECT_EQ(Count(report, "L004"), 0);
  EXPECT_EQ(report.num_strata, 1);
}

// ---- L101: singleton variables ----

TEST(LintTest, SingletonVariableWarns) {
  LintReport report =
      LintProgram(P("p(X) :- e(X, Y). ?- p(1)."));
  EXPECT_EQ(Count(report, "L101"), 1);
  EXPECT_TRUE(report.ok()) << "singletons are warnings, not errors";
}

TEST(LintTest, UnderscorePrefixSilencesSingleton) {
  LintReport report = LintProgram(P("p(X) :- e(X, _Y). ?- p(1)."));
  EXPECT_EQ(Count(report, "L101"), 0);
}

// ---- L102: duplicate rules ----

TEST(LintTest, RenamedDuplicateRuleWarns) {
  LintReport report = LintProgram(
      P("t(X, Y) :- e(X, W), t(W, Y). t(A, B) :- e(A, C), t(C, B). "
        "t(X, Y) :- e(X, Y). ?- t(1, Y)."));
  EXPECT_EQ(Count(report, "L102"), 1);
  EXPECT_TRUE(report.ok());
}

TEST(LintTest, DistinctRulesAreNotDuplicates) {
  LintReport report = LintProgram(
      P("t(X, Y) :- e(X, W), t(W, Y). t(X, Y) :- t(X, W), e(W, Y). "
        "?- t(1, Y)."));
  EXPECT_EQ(Count(report, "L102"), 0);
}

// ---- L103: subsumed rules ----

TEST(LintTest, StricterRuleIsSubsumed) {
  // Rule 2 requires an extra e-step, so its answers are contained in
  // rule 1's (homomorphism maps rule 1's body into rule 2's).
  LintReport report = LintProgram(
      P("p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Y), e(Y, W). ?- p(1, Y)."));
  EXPECT_EQ(Count(report, "L103"), 1);
  EXPECT_TRUE(report.ok());
}

TEST(LintTest, IncomparableRulesAreNotSubsumed) {
  LintReport report = LintProgram(
      P("p(X, Y) :- e(X, Y). p(X, Y) :- f(X, Y). ?- p(1, Y)."));
  EXPECT_EQ(Count(report, "L103"), 0);
}

TEST(LintTest, UnsatisfiableBodyIsSubsumedWithoutSharedPredicates) {
  // Rule 2's body is unsatisfiable (1 = 2), so it is contained in rule 1
  // although e does not occur in it: the predicate pre-filter must not
  // reject pairs with an equal literal.
  LintReport report = LintProgram(
      P("p(X, Y) :- e(X, Y). p(X, Y) :- g(X, Y), equal(1, 2). ?- p(1, Y)."));
  EXPECT_EQ(Count(report, "L103"), 1);
}

TEST(LintTest, OversizedBodySkipsSubsumption) {
  // The second rule is subsumed by the first; the containment test runs on
  // bodies of up to 8 literals and skips longer ones.
  auto with_body = [](int literals) {
    std::string text = "p(X, Y) :- e(X, Y). p(X, Y) :- e(X, Y)";
    for (int i = 1; i < literals; ++i) {
      text += ", e(W" + std::to_string(i - 1) + ", W" + std::to_string(i) + ")";
    }
    return P(text + ". ?- p(1, Y).");
  };
  EXPECT_EQ(Count(LintProgram(with_body(8)), "L103"), 1);
  EXPECT_EQ(Count(LintProgram(with_body(9)), "L103"), 0);
}

// ---- L104: cartesian-product joins ----

TEST(LintTest, DisconnectedLiteralsWarn) {
  LintReport report =
      LintProgram(P("p(X, Y) :- e(X, X), f(Y, Y). ?- p(1, Y)."));
  EXPECT_EQ(Count(report, "L104"), 1);
  EXPECT_TRUE(report.ok());
}

TEST(LintTest, ConnectedJoinHasNoL104) {
  LintReport report =
      LintProgram(P("p(X, Y) :- e(X, W), f(W, Y). ?- p(1, Y)."));
  EXPECT_EQ(Count(report, "L104"), 0);
}

// ---- L105 / L106: reachability ----

TEST(LintTest, RuleUnreachableFromQueryWarns) {
  LintReport report = LintProgram(
      P("t(X, Y) :- e(X, Y). u(X) :- f(X). ?- t(1, Y)."));
  EXPECT_EQ(Count(report, "L105"), 1);
  EXPECT_TRUE(report.ok());
}

TEST(LintTest, ReachableRulesHaveNoL105) {
  LintReport report = LintProgram(
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y)."));
  EXPECT_EQ(Count(report, "L105"), 0);
}

TEST(LintTest, UndefinedQueryPredicateWarns) {
  LintReport report = LintProgram(P("t(X, Y) :- e(X, Y). ?- zzz(1, Y)."));
  EXPECT_EQ(Count(report, "L106"), 1);
  EXPECT_TRUE(report.ok());
}

TEST(LintTest, EdbQueryIsDefined) {
  LintReport report = LintProgram(P(".edb e/2. t(X, Y) :- e(X, Y). "
                                    "?- e(1, Y)."));
  EXPECT_EQ(Count(report, "L106"), 0);
}

// ---- SCC condensation and stratification primitives ----

TEST(LintTest, CondenseGroupsMutualRecursion) {
  ast::Program p = P(R"(
    even(Y) :- odd(X), succ(X, Y).
    odd(Y) :- even(X), succ(X, Y).
    top(X) :- even(X).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  SccCondensation c = g.Condense();
  ASSERT_TRUE(c.scc_of.count("even") == 1 && c.scc_of.count("odd") == 1);
  EXPECT_EQ(c.scc_of["even"], c.scc_of["odd"]);
  EXPECT_NE(c.scc_of["top"], c.scc_of["even"]);
  // Components come out dependencies-first: the even/odd SCC precedes top's.
  EXPECT_LT(c.scc_of["even"], c.scc_of["top"]);
}

TEST(LintTest, StratifyCountsNegationDepth) {
  ast::Program p = P(R"(
    a(X) :- b(X).
    b(X) :- c(X).
    c(X) :- base(X).
  )");
  DependencyGraph g = DependencyGraph::Build(p);
  StratificationResult s =
      g.Stratify({{"a", "b"}, {"b", "c"}});
  EXPECT_TRUE(s.stratified);
  EXPECT_EQ(s.stratum["a"], s.stratum["b"] + 1);
  EXPECT_EQ(s.stratum["b"], s.stratum["c"] + 1);
  EXPECT_EQ(s.num_strata, 3);
}

// ---- Pipeline and engine integration ----

TEST(LintTest, CompileQueryRejectsLintErrors) {
  ast::Program p = P("p(X, Y) :- e(X, X). ?- p(1, Y).");
  auto compiled = core::CompileQuery(p, *p.query());
  ASSERT_FALSE(compiled.ok());
  EXPECT_EQ(compiled.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(compiled.status().message().find("L001"), std::string::npos)
      << compiled.status().message();
}

TEST(LintTest, CompileQueryCarriesWarnings) {
  ast::Program p =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). "
        "u(X) :- f(X). ?- t(1, Y).");
  auto compiled = core::CompileQuery(p, *p.query());
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(static_cast<int>(std::count_if(
                compiled->diagnostics.begin(), compiled->diagnostics.end(),
                [](const Diagnostic& d) { return d.code == "L105"; })),
            1);
  ASSERT_FALSE(compiled->trace.empty());
  EXPECT_EQ(compiled->trace.front().pass, "lint");
}

TEST(LintTest, EngineLintSeesDatabaseSchema) {
  api::Engine engine;
  engine.AddPair("e", 1, 2);
  // The engine knows e/2 from its database; a conflicting use is an error.
  auto report = engine.Lint("q(X) :- e(X). ?- q(1).");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->ok());
  bool saw_l003 = false;
  for (const Diagnostic& d : report->diagnostics) {
    if (d.code == "L003") saw_l003 = true;
  }
  EXPECT_TRUE(saw_l003);
}

// ---- Committed corpora stay honest ----

TEST(LintTest, SweepCorpusIsLintClean) {
  for (const test::SweepProgram& sp : test::kSweepPrograms) {
    ast::Program program = P(sp.text);
    program.set_query(A(sp.query));
    LintReport report = LintProgram(program);
    EXPECT_TRUE(report.ok()) << sp.name << ": "
                             << RenderDiagnostics(report.diagnostics);
  }
}

TEST(LintTest, ExampleProgramsAreLintErrorFree) {
  std::vector<std::filesystem::path> files = DlFilesIn("examples/programs");
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    auto program = ast::ParseProgram(ReadFileOrDie(path));
    ASSERT_TRUE(program.ok()) << path << ": " << program.status().ToString();
    LintReport report = LintProgram(*program);
    EXPECT_EQ(report.errors(), 0u)
        << path << ":\n" << RenderDiagnostics(report.diagnostics);
  }
}

TEST(LintTest, BadProgramsAllFailLint) {
  std::vector<std::filesystem::path> files = DlFilesIn("tests/bad_programs");
  ASSERT_FALSE(files.empty());
  for (const auto& path : files) {
    auto program = ast::ParseProgram(ReadFileOrDie(path));
    ASSERT_TRUE(program.ok()) << path << ": " << program.status().ToString();
    LintReport report = LintProgram(*program);
    EXPECT_GT(report.errors(), 0u)
        << path << " is in bad_programs/ but lints clean";
  }
}

}  // namespace
}  // namespace factlog::analysis
