#include "core/optimizations.h"

#include <gtest/gtest.h>

#include <random>
#include <string>

#include "ast/special_predicates.h"
#include "ast/substitution.h"
#include "core/canonical.h"
#include "core/pipeline.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"

namespace factlog::core {
namespace {

using test::A;
using test::P;

// ---- Oracles: the §5 cleanup before its chases were memoized, pre-checked
// and planned in source order. The optimized code must reproduce them rule
// for rule. ----

// The frozen-body chase with a planned join order and no pre-check.
Result<bool> OracleIsUniformlyRedundant(const ast::Program& program,
                                        size_t rule_index,
                                        uint64_t max_facts) {
  const ast::Rule& rule = program.rules()[rule_index];
  if (rule.body().empty()) return false;
  for (const ast::Atom& b : rule.body()) {
    if (ast::IsBuiltinPredicate(b.predicate())) return false;
  }
  if (ast::IsBuiltinPredicate(rule.head().predicate())) return false;
  ast::Substitution freeze;
  int n = 0;
  for (const std::string& v : rule.DistinctVars()) {
    freeze.Bind(v, ast::Term::Sym("fzc" + std::to_string(n++)));
  }
  ast::Rule frozen = freeze.Apply(rule);
  ast::Program chase;
  for (size_t i = 0; i < program.rules().size(); ++i) {
    if (i != rule_index) chase.AddRule(program.rules()[i]);
  }
  for (const ast::Atom& fact : frozen.body()) {
    chase.AddRule(ast::Rule(fact, {}));
  }
  eval::EvalOptions eval_opts;
  eval_opts.max_facts = max_facts;
  eval::Database db;
  auto result = eval::Evaluate(chase, &db, eval_opts);
  if (!result.ok()) {
    if (result.status().code() == StatusCode::kResourceExhausted) return false;
    return result.status();
  }
  auto answers = eval::ExtractAnswers(frozen.head(), &result.value(), &db);
  if (!answers.ok()) return answers.status();
  return !answers->rows.empty();
}

// Restart the scan from the first rule after every deletion.
Result<bool> OracleDeleteUniformlyRedundantRules(ast::Program* program,
                                                 const OptimizeOptions& opts) {
  bool changed = false;
  bool deleted = true;
  while (deleted) {
    deleted = false;
    size_t n = program->rules().size();
    for (size_t step = 0; step < n; ++step) {
      size_t i = (opts.ue_order == UeOrder::kForward) ? step : (n - 1 - step);
      auto redundant = OracleIsUniformlyRedundant(*program, i, opts.ue_max_facts);
      if (!redundant.ok()) return redundant.status();
      if (*redundant) {
        program->mutable_rules()->erase(program->mutable_rules()->begin() + i);
        changed = deleted = true;
        break;
      }
    }
  }
  return changed;
}

// Whole rounds of every cleanup until a round changes nothing.
Result<ast::Program> OracleOptimizeProgram(const ast::Program& program,
                                           const OptimizationContext& ctx,
                                           const OptimizeOptions& opts) {
  ast::Program out = program;
  for (int round = 0; round < 100; ++round) {
    bool changed = DeleteHeadInBodyRules(&out);
    changed |= DeleteSubsumedMagicLiterals(&out, ctx);
    changed |= AnonymizeSingletonVariables(&out);
    changed |= DeleteAnonymousFactorLiterals(&out, ctx);
    changed |= DeleteSeedFactorLiterals(&out, ctx);
    changed |= DeleteDuplicateRules(&out);
    if (!ctx.query_pred.empty()) {
      changed |= DeleteUnreachableRules(&out, ctx.query_pred);
    }
    auto ue = OracleDeleteUniformlyRedundantRules(&out, opts);
    if (!ue.ok()) return ue.status();
    changed |= *ue;
    if (!changed) break;
  }
  return out;
}

// The rules in order, one per line: "identical" below means this text.
std::string RulesText(const ast::Program& program) {
  std::string out;
  for (const ast::Rule& r : program.rules()) out += r.ToString() + "\n";
  return out;
}

OptimizeOptions WithOrder(UeOrder order) {
  OptimizeOptions opts;
  opts.ue_order = order;
  return opts;
}

OptimizationContext TcContext() {
  OptimizationContext ctx;
  ctx.bp = "bt";
  ctx.fp = "ft";
  ctx.magic_pred = "m";
  ctx.seed_args = {ast::Term::Int(5)};
  ctx.query_pred = "query";
  return ctx;
}

TEST(OptimizationPassTest, DeleteHeadInBodyRules) {
  ast::Program p = P(R"(
    bt(X) :- m(X), bt(X), ft(W).
    bt(X) :- m(X), e(X, Y).
  )");
  EXPECT_TRUE(DeleteHeadInBodyRules(&p));
  ASSERT_EQ(p.rules().size(), 1u);
  EXPECT_EQ(p.rules()[0].ToString(), "bt(X) :- m(X), e(X, Y).");
  EXPECT_FALSE(DeleteHeadInBodyRules(&p));
}

TEST(OptimizationPassTest, Prop51DeletesSubsumedMagicLiteral) {
  ast::Program p = P("ft(Y) :- m(X), bt(X), e(X, Y).");
  EXPECT_TRUE(DeleteSubsumedMagicLiterals(&p, TcContext()));
  EXPECT_EQ(p.rules()[0].ToString(), "ft(Y) :- bt(X), e(X, Y).");
}

TEST(OptimizationPassTest, Prop51RequiresIdenticalArguments) {
  ast::Program p = P("ft(Y) :- m(X), bt(W), e(X, Y), e(W, Y).");
  EXPECT_FALSE(DeleteSubsumedMagicLiterals(&p, TcContext()));
}

TEST(OptimizationPassTest, Prop52DeletesAnonymousBp) {
  // bt's argument occurs nowhere else and an ft literal is present.
  ast::Program p = P("ft(Y) :- bt(W), ft(U), e(U, Y).");
  EXPECT_TRUE(DeleteAnonymousFactorLiterals(&p, TcContext()));
  EXPECT_EQ(p.rules()[0].ToString(), "ft(Y) :- ft(U), e(U, Y).");
}

TEST(OptimizationPassTest, Prop52Symmetric) {
  // An all-singleton ft literal deletes when a bt literal is present.
  ast::Program p = P("m(W) :- bt(X), ft(Q), e(X, W).");
  EXPECT_TRUE(DeleteAnonymousFactorLiterals(&p, TcContext()));
  EXPECT_EQ(p.rules()[0].ToString(), "m(W) :- bt(X), e(X, W).");
}

TEST(OptimizationPassTest, Prop52KeepsBoundLiterals) {
  // bt(X)'s variable is used by e(X, Y): not anonymous, stays.
  ast::Program p = P("ft(Y) :- bt(X), ft(W), e(X, Y), d(W).");
  EXPECT_FALSE(DeleteAnonymousFactorLiterals(&p, TcContext()));
}

TEST(OptimizationPassTest, Prop53DeletesSeedBp) {
  ast::Program p = P("query(Y) :- bt(5), ft(Y).");
  EXPECT_TRUE(DeleteSeedFactorLiterals(&p, TcContext()));
  EXPECT_EQ(p.rules()[0].ToString(), "query(Y) :- ft(Y).");
}

TEST(OptimizationPassTest, Prop53RequiresSeedConstants) {
  ast::Program p = P("query(Y) :- bt(6), ft(Y).");
  EXPECT_FALSE(DeleteSeedFactorLiterals(&p, TcContext()));
}

TEST(OptimizationPassTest, UnreachableRulesDeleted) {
  ast::Program p = P(R"(
    query(Y) :- ft(Y).
    ft(Y) :- m(X), e(X, Y).
    bt(X) :- m(X), e(X, Y).
    m(5).
  )");
  EXPECT_TRUE(DeleteUnreachableRules(&p, "query"));
  for (const ast::Rule& r : p.rules()) {
    EXPECT_NE(r.head().predicate(), "bt");
  }
  ASSERT_EQ(p.rules().size(), 3u);
}

TEST(OptimizationPassTest, AnonymizeSingletons) {
  ast::Program p = P("ft(Y) :- bt(X), e(W, Y).");
  EXPECT_TRUE(AnonymizeSingletonVariables(&p));
  const ast::Rule& r = p.rules()[0];
  // X and W occur once: renamed to _-prefixed names; Y untouched.
  EXPECT_TRUE(r.body()[0].args()[0].var_name().rfind("_", 0) == 0);
  EXPECT_TRUE(r.body()[1].args()[0].var_name().rfind("_", 0) == 0);
  EXPECT_EQ(r.head().args()[0].var_name(), "Y");
}

TEST(OptimizationPassTest, DuplicateRulesDeleted) {
  ast::Program p = P(R"(
    ft(Y) :- m(X), e(X, Y).
    ft(B) :- m(A), e(A, B).
  )");
  EXPECT_TRUE(DeleteDuplicateRules(&p));
  EXPECT_EQ(p.rules().size(), 1u);
}

TEST(OptimizationPassTest, UniformEquivalenceDeletion) {
  // Example 5.3's final step: both derived rules are redundant given
  // m(W) :- ft(W) and ft(Y) :- m(X), e(X, Y).
  ast::Program p = P(R"(
    m(W) :- ft(W).
    m(W) :- m(X), e(X, W).
    m(5).
    ft(Y) :- ft(W), e(W, Y).
    ft(Y) :- m(X), e(X, Y).
    query(Y) :- ft(Y).
  )");
  OptimizeOptions opts;
  auto changed = DeleteUniformlyRedundantRules(&p, opts);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  ast::Program expected = P(R"(
    m(W) :- ft(W).
    m(5).
    ft(Y) :- m(X), e(X, Y).
    query(Y) :- ft(Y).
  )");
  EXPECT_TRUE(StructurallyEqual(p, expected)) << p.ToString();
}

TEST(OptimizationPassTest, UniformEquivalenceKeepsNeededRules) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, W), t(W, Y).
  )");
  OptimizeOptions opts;
  auto changed = DeleteUniformlyRedundantRules(&p, opts);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
  EXPECT_EQ(p.rules().size(), 2u);
}

TEST(OptimizationPassTest, UniformEquivalenceSkipsBuiltins) {
  ast::Program p = P(R"(
    t(Z) :- e(X), affine(X, 1, 1, Z).
    t(Z) :- e(X), affine(X, 1, 1, Z).
  )");
  OptimizeOptions opts;
  auto changed = DeleteUniformlyRedundantRules(&p, opts);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);  // conservative: builtins are not frozen
}

TEST(OptimizationPassTest, UeOrderCanMatter) {
  // Two mutually derivable rules: forward deletes the first, backward the
  // second — §7.4's order-dependence question.
  ast::Program forward = P(R"(
    a(X) :- b(X).
    a(X) :- c(X).
    b(X) :- c(X).
    c(X) :- b(X).
  )");
  ast::Program backward = forward;
  OptimizeOptions opts;
  opts.ue_order = UeOrder::kForward;
  ASSERT_TRUE(DeleteUniformlyRedundantRules(&forward, opts).ok());
  opts.ue_order = UeOrder::kBackward;
  ASSERT_TRUE(DeleteUniformlyRedundantRules(&backward, opts).ok());
  // Both shrink to three rules but not necessarily the same three.
  EXPECT_EQ(forward.rules().size(), 3u);
  EXPECT_EQ(backward.rules().size(), 3u);
  EXPECT_FALSE(StructurallyEqual(forward, backward));
}

TEST(StaticArgumentsTest, FindStatic) {
  // Example 5.1: position 0 is static; position 1 is not (U breaks it).
  ast::Program p = P(R"(
    p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).
    p(X, Y, Z) :- exit0(X, Y, Z).
  )");
  EXPECT_EQ(FindStaticArguments(p, "p", A("p(5, 6, U)")),
            (std::vector<int>{0}));
  // Free positions never qualify.
  EXPECT_EQ(FindStaticArguments(p, "p", A("p(X, 6, U)")),
            (std::vector<int>{}));
}

TEST(StaticArgumentsTest, FindViolating) {
  // Example 5.2: both bound positions are static, but only position 0's
  // variable mixes into the d atom.
  ast::Program p = P(R"(
    p(X, Y, Z) :- p(X, Y, W), d(W, X, Z).
    p(X, Y, Z) :- exit0(X, Y, Z).
  )");
  std::vector<int> statics = FindStaticArguments(p, "p", A("p(5, 6, U)"));
  EXPECT_EQ(statics, (std::vector<int>{0, 1}));
  EXPECT_EQ(FindViolatingStaticArguments(p, "p", A("p(5, 6, U)"), statics),
            (std::vector<int>{0}));
}

TEST(StaticArgumentsTest, ReduceSubstitutesAndDrops) {
  // Example 5.1's reduction.
  ast::Program p = P(R"(
    p(X, Y, Z) :- a(X), p(X, Y, W), d(W, U), p(X, U, Z).
    p(X, Y, Z) :- exit0(X, Y, Z).
  )");
  auto reduced = ReduceStaticArguments(p, "p", A("p(5, 6, U)"), {0});
  ASSERT_TRUE(reduced.ok()) << reduced.status().ToString();
  EXPECT_EQ(reduced->program.rules()[0].ToString(),
            reduced->predicate + "(Y, Z) :- a(5), " + reduced->predicate +
                "(Y, W), d(W, U), " + reduced->predicate + "(U, Z).");
  EXPECT_EQ(reduced->program.rules()[1].ToString(),
            reduced->predicate + "(Y, Z) :- exit0(5, Y, Z).");
  EXPECT_EQ(reduced->query.ToString(), reduced->predicate + "(6, U)");
}

TEST(StaticArgumentsTest, ReduceRejectsConstantHeads) {
  ast::Program p = P("p(5, Y) :- e(Y).");
  auto reduced = ReduceStaticArguments(p, "p", A("p(5, U)"), {0});
  ASSERT_FALSE(reduced.ok());
  EXPECT_EQ(reduced.status().code(), StatusCode::kFailedPrecondition);
}

TEST(OptimizeProgramTest, Example53FullSequence) {
  // The complete Fig. 2 -> final-program sequence of Example 5.3.
  ast::Program fig2 = P(R"(
    m(5).
    m(W) :- m(X), bt(X), ft(W).
    bt(X) :- m(X), bt(X), ft(W), bt(W), ft(Y).
    ft(Y) :- m(X), bt(X), ft(W), bt(W), ft(Y).
    m(W) :- m(X), e(X, W).
    bt(X) :- m(X), e(X, W), bt(W), ft(Y).
    ft(Y) :- m(X), e(X, W), bt(W), ft(Y).
    bt(X) :- m(X), bt(X), ft(W), e(W, Y).
    ft(Y) :- m(X), bt(X), ft(W), e(W, Y).
    bt(X) :- m(X), e(X, Y).
    ft(Y) :- m(X), e(X, Y).
    query(Y) :- bt(5), ft(Y).
  )");
  auto optimized = OptimizeProgram(fig2, TcContext());
  ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
  ast::Program expected = P(R"(
    m(W) :- ft(W).
    m(5).
    ft(Y) :- m(X), e(X, Y).
    query(Y) :- ft(Y).
  )");
  EXPECT_TRUE(StructurallyEqual(*optimized, expected))
      << optimized->ToString();
}


// ---- Exactness of the memoized, pre-checked, source-order scan ----

const char kSelectionPushing[] =
    "p(X, Y) :- l(X), p(X, U), c1(U, V), p(V, Y), r1(Y). "
    "p(X, Y) :- l(X), p(X, U), c2(U, V), p(V, Y), r2(Y). "
    "p(X, Y) :- l(X), f(X, V), p(V, Y), r3(Y). "
    "p(X, Y) :- e(X, Y), r1(Y), r2(Y), r3(Y).";

// Compiles `text` for `query` under `strategy` with each UeOrder and checks
// the emitted program against the oracle run on the factored program. Sets
// `*factored` when factoring applies (otherwise there is nothing to compare).
void ExpectCompileMatchesOracle(const std::string& text,
                                const std::string& query, Strategy strategy,
                                bool* factored) {
  ast::Program program = P(text);
  ast::Atom q = A(query);
  auto pipe = OptimizeQuery(program, q);
  *factored = false;
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  if (!pipe->factoring_applied) return;
  *factored = true;
  OptimizationContext ctx;
  ctx.bp = pipe->factored->split.name1;
  ctx.fp = pipe->factored->split.name2;
  ctx.magic_pred = pipe->magic.magic_names.at(pipe->factored->split.predicate);
  ctx.seed_args = pipe->magic.seed.args();
  ctx.query_pred = pipe->factored->query.predicate();
  for (UeOrder order : {UeOrder::kForward, UeOrder::kBackward}) {
    SCOPED_TRACE(text + " ?- " + query +
                 (order == UeOrder::kForward ? " forward" : " backward"));
    auto oracle =
        OracleOptimizeProgram(pipe->factored->program, ctx, WithOrder(order));
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
    auto optimized =
        OptimizeProgram(pipe->factored->program, ctx, WithOrder(order));
    ASSERT_TRUE(optimized.ok()) << optimized.status().ToString();
    EXPECT_EQ(RulesText(*optimized), RulesText(*oracle));
    PipelineOptions opts;
    opts.optimize.ue_order = order;
    auto compiled = CompileQuery(program, q, strategy, opts);
    ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
    EXPECT_EQ(RulesText(compiled->program), RulesText(*oracle));
  }
}

TEST(UniformEquivalenceExactnessTest, SweepProgramsMatchRestartScan) {
  int factored = 0;
  for (Strategy strategy : {Strategy::kFactoring, Strategy::kAuto}) {
    for (const test::SweepProgram& sp : test::kSweepPrograms) {
      bool applied = false;
      ExpectCompileMatchesOracle(sp.text, sp.query, strategy, &applied);
      factored += applied;
    }
  }
  EXPECT_GT(factored, 0);
}

TEST(UniformEquivalenceExactnessTest, SelectionPushingMatchesRestartScan) {
  for (Strategy strategy : {Strategy::kFactoring, Strategy::kAuto}) {
    bool applied = false;
    ExpectCompileMatchesOracle(kSelectionPushing, "p(5, Y)", strategy,
                               &applied);
    EXPECT_TRUE(applied);
  }
}

TEST(UniformEquivalenceExactnessTest, Example53MatchesRestartScan) {
  ast::Program fig2 = P(R"(
    m(5).
    m(W) :- m(X), bt(X), ft(W).
    bt(X) :- m(X), bt(X), ft(W), bt(W), ft(Y).
    ft(Y) :- m(X), bt(X), ft(W), bt(W), ft(Y).
    m(W) :- m(X), e(X, W).
    bt(X) :- m(X), e(X, W), bt(W), ft(Y).
    ft(Y) :- m(X), e(X, W), bt(W), ft(Y).
    bt(X) :- m(X), bt(X), ft(W), e(W, Y).
    ft(Y) :- m(X), bt(X), ft(W), e(W, Y).
    bt(X) :- m(X), e(X, Y).
    ft(Y) :- m(X), e(X, Y).
    query(Y) :- bt(5), ft(Y).
  )");
  for (UeOrder order : {UeOrder::kForward, UeOrder::kBackward}) {
    auto oracle = OracleOptimizeProgram(fig2, TcContext(), WithOrder(order));
    ASSERT_TRUE(oracle.ok());
    auto optimized = OptimizeProgram(fig2, TcContext(), WithOrder(order));
    ASSERT_TRUE(optimized.ok());
    EXPECT_EQ(RulesText(*optimized), RulesText(*oracle));
  }
}

// Random small programs, with and without tight chase budgets: the scan
// deletes exactly the rules the restart scan deletes, in both orders.
TEST(UniformEquivalenceExactnessTest, RandomProgramsMatchRestartScan) {
  std::mt19937 rng(20261017);
  const char* unary[] = {"a", "b", "c", "d"};
  const char* vars[] = {"X", "Y", "Z"};
  auto pick = [&rng](int n) {
    return std::uniform_int_distribution<int>(0, n - 1)(rng);
  };
  for (int trial = 0; trial < 150; ++trial) {
    std::string text = "n(1). n(2). n(3).\n";
    const int num_rules = 3 + pick(5);
    for (int r = 0; r < num_rules; ++r) {
      std::vector<std::string> body;
      std::vector<std::string> body_vars;
      const int len = 1 + pick(3);
      for (int b = 0; b < len; ++b) {
        if (pick(3) == 0) {
          std::string x = vars[pick(3)], y = vars[pick(3)];
          body.push_back("e(" + x + ", " + y + ")");
          body_vars.push_back(x);
          body_vars.push_back(y);
        } else {
          std::string x = vars[pick(3)];
          body.push_back(std::string(pick(4) == 0 ? "n" : unary[pick(4)]) +
                         "(" + x + ")");
          body_vars.push_back(x);
        }
      }
      std::string head;
      if (pick(4) == 0) {
        head = "e(" + body_vars[pick(body_vars.size())] + ", " +
               body_vars[pick(body_vars.size())] + ")";
      } else {
        head = std::string(unary[pick(4)]) + "(" +
               body_vars[pick(body_vars.size())] + ")";
      }
      text += head + " :- ";
      for (size_t b = 0; b < body.size(); ++b) {
        text += (b > 0 ? ", " : "") + body[b];
      }
      text += ".\n";
    }
    ast::Program program = P(text);
    for (uint64_t budget : {uint64_t{10'000'000}, uint64_t{6}, uint64_t{9}}) {
      for (UeOrder order : {UeOrder::kForward, UeOrder::kBackward}) {
        SCOPED_TRACE(text + "budget " + std::to_string(budget));
        OptimizeOptions opts = WithOrder(order);
        opts.ue_max_facts = budget;
        ast::Program expected = program;
        ast::Program actual = program;
        auto oracle = OracleDeleteUniformlyRedundantRules(&expected, opts);
        ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
        auto changed = DeleteUniformlyRedundantRules(&actual, opts);
        ASSERT_TRUE(changed.ok()) << changed.status().ToString();
        EXPECT_EQ(*changed, *oracle);
        EXPECT_EQ(RulesText(actual), RulesText(expected));
      }
    }
  }
}

TEST(UniformEquivalencePreCheckTest, UnreachableHeadKeepsRuleWithoutChase) {
  // No other rule derives a or c, so neither rule can be proven redundant.
  ast::Program p = P(R"(
    a(X) :- b(X).
    c(X) :- d(X), a(X).
  )");
  UeCounters counters;
  auto changed =
      DeleteUniformlyRedundantRules(&p, OptimizeOptions(), &counters);
  ASSERT_TRUE(changed.ok());
  EXPECT_FALSE(*changed);
  EXPECT_EQ(p.rules().size(), 2u);
  EXPECT_EQ(counters.chases, 0);
  EXPECT_EQ(counters.skipped, 2);
}

TEST(UniformEquivalencePreCheckTest, FactRuleMakesHeadReachable) {
  // a(X) :- b(X) is redundant only because the fact k(1) fires the second
  // rule; the pre-check must count facts as available and chase.
  ast::Program p = P(R"(
    a(X) :- b(X).
    a(X) :- b(X), k(Z).
    k(1).
  )");
  UeCounters counters;
  auto changed =
      DeleteUniformlyRedundantRules(&p, OptimizeOptions(), &counters);
  ASSERT_TRUE(changed.ok());
  EXPECT_TRUE(*changed);
  EXPECT_EQ(RulesText(p), "a(X) :- b(X), k(Z).\nk(1).\n");
  // The first rule's chase proves it; the second has no other rule for a.
  EXPECT_EQ(counters.chases, 1);
  EXPECT_EQ(counters.skipped, 1);
}

TEST(UniformEquivalencePreCheckTest, BuiltinBodiedRuleMakesHeadReachable) {
  // k's only rule has a builtin-only body: the pre-check must count builtin
  // literals as satisfied, or it would wrongly keep the first rule.
  ast::Program p = P(R"(
    a(X) :- b(X).
    a(X) :- b(X), k(Z).
    k(Z) :- equal(Z, 1).
  )");
  ast::Program expected = p;
  ASSERT_TRUE(OracleDeleteUniformlyRedundantRules(&expected, OptimizeOptions())
                  .ok());
  UeCounters counters;
  auto changed =
      DeleteUniformlyRedundantRules(&p, OptimizeOptions(), &counters);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  EXPECT_EQ(RulesText(p), RulesText(expected));
  EXPECT_EQ(p.rules().size(), 2u);
  EXPECT_EQ(counters.chases, 1);
}

TEST(UniformEquivalenceBudgetTest, BudgetCutChaseIsRetestedAfterDeletion) {
  // a(X) :- b(X) is derivable through c, but its chase also derives the
  // five d(fzc0, _) facts and passes the budget of 9. g(X) :- h(X) is then
  // deleted (k and the second g rule derive it), so the restart scan chases
  // the first rule again before moving on; the scan must do the same. The
  // retest cannot succeed: when a deletion is sound and the retested rule
  // provable afterwards, the two chases derive the same facts, so a budget
  // cut stays cut. The test pins that the result and the chase count match
  // the restart scan all the same.
  ast::Program p = P(R"(
    a(X) :- b(X).
    a(X) :- c(X).
    c(X) :- b(X).
    d(X, Y) :- b(X), n(Y).
    n(1). n(2). n(3). n(4). n(5).
    g(X) :- h(X).
    g(X) :- k(X).
    k(X) :- h(X).
  )");
  OptimizeOptions opts;
  opts.ue_max_facts = 9;
  ast::Program expected = p;
  auto oracle = OracleDeleteUniformlyRedundantRules(&expected, opts);
  ASSERT_TRUE(oracle.ok());
  UeCounters counters;
  auto changed = DeleteUniformlyRedundantRules(&p, opts, &counters);
  ASSERT_TRUE(changed.ok()) << changed.status().ToString();
  EXPECT_TRUE(*changed);
  EXPECT_EQ(RulesText(p), RulesText(expected));
  EXPECT_EQ(p.rules().size(), 11u);
  EXPECT_EQ(p.rules()[0].ToString(), "a(X) :- b(X).");
  // Chased: a :- b (cut), g :- h (deleted), then a :- b again (cut). The
  // pre-check settles a :- c, c :- b, d, the second g rule and k.
  EXPECT_EQ(counters.chases, 3);
  EXPECT_EQ(counters.skipped, 5);
}

}  // namespace
}  // namespace factlog::core
