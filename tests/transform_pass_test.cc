#include "core/transform_pass.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "core/canonical.h"
#include "core/pipeline.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"
#include "transform/magic.h"

namespace factlog::core {
namespace {

using test::A;
using test::P;

const char kRightTc[] = R"(
  t(X, Y) :- e(X, Y).
  t(X, Y) :- e(X, W), t(W, Y).
  ?- t(1, Y).
)";

const char kSameGeneration[] = R"(
  sg(X, Y) :- flat(X, Y).
  sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
  ?- sg(1, Y).
)";

TEST(StrategyTest, NamesRoundTrip) {
  for (Strategy s : {Strategy::kAuto, Strategy::kMagic,
                     Strategy::kSupplementaryMagic, Strategy::kFactoring,
                     Strategy::kCounting, Strategy::kLinearRewrite}) {
    auto parsed = StrategyFromString(StrategyToString(s));
    ASSERT_TRUE(parsed.has_value()) << StrategyToString(s);
    EXPECT_EQ(*parsed, s);
  }
  // Underscores are accepted for dashes.
  EXPECT_EQ(StrategyFromString("supplementary_magic"),
            Strategy::kSupplementaryMagic);
  EXPECT_FALSE(StrategyFromString("bogus").has_value());
}

TEST(StrategyTest, AllConcreteStrategiesExcludesAuto) {
  std::vector<Strategy> all = AllConcreteStrategies();
  EXPECT_EQ(all.size(), 5u);
  for (Strategy s : all) EXPECT_NE(s, Strategy::kAuto);
}

TEST(RunPassesTest, PreconditionViolationFailsWithPassName) {
  // Magic Sets requires an adorned program; running it first must fail.
  TransformState state;
  ast::Program p = P(kRightTc);
  state.source = p;
  state.source_query = *p.query();
  PassSequence seq;
  seq.push_back(MakeMagicPass());
  auto result = RunPasses(seq, state);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(result.status().message().find("magic-sets"), std::string::npos);
}

TEST(RunPassesTest, EveryPassGetsATraceEntry) {
  TransformState state;
  ast::Program p = P(kRightTc);
  state.source = p;
  state.source_query = *p.query();
  auto result = RunPasses(PassesForStrategy(Strategy::kFactoring), state);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(*result);  // ran to completion
  ASSERT_EQ(state.trace.size(), 7u);
  EXPECT_EQ(state.trace[0].pass, "adorn");
  EXPECT_EQ(state.trace[1].pass, "classify");
  EXPECT_EQ(state.trace[2].pass, "normalize");
  EXPECT_EQ(state.trace[3].pass, "magic-sets");
  EXPECT_EQ(state.trace[4].pass, "factorability");
  EXPECT_EQ(state.trace[5].pass, "factoring");
  EXPECT_EQ(state.trace[6].pass, "section-5-cleanups");
  // The stable program was not normalized.
  EXPECT_FALSE(state.trace[2].applied);
  // Rule counts track the rewrites: magic doubles, the cleanups shrink.
  EXPECT_GT(state.trace[3].rules_after, state.trace[3].rules_before);
  EXPECT_LT(state.trace[6].rules_after, state.trace[6].rules_before);
}

TEST(RunPassesTest, HaltStopsSequenceGracefully) {
  TransformState state;
  ast::Program p = P(kSameGeneration);
  state.source = p;
  state.source_query = *p.query();
  auto result = RunPasses(PassesForStrategy(Strategy::kFactoring), state);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(*result);  // halted
  EXPECT_TRUE(state.trace.back().halted);
  EXPECT_EQ(state.trace.back().pass, "factorability");
  // The Magic program was still produced: the graceful fallback.
  EXPECT_TRUE(state.magic.has_value());
  EXPECT_FALSE(state.factoring_applied);
}

TEST(RunPassesTest, HaltIsErrorWhenStrict) {
  TransformState state;
  ast::Program p = P(kSameGeneration);
  state.source = p;
  state.source_query = *p.query();
  RunPassesOptions opts;
  opts.halt_is_error = true;
  auto result = RunPasses(PassesForStrategy(Strategy::kFactoring), state, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CompileQueryTest, FactoringMatchesOptimizeQuery) {
  ast::Program p = P(kRightTc);
  auto compiled = CompileQuery(p, *p.query(), Strategy::kFactoring);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  auto pipeline = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE(compiled->factoring_applied);
  EXPECT_EQ(compiled->program.rules(), pipeline->final_program().rules());
  EXPECT_EQ(compiled->query, pipeline->final_query());
  EXPECT_EQ(compiled->factor_class, pipeline->factorability.cls);
}

TEST(CompileQueryTest, MagicMatchesDirectTransform) {
  // The thin strategy wrapper produces exactly what the standalone
  // transform entry point produces.
  ast::Program p = P(kRightTc);
  auto compiled = CompileQuery(p, *p.query(), Strategy::kMagic);
  ASSERT_TRUE(compiled.ok());
  auto adorned = analysis::Adorn(p, *p.query());
  ASSERT_TRUE(adorned.ok());
  auto magic = transform::MagicSets(*adorned);
  ASSERT_TRUE(magic.ok());
  EXPECT_EQ(compiled->program.rules(), magic->program.rules());
  EXPECT_EQ(compiled->query, magic->query);
  EXPECT_EQ(compiled->strategy, Strategy::kMagic);
}

TEST(CompileQueryTest, AutoPicksFactoringOnTransitiveClosure) {
  ast::Program p = P(kRightTc);
  auto compiled = CompileQuery(p, *p.query(), Strategy::kAuto);
  ASSERT_TRUE(compiled.ok());
  EXPECT_EQ(compiled->strategy, Strategy::kFactoring);
  EXPECT_TRUE(compiled->factoring_applied);
  EXPECT_EQ(compiled->factor_class, FactorClass::kSelectionPushing);
}

TEST(CompileQueryTest, AutoFallsBackToSupplementaryMagicOnSg) {
  ast::Program p = P(kSameGeneration);
  auto compiled = CompileQuery(p, *p.query(), Strategy::kAuto);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();
  EXPECT_EQ(compiled->strategy, Strategy::kSupplementaryMagic);
  EXPECT_FALSE(compiled->factoring_applied);
  // The trace records both the rejected factoring attempt and the fallback.
  std::string trace = TraceToString(compiled->trace);
  EXPECT_NE(trace.find("factorability"), std::string::npos);
  EXPECT_NE(trace.find("supplementary-magic"), std::string::npos);
}

TEST(CompileQueryTest, StrictStrategiesFailWhenInapplicable) {
  ast::Program p = P(kSameGeneration);
  for (Strategy s : {Strategy::kCounting, Strategy::kLinearRewrite}) {
    auto compiled = CompileQuery(p, *p.query(), s);
    ASSERT_FALSE(compiled.ok()) << StrategyToString(s);
    EXPECT_EQ(compiled.status().code(), StatusCode::kFailedPrecondition);
  }
  // kFactoring keeps the paper's graceful Magic fallback instead.
  auto factoring = CompileQuery(p, *p.query(), Strategy::kFactoring);
  ASSERT_TRUE(factoring.ok());
  EXPECT_FALSE(factoring->factoring_applied);
  EXPECT_GT(factoring->program.rules().size(), 0u);
}

TEST(CompileQueryTest, CompiledProgramCarriesQuery) {
  ast::Program p = P(kRightTc);
  for (Strategy s : AllConcreteStrategies()) {
    auto compiled = CompileQuery(p, *p.query(), s);
    ASSERT_TRUE(compiled.ok()) << StrategyToString(s);
    ASSERT_TRUE(compiled->program.query().has_value());
    EXPECT_EQ(*compiled->program.query(), compiled->query);
  }
}

// The §5 children in MakeSectionFiveFixpointPass's order.
PassSequence SectionFiveChildren(const OptimizeOptions& opts) {
  PassSequence children;
  children.push_back(MakeHeadInBodyPass());
  children.push_back(MakeSubsumedMagicPass());
  children.push_back(MakeAnonymizePass());
  children.push_back(MakeAnonymousFactorPass());
  children.push_back(MakeSeedFactorPass());
  children.push_back(MakeDuplicateRulePass());
  children.push_back(MakeUnreachablePass());
  children.push_back(MakeUniformEquivalencePass(opts));
  return children;
}

TEST(FixpointPassTest, CustomSequenceRunsChildrenToFixpoint) {
  // A §5 fixpoint built by hand from individual passes behaves like the
  // packaged section-5 pass.
  ast::Program p = P(kRightTc);
  TransformState state;
  state.source = p;
  state.source_query = *p.query();
  PassSequence front;
  front.push_back(MakeAdornPass());
  front.push_back(MakeClassifyPass());
  front.push_back(MakeMagicPass());
  front.push_back(MakeFactorabilityGatePass());
  front.push_back(MakeFactoringPass());
  ASSERT_TRUE(RunPasses(front, state).ok());

  PassSequence fix;
  fix.push_back(MakeFixpointPass(SectionFiveChildren(OptimizeOptions())));
  ASSERT_TRUE(RunPasses(fix, state).ok());
  ASSERT_TRUE(state.optimized.has_value());

  auto pipeline = OptimizeQuery(p, *p.query());
  ASSERT_TRUE(pipeline.ok());
  EXPECT_TRUE(StructurallyEqual(*state.optimized, *pipeline->optimized))
      << state.optimized->ToString();
}

TEST(TraceTest, ToStringMentionsPassAndRuleCounts) {
  PassTraceEntry entry;
  entry.pass = "magic-sets";
  entry.applied = true;
  entry.rules_before = 2;
  entry.rules_after = 4;
  entry.duration_us = 12;
  entry.notes.push_back("magic program has 4 rules");
  std::string s = entry.ToString();
  EXPECT_NE(s.find("magic-sets"), std::string::npos);
  EXPECT_NE(s.find("2 -> 4 rules"), std::string::npos);
  EXPECT_NE(s.find("magic program has 4 rules"), std::string::npos);
}


// A child that changes the state on its first `changes` applications only
// (idempotent from then on), counting every application.
class CountingChild : public Transform {
 public:
  CountingChild(const char* name, int changes, int* applied)
      : name_(name), changes_(changes), applied_(applied) {}
  const char* name() const override { return name_; }
  Result<PassOutcome> Apply(TransformState&) override {
    ++*applied_;
    return *applied_ <= changes_ ? PassOutcome::kApplied
                                 : PassOutcome::kSkipped;
  }

 private:
  const char* name_;
  int changes_;
  int* applied_;
};

TEST(FixpointPassTest, StopsBeforeRerunningTheLastChildThatChanged) {
  // b changes the state once; a and c never do. A whole-round loop would run
  // a second round to confirm; the fixpoint stops on reaching b again.
  int a = 0, b = 0, c = 0;
  PassSequence children;
  children.push_back(std::make_unique<CountingChild>("a", 0, &a));
  children.push_back(std::make_unique<CountingChild>("b", 1, &b));
  children.push_back(std::make_unique<CountingChild>("c", 0, &c));
  TransformState state;
  auto outcome = MakeFixpointPass(std::move(children))->Apply(state);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PassOutcome::kApplied);
  EXPECT_EQ(b, 1);  // never re-run after its change
  EXPECT_EQ(a, 2);
  EXPECT_EQ(c, 1);
}

TEST(FixpointPassTest, UnchangedRoundRunsEachChildOnce) {
  int a = 0, b = 0;
  PassSequence children;
  children.push_back(std::make_unique<CountingChild>("a", 0, &a));
  children.push_back(std::make_unique<CountingChild>("b", 0, &b));
  TransformState state;
  auto outcome = MakeFixpointPass(std::move(children))->Apply(state);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(*outcome, PassOutcome::kSkipped);
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
}

// Oracle: whole rounds of every child until a round changes nothing.
Status RunWholeRounds(const PassSequence& children, TransformState& state) {
  for (int round = 0; round < 100; ++round) {
    bool changed = false;
    for (const std::unique_ptr<Transform>& child : children) {
      FACTLOG_ASSIGN_OR_RETURN(PassOutcome outcome, child->Apply(state));
      changed |= outcome == PassOutcome::kApplied;
    }
    if (!changed) break;
  }
  return Status::OK();
}

// The state after factoring, ready for the §5 cleanups; nullopt when the
// program does not factor.
std::optional<TransformState> FactoredState(const std::string& text,
                                            const std::string& query) {
  ast::Program p = P(text);
  TransformState state;
  state.source = p;
  state.source_query = A(query);
  PassSequence front;
  front.push_back(MakeAdornPass());
  front.push_back(MakeClassifyPass());
  front.push_back(MakeNormalizePass());
  front.push_back(MakeMagicPass());
  front.push_back(MakeFactorabilityGatePass());
  front.push_back(MakeFactoringPass());
  auto completed = RunPasses(front, state);
  EXPECT_TRUE(completed.ok()) << completed.status().ToString();
  if (!completed.ok() || !*completed) return std::nullopt;
  return state;
}

const char kSelectionPushing[] =
    "p(X, Y) :- l(X), p(X, U), c1(U, V), p(V, Y), r1(Y). "
    "p(X, Y) :- l(X), p(X, U), c2(U, V), p(V, Y), r2(Y). "
    "p(X, Y) :- l(X), f(X, V), p(V, Y), r3(Y). "
    "p(X, Y) :- e(X, Y), r1(Y), r2(Y), r3(Y).";

TEST(FixpointPassTest, EarlyExitMatchesWholeRounds) {
  std::vector<std::pair<std::string, std::string>> programs = {
      {kSelectionPushing, "p(5, Y)"}};
  for (const test::SweepProgram& sp : test::kSweepPrograms) {
    programs.emplace_back(sp.text, sp.query);
  }
  int compared = 0;
  for (const auto& [text, query] : programs) {
    std::optional<TransformState> factored = FactoredState(text, query);
    if (!factored.has_value()) continue;
    for (UeOrder order : {UeOrder::kForward, UeOrder::kBackward}) {
      SCOPED_TRACE(text + " ?- " + query);
      OptimizeOptions opts;
      opts.ue_order = order;
      TransformState expected = *factored;
      ASSERT_TRUE(RunWholeRounds(SectionFiveChildren(opts), expected).ok());
      TransformState actual = *factored;
      ASSERT_TRUE(MakeSectionFiveFixpointPass(opts)->Apply(actual).ok());
      ASSERT_TRUE(actual.optimized.has_value());
      EXPECT_EQ(actual.optimized->ToString(), expected.optimized->ToString());
      ++compared;
    }
  }
  EXPECT_GT(compared, 2);
}

// Sum of "uniform-equivalence: N chases" over a compile's trace notes.
int UniformEquivalenceChases(const CompiledQuery& compiled) {
  const std::string prefix = "uniform-equivalence: ";
  int chases = 0;
  for (const PassTraceEntry& entry : compiled.trace) {
    for (const std::string& note : entry.notes) {
      if (note.rfind(prefix, 0) == 0) {
        chases += std::atoi(note.c_str() + prefix.size());
      }
    }
  }
  return chases;
}

TEST(FixpointPassTest, UniformEquivalenceChaseCounts) {
  // Hardware-independent cost of the §5 fixpoint: chases actually
  // evaluated. Whole rounds with a restart scan and no pre-check ran 14 for
  // selection-pushing.
  ast::Program right = P(kRightTc);
  auto right_tc = CompileQuery(right, *right.query(), Strategy::kFactoring);
  ASSERT_TRUE(right_tc.ok()) << right_tc.status().ToString();
  ASSERT_TRUE(right_tc->factoring_applied);
  EXPECT_NE(TraceToString(right_tc->trace).find("skipped by pre-check"),
            std::string::npos);
  EXPECT_LE(UniformEquivalenceChases(*right_tc), 1);

  ast::Program sp = P(kSelectionPushing);
  auto selection = CompileQuery(sp, A("p(5, Y)"), Strategy::kFactoring);
  ASSERT_TRUE(selection.ok()) << selection.status().ToString();
  ASSERT_TRUE(selection->factoring_applied);
  EXPECT_LE(UniformEquivalenceChases(*selection), 4);
}

}  // namespace
}  // namespace factlog::core
