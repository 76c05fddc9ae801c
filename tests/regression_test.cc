// Regression programs (tests/regressions/): rules lint accepts whose
// builtins are written before the literals that bind their inputs. Each must
// return its listed answers under every strategy that applies, evaluated
// both semi-naively with the compiled join plans and naively, and naive
// evaluation of the source program must agree. The remaining tests pin the
// binding model (ast/binding.h) that lint, adornment and the join planner
// share: L002 flags exactly the builtins its schedule never runs, and every
// rule a strategy emits for a lint-clean program runs in its written order.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "ast/binding.h"
#include "core/pipeline.h"
#include "eval/seminaive.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"

namespace factlog {
namespace {

using core::Strategy;
using test::DlFilesIn;
using test::ReadFileOrDie;

struct Regression {
  const char* file;
  const char* facts;
  std::vector<std::string> answers;  // sorted, as rendered by Render
};

const Regression kRegressions[] = {
    {"affine_before_its_input.dl",
     "madeof(1, 2). madeof(2, 3). basic(3, 5).",
     {"C = 5"}},
    {"geq_before_its_input.dl",
     "q(1). q(2). q(3). e(1). e(2). e(3).",
     {"Y = 2", "Y = 3"}},
    {"equal_before_its_input.dl",
     "q(1). q(2). q(3). e(1). e(2). e(3).",
     {"Y = 1", "Y = 2", "Y = 3"}},
};

constexpr Strategy kStrategies[] = {
    Strategy::kAuto,     Strategy::kFactoring,
    Strategy::kMagic,    Strategy::kSupplementaryMagic,
    Strategy::kCounting, Strategy::kLinearRewrite,
};

ast::Program Load(const std::string& file) {
  const std::filesystem::path path =
      std::filesystem::path(FACTLOG_SOURCE_DIR) / "tests/regressions" / file;
  return test::P(ReadFileOrDie(path));
}

// The answers to `query` over `facts`, one "X = 1, Y = 2" string per row,
// sorted.
std::vector<std::string> Render(const ast::Program& program,
                                const ast::Atom& query,
                                const std::string& facts,
                                const eval::EvalOptions& opts) {
  eval::Database db;
  test::AddFacts(&db, facts);
  auto answers = eval::EvaluateQuery(program, query, &db, opts);
  EXPECT_TRUE(answers.ok()) << answers.status().ToString();
  std::vector<std::string> out;
  if (!answers.ok()) return out;
  for (const eval::RowView row : answers->rows) {
    std::string s;
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ", ";
      s += answers->vars[i] + " = " + db.store().ToString(row[i]);
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end());
  return out;
}

eval::EvalOptions Naive() {
  eval::EvalOptions opts;
  opts.strategy = eval::Strategy::kNaive;
  return opts;
}

// Compiles under `strategy`; false when the strategy does not apply.
bool CompileIfApplies(const ast::Program& program, Strategy strategy,
                      core::CompiledQuery* out) {
  auto compiled = core::CompileQuery(program, *program.query(), strategy);
  if (!compiled.ok()) {
    EXPECT_EQ(compiled.status().code(), StatusCode::kFailedPrecondition)
        << compiled.status().ToString();
    EXPECT_TRUE(strategy == Strategy::kCounting ||
                strategy == Strategy::kLinearRewrite)
        << compiled.status().ToString();
    return false;
  }
  *out = std::move(compiled).value();
  return true;
}

class RegressionTest : public ::testing::TestWithParam<int> {};

TEST_P(RegressionTest, ListedAnswersUnderEveryStrategy) {
  const Regression& r = kRegressions[GetParam()];
  ast::Program program = Load(r.file);
  ASSERT_TRUE(program.query().has_value());

  analysis::LintReport lint = analysis::LintProgram(program);
  EXPECT_TRUE(lint.diagnostics.empty())
      << RenderDiagnostics(lint.diagnostics);
  EXPECT_EQ(Render(program, *program.query(), r.facts, Naive()), r.answers);

  for (Strategy strategy : kStrategies) {
    SCOPED_TRACE(core::StrategyToString(strategy));
    core::CompiledQuery compiled;
    if (!CompileIfApplies(program, strategy, &compiled)) continue;
    eval::EvalOptions planned;
    planned.program_plan = &compiled.plans;
    EXPECT_EQ(Render(compiled.program, compiled.query, r.facts, planned),
              r.answers)
        << compiled.program.ToString();
    EXPECT_EQ(Render(compiled.program, compiled.query, r.facts, Naive()),
              r.answers)
        << compiled.program.ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, RegressionTest,
    ::testing::Range(0, static_cast<int>(std::size(kRegressions))),
    [](const ::testing::TestParamInfo<int>& info) {
      std::string name =
          std::filesystem::path(kRegressions[info.param].file).stem();
      return name;
    });

// The sweep corpus and every committed program under tests/.
std::vector<ast::Program> Corpus() {
  std::vector<ast::Program> programs;
  for (const test::SweepProgram& sp : test::kSweepPrograms) {
    ast::Program program = test::P(sp.text);
    program.set_query(test::A(sp.query));
    programs.push_back(std::move(program));
  }
  for (const char* dir : {"tests/bad_programs", "tests/regressions"}) {
    for (const auto& path : DlFilesIn(dir)) {
      programs.push_back(test::P(ReadFileOrDie(path)));
    }
  }
  return programs;
}

TEST(BindingModelTest, L002FlagsExactlyTheRulesWithUnrunBuiltins) {
  size_t flagged_rules = 0;
  for (const ast::Program& program : Corpus()) {
    analysis::LintReport lint = analysis::LintProgram(program);
    std::set<int> flagged;
    for (const Diagnostic& d : lint.diagnostics) {
      if (d.code == "L002") flagged.insert(d.rule_index);
    }
    for (size_t i = 0; i < program.rules().size(); ++i) {
      const ast::Rule& rule = program.rules()[i];
      const bool unrun = !ast::ScheduleBody(rule.body(), {}).unrun.empty();
      EXPECT_EQ(flagged.count(static_cast<int>(i)) > 0, unrun)
          << rule.ToString();
    }
    flagged_rules += flagged.size();
  }
  EXPECT_GT(flagged_rules, 0u);  // tests/bad_programs has an L002 rule
}

TEST(BindingModelTest, EmittedRulesRunInWrittenOrder) {
  for (const ast::Program& program : Corpus()) {
    if (!analysis::LintProgram(program).ok()) continue;
    for (Strategy strategy : kStrategies) {
      SCOPED_TRACE(core::StrategyToString(strategy));
      core::CompiledQuery compiled;
      if (!CompileIfApplies(program, strategy, &compiled)) continue;
      for (const ast::Rule& rule : compiled.program.rules()) {
        std::vector<size_t> written(rule.body().size());
        std::iota(written.begin(), written.end(), 0);
        const ast::BodySchedule run = ast::ScheduleBody(rule.body(), {});
        EXPECT_TRUE(run.unrun.empty()) << rule.ToString();
        EXPECT_EQ(run.order, written) << rule.ToString();
      }
    }
  }
}

TEST(BindingModelTest, WrongArityBuiltinNeverRunsAndIsLeftToL003) {
  ast::Program program;
  program.AddRule(test::R("p(X) :- e(X), equal(X)."));
  program.set_query(test::A("p(X)"));
  EXPECT_EQ(ast::ScheduleBody(program.rules()[0].body(), {}).unrun,
            (std::vector<size_t>{1}));
  analysis::LintReport lint = analysis::LintProgram(program);
  std::vector<std::string> codes;
  for (const Diagnostic& d : lint.diagnostics) codes.push_back(d.code);
  EXPECT_NE(std::find(codes.begin(), codes.end(), "L003"), codes.end());
  EXPECT_EQ(std::find(codes.begin(), codes.end(), "L002"), codes.end());
}

}  // namespace
}  // namespace factlog
