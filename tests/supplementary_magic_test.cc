#include "transform/supplementary_magic.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "transform/magic.h"
#include "eval/equivalence.h"
#include "eval/seminaive.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"

namespace factlog::transform {
namespace {

using test::A;
using test::P;

Result<SupplementaryMagicProgram> Supp(const ast::Program& p,
                                       const ast::Atom& q) {
  auto adorned = analysis::Adorn(p, q);
  if (!adorned.ok()) return adorned.status();
  return SupplementaryMagicSets(*adorned);
}

TEST(SupplementaryMagicTest, RightLinearTcStructure) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  auto supp = Supp(p, A("t(5, Y)"));
  ASSERT_TRUE(supp.ok()) << supp.status().ToString();
  // seed, sup_0_1, magic-from-sup, modified rule, exit rule.
  std::set<std::string> rules;
  for (const ast::Rule& r : supp->program.rules()) rules.insert(r.ToString());
  EXPECT_EQ(rules.count("m_t_bf(5)."), 1u);
  EXPECT_EQ(rules.count("sup_0_1(W, X) :- m_t_bf(X), e(X, W)."), 1u);
  EXPECT_EQ(rules.count("m_t_bf(W) :- sup_0_1(W, X)."), 1u);
  EXPECT_EQ(rules.count("t_bf(X, Y) :- sup_0_1(W, X), t_bf(W, Y)."), 1u);
  EXPECT_EQ(rules.count("t_bf(X, Y) :- m_t_bf(X), e(X, Y)."), 1u);
}

std::set<std::string> RuleStrings(const ast::Program& p) {
  std::set<std::string> rules;
  for (const ast::Rule& r : p.rules()) rules.insert(r.ToString());
  return rules;
}

// Names of the sup_{r,1} predicates the program defines.
std::set<std::string> FirstStages(const ast::Program& p) {
  std::set<std::string> out;
  for (const ast::Rule& r : p.rules()) {
    const std::string& name = r.head().predicate();
    if (name.rfind("sup_", 0) == 0 && name.size() > 2 &&
        name.compare(name.size() - 2, 2, "_1") == 0) {
      out.insert(name);
    }
  }
  return out;
}

// When b_1 is an IDB literal under the head's own magic guard and keeps all
// its variables, sup_{r,1} would copy b_1; the next stage reads m_h, b_1
// instead, which for left-linear TC is plain Magic's modified rule.
TEST(SupplementaryMagicTest, LeftTcAllFreeSkipsFirstStageCopy) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, W), e(W, Y).
  )");
  auto supp = Supp(p, A("t(X, Y)"));
  ASSERT_TRUE(supp.ok()) << supp.status().ToString();
  EXPECT_EQ(FirstStages(supp->program), std::set<std::string>{});
  EXPECT_EQ(RuleStrings(supp->program),
            (std::set<std::string>{
                "m_t_ff.",
                "t_ff(X, Y) :- m_t_ff, e(X, Y).",
                "t_ff(X, Y) :- m_t_ff, t_ff(X, W), e(W, Y).",
            }));
}

TEST(SupplementaryMagicTest, LeftTcBoundSkipsFirstStageCopy) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, W), e(W, Y).
  )");
  auto supp = Supp(p, A("t(1, Y)"));
  ASSERT_TRUE(supp.ok()) << supp.status().ToString();
  EXPECT_EQ(FirstStages(supp->program), std::set<std::string>{});
  EXPECT_EQ(RuleStrings(supp->program).count(
                "t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), e(W, Y)."),
            1u);
}

TEST(SupplementaryMagicTest, NonlinearTcBoundSkipsFirstStageCopy) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, W), t(W, Y).
  )");
  auto supp = Supp(p, A("t(1, Y)"));
  ASSERT_TRUE(supp.ok()) << supp.status().ToString();
  EXPECT_EQ(FirstStages(supp->program), std::set<std::string>{});
  std::set<std::string> rules = RuleStrings(supp->program);
  EXPECT_EQ(rules.count("m_t_bf(W) :- m_t_bf(X), t_bf(X, W)."), 1u);
  EXPECT_EQ(rules.count("t_bf(X, Y) :- m_t_bf(X), t_bf(X, W), t_bf(W, Y)."),
            1u);
}

// An EDB first literal is really filtered by the guard, so its stage stays.
TEST(SupplementaryMagicTest, SameGenerationKeepsFirstStage) {
  ast::Program p = P(R"(
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
  )");
  auto supp = Supp(p, A("sg(1, Y)"));
  ASSERT_TRUE(supp.ok()) << supp.status().ToString();
  EXPECT_EQ(FirstStages(supp->program), std::set<std::string>{"sup_1_1"});
  EXPECT_EQ(RuleStrings(supp->program)
                .count("sup_1_1(U, X) :- m_sg_bf(X), up(X, U)."),
            1u);
}

// b_1 under the head's guard, but W is not needed after stage 1: the stage
// projects it away, so it is not a copy and stays.
TEST(SupplementaryMagicTest, ProjectingFirstStageStays) {
  ast::Program p = P(R"(
    r(X, Y) :- e(X, Y).
    r(X, Y) :- r(X, W), e(X, Y).
  )");
  auto supp = Supp(p, A("r(1, Y)"));
  ASSERT_TRUE(supp.ok()) << supp.status().ToString();
  EXPECT_EQ(FirstStages(supp->program), std::set<std::string>{"sup_1_1"});
  std::set<std::string> rules = RuleStrings(supp->program);
  EXPECT_EQ(rules.count("sup_1_1(X) :- m_r_bf(X), r_bf(X, W)."), 1u);
  EXPECT_EQ(rules.count("r_bf(X, Y) :- sup_1_1(X), e(X, Y)."), 1u);
}

TEST(SupplementaryMagicTest, FactsBecomeGuardedHeads) {
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(5, 7).
  )");
  auto supp = Supp(p, A("t(5, Y)"));
  ASSERT_TRUE(supp.ok());
  std::set<std::string> rules;
  for (const ast::Rule& r : supp->program.rules()) rules.insert(r.ToString());
  EXPECT_EQ(rules.count("t_bf(5, 7) :- m_t_bf(5)."), 1u);
}

struct SuppCase {
  const char* name;
  const char* program;
  const char* query;
};

class SupplementaryEquivalenceTest
    : public ::testing::TestWithParam<SuppCase> {};

TEST_P(SupplementaryEquivalenceTest, AgreesWithOriginalProgram) {
  ast::Program p = P(GetParam().program);
  ast::Atom q = A(GetParam().query);
  auto supp = Supp(p, q);
  ASSERT_TRUE(supp.ok()) << supp.status().ToString();
  eval::DiffTestOptions opts;
  opts.trials = 60;
  auto ce = eval::FindCounterexample(p, q, supp->program, supp->query, opts);
  ASSERT_TRUE(ce.ok()) << ce.status().ToString();
  EXPECT_FALSE(ce->has_value()) << (*ce)->ToString();
}

INSTANTIATE_TEST_SUITE_P(
    Programs, SupplementaryEquivalenceTest,
    ::testing::Values(
        SuppCase{"right_tc",
                 "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).",
                 "t(1, Y)"},
        SuppCase{"nonlinear_tc",
                 "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y).",
                 "t(1, Y)"},
        SuppCase{"nonlinear_tc_ff",
                 "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y).",
                 "t(X, Y)"},
        SuppCase{"left_tc_ff",
                 "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).",
                 "t(X, Y)"},
        SuppCase{"left_tc_bf",
                 "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).",
                 "t(1, Y)"},
        // b_1 = t(X, X) repeats a variable: the skipped stage keeps the
        // equality filter in the conjunction that replaces it.
        SuppCase{"repeated_var_first_literal",
                 "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, X), e(X, Y).",
                 "t(X, Y)"},
        SuppCase{"projecting_first_stage",
                 "r(X, Y) :- e(X, Y). r(X, Y) :- r(X, W), e(X, Y).",
                 "r(1, Y)"},
        SuppCase{"same_generation",
                 "sg(X, Y) :- flat(X, Y). "
                 "sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).",
                 "sg(1, Y)"},
        SuppCase{"long_body",
                 "q(X, Y) :- e(X, A), e(A, B), e(B, C), e(C, Y). "
                 "q(X, Y) :- e(X, W), q(W, Y).",
                 "q(1, Y)"}),
    [](const ::testing::TestParamInfo<SuppCase>& info) {
      return info.param.name;
    });

TEST(SupplementaryMagicTest, SharesPrefixWorkAcrossMagicRules) {
  // With two IDB literals behind a shared EDB prefix, plain Magic re-joins
  // the prefix for each magic rule and for the modified rule; supplementary
  // magic computes every stage once. The saving shows in join probe work
  // (rows matched), not head instantiations (sup heads are extra facts).
  ast::Program p = P(R"(
    q(X, Y) :- e(X, Y).
    q(X, Y) :- e(X, A), e(A, B), q(B, C), e(C, D), q(D, Y).
  )");
  ast::Atom q = A("q(1, Y)");
  auto adorned = analysis::Adorn(p, q);
  ASSERT_TRUE(adorned.ok());
  auto plain = MagicSets(*adorned);
  auto supp = SupplementaryMagicSets(*adorned);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(supp.ok());

  eval::Database db1, db2;
  workload::MakeChain(48, "e", &db1);
  workload::MakeChain(48, "e", &db2);
  eval::EvalStats plain_stats, supp_stats;
  auto a1 = eval::EvaluateQuery(plain->program, plain->query, &db1, {},
                                &plain_stats);
  auto a2 = eval::EvaluateQuery(supp->program, supp->query, &db2, {},
                                &supp_stats);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a1->rows, a2->rows);
  // ~40% fewer join probes in this configuration.
  EXPECT_LT(supp_stats.rows_matched, plain_stats.rows_matched);
}

}  // namespace
}  // namespace factlog::transform
