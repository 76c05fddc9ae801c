#include "transform/counting.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>

#include "api/engine.h"
#include "core/canonical.h"
#include "core/optimizations.h"
#include "core/pipeline.h"
#include "eval/seminaive.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"

namespace factlog::transform {
namespace {

using test::A;
using test::P;

Result<CountingProgram> Counting(const ast::Program& p, const ast::Atom& q) {
  auto adorned = analysis::Adorn(p, q);
  if (!adorned.ok()) return adorned.status();
  auto c = core::ClassifyProgram(*adorned);
  if (!c.ok()) return c.status();
  return CountingTransform(*adorned, *c);
}

const char kRightTc[] = R"(
  t(X, Y) :- e(X, W), t(W, Y).
  t(X, Y) :- e(X, Y).
)";

const char kLeftTc[] = R"(
  t(X, Y) :- t(X, W), e(W, Y).
  t(X, Y) :- e(X, Y).
)";

TEST(CountingTest, RightLinearComputesCorrectAnswersOnChain) {
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  eval::Database db;
  workload::MakeChain(10, "e", &db);
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->rows.size(), 9u);
  // Cross-check against the original program.
  eval::Database db2;
  workload::MakeChain(10, "e", &db2);
  auto orig = eval::EvaluateQuery(p, A("t(1, Y)"), &db2);
  ASSERT_TRUE(orig.ok());
  EXPECT_EQ(answers->rows.size(), orig->rows.size());
}

TEST(CountingTest, GoalPredicateCarriesIndexFields) {
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  eval::Database db;
  workload::MakeChain(5, "e", &db);
  auto result = eval::Evaluate(counting->program, &db);
  ASSERT_TRUE(result.ok());
  // cnt_t_bf holds one goal per chain node, each with its depth index.
  EXPECT_EQ(result->SizeOf(counting->cnt_name), 5u);
  // Answers are replayed at every smaller index: Theta(n^2) facts — the
  // index-maintenance overhead the paper contrasts with factoring.
  EXPECT_GT(result->SizeOf(counting->ans_name), 9u);
}

TEST(CountingTest, MultipleRulesEncodeRulePathInJ) {
  ast::Program p = P(R"(
    t(X, Y) :- e1(X, W), t(W, Y).
    t(X, Y) :- e2(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  eval::Database db;
  test::AddFacts(&db, "e1(1, 2). e2(2, 3). e(3, 9). e(2, 8). e(1, 7).");
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db);
  ASSERT_TRUE(answers.ok());
  // 7 directly; 8 via e1; 9 via e1;e2.
  EXPECT_EQ(answers->rows.size(), 3u);
}

TEST(CountingTest, LeftLinearDiverges) {
  // §6.4: cnt_t(X, I+1) :- cnt_t(X, I) never terminates bottom-up.
  ast::Program p = P(kLeftTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  eval::Database db;
  workload::MakeChain(4, "e", &db);
  eval::EvalOptions opts;
  opts.max_facts = 10'000;
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db,
                                     opts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(CountingTest, CyclicDataDivergesEvenRightLinear) {
  // Counting encodes goal depth; on a cycle the depth is unbounded. (Magic
  // and factoring terminate here — an advantage the paper leaves implicit.)
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  eval::Database db;
  workload::MakeCycle(4, "e", &db);
  eval::EvalOptions opts;
  opts.max_facts = 10'000;
  auto answers = eval::EvaluateQuery(counting->program, counting->query, &db,
                                     opts);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST(CountingTest, AllFreeAndAllBoundQueriesRejected) {
  // Neither adornment splits into bound and free parts, so the rules are
  // never classified.
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, W), e(W, Y).
  )");
  for (const char* query : {"t(X, Y)", "t(1, 2)"}) {
    auto counting = Counting(p, A(query));
    ASSERT_FALSE(counting.ok()) << query;
    EXPECT_EQ(counting.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(CountingTest, CombinedRulesRejected) {
  ast::Program p = P(R"(
    t(X, Y) :- t(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_FALSE(counting.ok());
  EXPECT_EQ(counting.status().code(), StatusCode::kFailedPrecondition);
}

TEST(CountingTest, Theorem64IndexDeletionYieldsFactoredProgram) {
  // The paper's §6.4 worked example: two right-linear rules. After deleting
  // index fields and trivially redundant rules, the Counting program is the
  // factored Magic program up to predicate renaming.
  ast::Program p = P(R"(
    t(X, Y) :- first1(X, U), t(U, Y), right1(Y).
    t(X, Y) :- first2(X, U), t(U, Y), right2(Y).
    t(X, Y) :- exit0(X, Y), right1(Y), right2(Y).
    ?- t(5, Y).
  )");
  auto counting = Counting(p, *p.query());
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();

  ast::Program stripped = DeleteIndexFields(*counting);
  core::DeleteHeadInBodyRules(&stripped);
  core::DeleteDuplicateRules(&stripped);
  core::DeleteUnreachableRules(&stripped, counting->query_name);

  auto pipe = core::OptimizeQuery(p, *p.query());
  ASSERT_TRUE(pipe.ok());
  ASSERT_TRUE(pipe->factoring_applied);
  ASSERT_TRUE(pipe->optimized.has_value());

  std::map<std::string, std::string> renames = {
      {counting->cnt_name, "m_t_bf"}, {counting->ans_name, "ft"}};
  EXPECT_TRUE(core::StructurallyEqual(stripped, *pipe->optimized, renames))
      << "stripped counting:\n" << stripped.ToString()
      << "pipeline optimized:\n" << pipe->optimized->ToString();
}

TEST(CountingTest, Theorem64OnPlainRightLinearTc) {
  ast::Program p = P(kRightTc);
  p.set_query(A("t(1, Y)"));
  auto counting = Counting(p, *p.query());
  ASSERT_TRUE(counting.ok());
  ast::Program stripped = DeleteIndexFields(*counting);
  core::DeleteHeadInBodyRules(&stripped);
  core::DeleteDuplicateRules(&stripped);
  core::DeleteUnreachableRules(&stripped, counting->query_name);
  auto pipe = core::OptimizeQuery(p, *p.query());
  ASSERT_TRUE(pipe.ok());
  std::map<std::string, std::string> renames = {
      {counting->cnt_name, "m_t_bf"}, {counting->ans_name, "ft"}};
  EXPECT_TRUE(core::StructurallyEqual(stripped, *pipe->optimized, renames));
}

TEST(CountingTest, StrippedProgramStillAnswersCorrectly) {
  ast::Program p = P(kRightTc);
  auto counting = Counting(p, A("t(1, Y)"));
  ASSERT_TRUE(counting.ok());
  ast::Program stripped = DeleteIndexFields(*counting);
  eval::Database db;
  workload::MakeChain(8, "e", &db);
  auto answers =
      eval::EvaluateQuery(stripped, *stripped.query(), &db);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 7u);
}

// The engine bounds a Counting run's iterations by the distinct constants of
// the base relations it reads: on acyclic data the goal index cannot pass
// that count, so a run past it is diverging (§6.4). Without the bound the
// cyclic case below ran for minutes towards the 10M fact budget.
std::string ChainFacts(int edges) {
  std::string facts;
  for (int i = 1; i <= edges; ++i) {
    facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  return facts;
}

TEST(CountingTest, EngineFailsFastOnCyclicData) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts(ChainFacts(61) + "e(7, 3).\n").ok());
  const auto start = std::chrono::steady_clock::now();
  auto answers = engine.Query(P(kRightTc), A("t(1, Y)"),
                              core::Strategy::kCounting);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(answers.status().message().find("§6.4"), std::string::npos)
      << answers.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(CountingTest, EngineBoundLetsAcyclicDataFinish) {
  // The deepest acyclic case for its constant count: every node lies on the
  // query's path.
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts(ChainFacts(61)).ok());
  api::QueryStats stats;
  auto answers = engine.Query(P(kRightTc), A("t(1, Y)"),
                              core::Strategy::kCounting, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 61u);
  // The goal index climbs to 61 and the answers walk it back down to 0.
  EXPECT_GE(stats.eval.iterations, 2u * 61u);
  // Left-linear Counting diverges on any data; the bound catches it too.
  auto left = engine.Query(P(kLeftTc), A("t(1, Y)"),
                           core::Strategy::kCounting);
  ASSERT_FALSE(left.ok());
  EXPECT_NE(left.status().message().find("§6.4"), std::string::npos);
}

// A materialized Counting view is bounded the same way: at its build, and
// before each propagation, over the base relations as they stand then.
TEST(CountingTest, MaterializeFailsFastOnCyclicData) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts(ChainFacts(61) + "e(7, 3).\n").ok());
  const auto start = std::chrono::steady_clock::now();
  auto handle = engine.Materialize(P(kRightTc), A("t(1, Y)"),
                                   core::Strategy::kCounting);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_FALSE(handle.ok());
  EXPECT_EQ(handle.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(handle.status().message().find("§6.4"), std::string::npos)
      << handle.status().ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  EXPECT_EQ(engine.num_views(), 0u);
  // The engine stays usable.
  auto answers = engine.Query(P(kRightTc), A("t(1, Y)"));
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 61u);
}

TEST(CountingTest, MaterializedViewFailsFastOnCyclicInsert) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts(ChainFacts(61)).ok());
  auto counting = engine.Materialize(P(kRightTc), A("t(1, Y)"),
                                     core::Strategy::kCounting);
  ASSERT_TRUE(counting.ok()) << counting.status().ToString();
  auto magic = engine.Materialize(P(kRightTc), A("t(1, Y)"),
                                  core::Strategy::kMagic);
  ASSERT_TRUE(magic.ok()) << magic.status().ToString();
  auto answers = engine.AnswerFromView(*counting);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 61u);
  // Extending the chain raises the bound with the new constant.
  ASSERT_TRUE(engine.AddFact(A("e(62, 63)")).ok());
  answers = engine.AnswerFromView(*counting);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->size(), 62u);

  const auto start = std::chrono::steady_clock::now();
  Status st = engine.AddFact(A("e(7, 3)"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(st.message().find("§6.4"), std::string::npos) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
  // Only the Counting view is poisoned; the other view and the engine
  // keep working, and the fact was inserted.
  EXPECT_EQ(engine.AnswerFromView(*counting).status().code(),
            StatusCode::kFailedPrecondition);
  auto from_magic = engine.AnswerFromView(*magic);
  ASSERT_TRUE(from_magic.ok()) << from_magic.status().ToString();
  EXPECT_EQ(from_magic->size(), 62u);
  engine.DropView(*counting);
  ASSERT_TRUE(engine.RemoveFact(A("e(62, 63)")).ok());
  from_magic = engine.AnswerFromView(*magic);
  ASSERT_TRUE(from_magic.ok()) << from_magic.status().ToString();
  EXPECT_EQ(from_magic->size(), 61u);
}

}  // namespace
}  // namespace factlog::transform
