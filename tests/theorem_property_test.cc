// Property tests mirroring the proof obligations of Theorems 4.1-4.3 (the
// derivation-tree arguments illustrated by Figs. 3-6).
//
// For factorable programs and random EDBs:
//   (1) fp contains exactly the answers to the query (Theorems' statement);
//   (2) every fp(a) fact in the factored program corresponds to a derivable
//       p^a(x0, a) fact in the Magic program (the induction invariant);
//   (3) every magic fact of the factored program is a magic fact of the
//       Magic program (the m_p case of the induction);
//   (4) derivation trees built from the engine's derivation callback satisfy
//       Definition 2.1 (leaves are EDB facts; internal nodes rule
//       instantiations).

#include <gtest/gtest.h>

#include <random>

#include "ast/special_predicates.h"
#include "core/pipeline.h"
#include "eval/provenance.h"
#include "eval/seminaive.h"
#include "exec/parallel_seminaive.h"
#include "exec/thread_pool.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"

namespace factlog {
namespace {

using test::A;
using test::P;

struct TheoremCase {
  const char* name;
  const char* program;
  const char* query;
  // Predicate names in the transformed programs.
  const char* adorned_pred;
  const char* fp;
  const char* magic_pred;
};

class TheoremInvariantTest : public ::testing::TestWithParam<TheoremCase> {};

TEST_P(TheoremInvariantTest, FactoredFactsEmbedIntoMagicDerivations) {
  const TheoremCase& c = GetParam();
  ast::Program p = P(c.program);
  ast::Atom q = A(c.query);
  // Compares against the raw factored P^fact, before the §5 cleanups.
  auto pipe = core::OptimizeQuery(p, q);
  ASSERT_TRUE(pipe.ok()) << pipe.status().ToString();
  ASSERT_TRUE(pipe->factoring_applied);

  std::mt19937_64 rng(20260611);
  for (int trial = 0; trial < 12; ++trial) {
    eval::Database db_magic, db_fact;
    std::uniform_int_distribution<int64_t> node(1, 6);
    std::uniform_int_distribution<int> count(0, 10);
    // Random small EDB over every EDB predicate of the source program.
    for (const auto& [name, arity] : p.EdbPredicates()) {
      int tuples = count(rng);
      for (int t = 0; t < tuples; ++t) {
        std::vector<ast::Term> args;
        for (size_t i = 0; i < arity; ++i) args.push_back(ast::Term::Int(node(rng)));
        ast::Atom fact(name, args);
        ASSERT_TRUE(db_magic.AddFact(fact).ok());
        ASSERT_TRUE(db_fact.AddFact(fact).ok());
      }
    }

    auto magic_result = eval::Evaluate(pipe->magic.program, &db_magic);
    ASSERT_TRUE(magic_result.ok());
    auto fact_result = eval::Evaluate(pipe->factored->program, &db_fact);
    ASSERT_TRUE(fact_result.ok());

    const eval::Relation* padorned = magic_result->Find(c.adorned_pred);
    const eval::Relation* fp_rel = fact_result->Find(c.fp);

    // Invariant (2): each fp(a) appears as p^a(x0, a) in the Magic program.
    // x0 is the seed; with the query binding one argument, p^a rows are
    // (x0, a).
    if (fp_rel != nullptr) {
      for (size_t r = 0; r < fp_rel->size(); ++r) {
        ast::Term a = db_fact.store().ToTerm(fp_rel->row(r)[0]);
        ASSERT_NE(padorned, nullptr);
        // Translate through the magic-side store.
        auto a_id = db_magic.store().FromTerm(a);
        ASSERT_TRUE(a_id.ok());
        auto seed_id =
            db_magic.store().FromTerm(pipe->magic.seed.args()[0]);
        ASSERT_TRUE(seed_id.ok());
        std::vector<eval::ValueId> row = {*seed_id, *a_id};
        EXPECT_TRUE(padorned->Contains(row.data()))
            << "fp fact " << a.ToString()
            << " has no p^a(x0, a) counterpart (trial " << trial << ")";
      }
    }

    // Invariant (3): magic facts coincide.
    const eval::Relation* m_magic = magic_result->Find(c.magic_pred);
    const eval::Relation* m_fact = fact_result->Find(c.magic_pred);
    size_t magic_count = m_magic == nullptr ? 0 : m_magic->size();
    size_t fact_count = m_fact == nullptr ? 0 : m_fact->size();
    EXPECT_EQ(magic_count, fact_count) << "trial " << trial;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Programs, TheoremInvariantTest,
    ::testing::Values(
        TheoremCase{"three_form_tc",
                    "t(X, Y) :- t(X, W), t(W, Y). "
                    "t(X, Y) :- e(X, W), t(W, Y). "
                    "t(X, Y) :- t(X, W), e(W, Y). "
                    "t(X, Y) :- e(X, Y).",
                    "t(1, Y)", "t_bf", "ft", "m_t_bf"},
        TheoremCase{"right_tc",
                    "t(X, Y) :- e(X, W), t(W, Y). t(X, Y) :- e(X, Y).",
                    "t(1, Y)", "t_bf", "ft", "m_t_bf"},
        TheoremCase{"left_tc",
                    "t(X, Y) :- t(X, W), e(W, Y). t(X, Y) :- e(X, Y).",
                    "t(1, Y)", "t_bf", "ft", "m_t_bf"}),
    [](const ::testing::TestParamInfo<TheoremCase>& info) {
      return info.param.name;
    });

TEST(DerivationTreeTest, TreesSatisfyDefinition21) {
  // Every internal node of a reconstructed derivation tree is a rule
  // instantiation; every leaf is an EDB fact or a program fact.
  ast::Program p = P(R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- e(X, W), t(W, Y).
  )");
  eval::Database db;
  workload::MakeChain(6, "e", &db);
  eval::DerivationEdgeStore store(test::kUnboundedEdges);
  auto result = exec::EvaluateParallel(p, &db, /*pool=*/nullptr, {},
                                       test::RecordDerivations(p, &store));
  ASSERT_TRUE(result.ok());

  const eval::Relation* t = result->Find("t");
  ASSERT_NE(t, nullptr);
  for (size_t r = 0; r < t->size(); ++r) {
    eval::FactKey fact{"t", {t->row(r)[0], t->row(r)[1]}};
    eval::DerivationTree tree = BuildDerivationTree(store, fact);
    // Walk the tree checking Definition 2.1's two clauses.
    std::vector<const eval::DerivationTree*> stack = {&tree};
    while (!stack.empty()) {
      const eval::DerivationTree* node = stack.back();
      stack.pop_back();
      if (node->children.empty()) {
        // Leaf: must be an EDB fact (rule_index == -1 for "e").
        if (node->fact.predicate == "e") {
          EXPECT_EQ(node->rule_index, -1);
        }
      } else {
        ASSERT_GE(node->rule_index, 0);
        ASSERT_LT(node->rule_index,
                  static_cast<int>(p.rules().size()));
        // The node's rule body size matches its child count (positive
        // relation literals only; this program has none other).
        EXPECT_EQ(node->children.size(),
                  p.rules()[node->rule_index].body().size());
      }
      for (const auto& child : node->children) stack.push_back(&child);
    }
    // Heights grow with distance along the chain: t(1, k+1) needs k rule
    // applications.
  }
  // Spot-check a specific height: t(1,6) derives via 5 e-steps.
  eval::FactKey far{"t", {db.store().InternInt(1), db.store().InternInt(6)}};
  eval::DerivationTree tree = BuildDerivationTree(store, far);
  EXPECT_EQ(tree.Height(), 6u);
}

TEST(DerivationTreeTest, FactoredProgramAnswersHaveMagicDerivations) {
  // The Theorem 4.1 statement on concrete data: every fp answer has a
  // derivation tree for p^a(x0, a) in P^mg whose root rule is a modified
  // original rule.
  ast::Program p = P(R"(
    t(X, Y) :- e(X, W), t(W, Y).
    t(X, Y) :- e(X, Y).
  )");
  auto pipe = core::OptimizeQuery(p, A("t(1, Y)"));
  ASSERT_TRUE(pipe.ok());
  eval::Database db;
  workload::MakeChain(5, "e", &db);
  db.AddPair("e", 2, 5);
  eval::DerivationEdgeStore store(test::kUnboundedEdges);
  auto magic_result = exec::EvaluateParallel(
      pipe->magic.program, &db, /*pool=*/nullptr, {},
      test::RecordDerivations(pipe->magic.program, &store));
  ASSERT_TRUE(magic_result.ok());
  const eval::Relation* t_bf = magic_result->Find("t_bf");
  ASSERT_NE(t_bf, nullptr);
  for (size_t r = 0; r < t_bf->size(); ++r) {
    eval::FactKey fact{"t_bf", {t_bf->row(r)[0], t_bf->row(r)[1]}};
    eval::DerivationTree tree = BuildDerivationTree(store, fact);
    EXPECT_GE(tree.rule_index, 0);
    EXPECT_GE(tree.Height(), 2u);  // at least a rule over EDB/magic facts
  }
}

// Definition 2.1 over the sweep corpus, original and compiled: an inline run
// reports exactly one callback per rule instantiation, every IDB fact has a
// recorded derivation, and in every tree an internal node's rule has the
// node's predicate as head and one child per relation literal, while leaves
// have no recorded derivation.
TEST(DerivationTreeTest, SweepTreesSatisfyDefinition21) {
  for (const test::SweepProgram& ps : test::kSweepPrograms) {
    ast::Program original = P(ps.text);
    auto compiled =
        core::CompileQuery(original, A(ps.query), core::Strategy::kAuto);
    ASSERT_TRUE(compiled.ok()) << ps.name << ": "
                               << compiled.status().ToString();
    for (const ast::Program* program : {&original, &compiled->program}) {
      for (const test::SweepWorkload& ws : test::kSweepWorkloads) {
        const std::string where = std::string(ps.name) +
                                  (program == &original ? "" : " compiled") +
                                  " x " + ws.name;
        eval::Database db;
        ws.make(&db);
        eval::DerivationEdgeStore store(test::kUnboundedEdges);
        const exec::DerivationCallback record =
            test::RecordDerivations(*program, &store);
        uint64_t callbacks = 0;
        auto result = exec::EvaluateParallel(
            *program, &db, /*pool=*/nullptr, {},
            [&](size_t rule, const std::vector<eval::ValueId>& head,
                const std::vector<eval::FactKey>& premises) {
              ++callbacks;
              record(rule, head, premises);
            });
        ASSERT_TRUE(result.ok()) << where << ": "
                                 << result.status().ToString();
        EXPECT_EQ(callbacks, result->stats().instantiations) << where;

        for (const auto& [pred, rel] : result->idb()) {
          for (size_t r = 0; r < rel->size(); ++r) {
            eval::FactKey fact{pred, {rel->row(r), rel->row(r) + rel->arity()}};
            eval::DerivationTree tree = BuildDerivationTree(store, fact);
            EXPECT_GE(tree.rule_index, 0) << where << ": " << pred;
            std::vector<const eval::DerivationTree*> stack = {&tree};
            while (!stack.empty()) {
              const eval::DerivationTree* node = stack.back();
              stack.pop_back();
              if (node->rule_index < 0) {
                const auto f = store.FindFact(node->fact.predicate,
                                              node->fact.row.data(),
                                              node->fact.row.size());
                EXPECT_TRUE(f == eval::DerivationEdgeStore::kNoFact ||
                            store.derivations_of(f).empty())
                    << where << ": leaf " << node->fact.predicate;
                continue;
              }
              ASSERT_LT(node->rule_index,
                        static_cast<int>(program->rules().size()));
              const ast::Rule& rule = program->rules()[node->rule_index];
              EXPECT_EQ(rule.head().predicate(), node->fact.predicate)
                  << where;
              size_t relation_literals = 0;
              for (const ast::Atom& lit : rule.body()) {
                if (!ast::IsBuiltinPredicate(lit.predicate())) {
                  ++relation_literals;
                }
              }
              EXPECT_EQ(node->children.size(), relation_literals) << where;
              for (const auto& child : node->children) {
                stack.push_back(&child);
              }
            }
          }
        }
      }
    }
  }
}

// The callback needs an inline semi-naive run.
TEST(DerivationTreeTest, CallbackRejectedOnPoolAndUnderNaive) {
  ast::Program p = P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  eval::Database db;
  workload::MakeChain(4, "e", &db);
  eval::DerivationEdgeStore store(test::kUnboundedEdges);
  const exec::DerivationCallback record = test::RecordDerivations(p, &store);

  exec::ThreadPool pool(1);
  auto pooled = exec::EvaluateParallel(p, &db, &pool, {}, record);
  ASSERT_FALSE(pooled.ok());
  EXPECT_EQ(pooled.status().code(), StatusCode::kInvalidArgument);

  exec::ParallelEvalOptions naive;
  naive.eval.strategy = eval::Strategy::kNaive;
  auto oracle = exec::EvaluateParallel(p, &db, /*pool=*/nullptr, naive, record);
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(oracle.status().code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(store.num_edges(), 0u);
}

}  // namespace
}  // namespace factlog
