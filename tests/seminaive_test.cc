#include "eval/seminaive.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <limits>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "ast/unify.h"
#include "eval/provenance.h"
#include "storage/paged_store.h"
#include "tests/test_util.h"
#include "workload/graph_gen.h"

namespace factlog::eval {
namespace {

using test::A;
using test::AddFacts;
using test::Answers;
using test::P;
using test::RowsAre;

const char kTc[] = R"(
  t(X, Y) :- e(X, Y).
  t(X, Y) :- e(X, W), t(W, Y).
  ?- t(1, Y).
)";

TEST(SemiNaiveTest, TransitiveClosureChain) {
  EXPECT_EQ(Answers(kTc, "e(1, 2). e(2, 3). e(3, 4)."),
            (std::vector<std::string>{"(2)", "(3)", "(4)"}));
}

TEST(SemiNaiveTest, TransitiveClosureCycle) {
  EXPECT_EQ(Answers(kTc, "e(1, 2). e(2, 1)."),
            (std::vector<std::string>{"(1)", "(2)"}));
}

TEST(SemiNaiveTest, EmptyEdb) {
  ast::Program p = P(kTc);
  Database db;
  auto answers = EvaluateQuery(p, *p.query(), &db);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->rows.empty());
}

TEST(SemiNaiveTest, NonlinearTransitiveClosure) {
  const char prog[] = R"(
    t(X, Y) :- e(X, Y).
    t(X, Y) :- t(X, W), t(W, Y).
    ?- t(1, Y).
  )";
  EXPECT_EQ(Answers(prog, "e(1, 2). e(2, 3). e(3, 4)."),
            (std::vector<std::string>{"(2)", "(3)", "(4)"}));
}

TEST(SemiNaiveTest, ProgramFactsActAsSeeds) {
  const char prog[] = R"(
    m(5).
    m(W) :- m(X), e(X, W).
    ?- m(W).
  )";
  EXPECT_EQ(Answers(prog, "e(5, 6). e(6, 7). e(1, 2)."),
            (std::vector<std::string>{"(5)", "(6)", "(7)"}));
}

TEST(SemiNaiveTest, MutualRecursion) {
  const char prog[] = R"(
    even(X) :- zero(X).
    even(Y) :- odd(X), succ(X, Y).
    odd(Y) :- even(X), succ(X, Y).
    ?- even(X).
  )";
  EXPECT_EQ(Answers(prog, "zero(0). succ(0,1). succ(1,2). succ(2,3). succ(3,4)."),
            (std::vector<std::string>{"(0)", "(2)", "(4)"}));
}

TEST(SemiNaiveTest, SameGeneration) {
  const char prog[] = R"(
    sg(X, Y) :- flat(X, Y).
    sg(X, Y) :- up(X, U), sg(U, V), down(V, Y).
    ?- sg(1, Y).
  )";
  // 1 up to a, 2 up to b; a flat b; a down 3, b down 4.
  EXPECT_EQ(Answers(prog, "up(1, 10). up(2, 20). flat(10, 20). down(20, 4)."),
            (std::vector<std::string>{"(4)"}));
}

TEST(SemiNaiveTest, NaiveAgreesWithSemiNaive) {
  ast::Program p = P(kTc);
  eval::Database db1, db2;
  workload::MakeRandomGraph(40, 80, /*seed=*/7, "e", &db1);
  workload::MakeRandomGraph(40, 80, /*seed=*/7, "e", &db2);
  EvalOptions naive;
  naive.strategy = Strategy::kNaive;
  auto a1 = EvaluateQuery(p, *p.query(), &db1, naive);
  auto a2 = EvaluateQuery(p, *p.query(), &db2);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(a1->rows, a2->rows);
}

TEST(SemiNaiveTest, StatsCountFactsAndIterations) {
  ast::Program p = P(kTc);
  Database db;
  AddFacts(&db, "e(1, 2). e(2, 3). e(3, 4).");
  auto result = Evaluate(p, &db);
  ASSERT_TRUE(result.ok());
  // t = all 6 reachable pairs.
  EXPECT_EQ(result->SizeOf("t"), 6u);
  EXPECT_EQ(result->stats().total_facts, 6u);
  EXPECT_GE(result->stats().iterations, 3u);
  EXPECT_GT(result->stats().instantiations, 0u);
}

TEST(SemiNaiveTest, FactBudgetExhaustion) {
  ast::Program p = P(kTc);
  Database db;
  workload::MakeChain(100, "e", &db);
  EvalOptions opts;
  opts.max_facts = 10;
  auto result = Evaluate(p, &db, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(SemiNaiveTest, DivergingFunctionSymbolProgramHitsBudget) {
  // grow builds ever-larger lists: a genuinely nonterminating program.
  const char prog[] = R"(
    grow([s]).
    grow([s | L]) :- grow(L).
    ?- grow(L).
  )";
  ast::Program p = P(prog);
  Database db;
  EvalOptions opts;
  opts.max_facts = 1000;
  auto result = Evaluate(p, &db, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

TEST(SemiNaiveTest, ListDestructuring) {
  // The magic-pmem recursion from Example 4.6: m(T) :- m([H | T]).
  const char prog[] = R"(
    m([1, 2, 3]).
    m(T) :- m([H | T]).
    ?- m(L).
  )";
  // Rows sort by interning order: nil is interned before the cons cells.
  EXPECT_EQ(Answers(prog, ""),
            (std::vector<std::string>{"([])", "([3])", "([2, 3])",
                                      "([1, 2, 3])"}));
}

TEST(SemiNaiveTest, HeadConstruction) {
  const char prog[] = R"(
    wrap(f(X)) :- e(X).
    ?- wrap(Y).
  )";
  EXPECT_EQ(Answers(prog, "e(1). e(2)."),
            (std::vector<std::string>{"(f(1))", "(f(2))"}));
}

TEST(SemiNaiveTest, EqualBuiltinFiltersAndBinds) {
  const char prog[] = R"(
    p(X, Y) :- e(X), equal(X, Y).
    ?- p(X, Y).
  )";
  EXPECT_EQ(Answers(prog, "e(1). e(2)."),
            (std::vector<std::string>{"(1, 1)", "(2, 2)"}));
}

TEST(SemiNaiveTest, EqualBuiltinAgainstConstant) {
  const char prog[] = R"(
    p(X) :- e(X), equal(X, 2).
    ?- p(X).
  )";
  EXPECT_EQ(Answers(prog, "e(1). e(2)."), (std::vector<std::string>{"(2)"}));
}

TEST(SemiNaiveTest, AffineBuiltinForward) {
  const char prog[] = R"(
    shifted(Z) :- e(X), affine(X, 2, 1, Z).
    ?- shifted(Z).
  )";
  EXPECT_EQ(Answers(prog, "e(1). e(2)."),
            (std::vector<std::string>{"(3)", "(5)"}));
}

TEST(SemiNaiveTest, AffineBuiltinBackward) {
  // Solve X from Z: Z = X + 1, i.e. X = Z - 1.
  const char prog[] = R"(
    prev(X) :- e(Z), affine(X, 1, 1, Z).
    ?- prev(X).
  )";
  EXPECT_EQ(Answers(prog, "e(5). e(9)."),
            (std::vector<std::string>{"(4)", "(8)"}));
}

TEST(SemiNaiveTest, AffineBackwardRespectsDivisibility) {
  // Z = 2X: odd Z has no preimage.
  const char prog[] = R"(
    half(X) :- e(Z), affine(X, 2, 0, Z).
    ?- half(X).
  )";
  EXPECT_EQ(Answers(prog, "e(4). e(5)."), (std::vector<std::string>{"(2)"}));
}

TEST(SemiNaiveTest, QueryWithCompoundPattern) {
  const char prog[] = R"(
    m([1, 2]).
    m(T) :- m([H | T]).
    ?- m([X | T]).
  )";
  // Rows bind (X, T) for list-shaped answers only.
  EXPECT_EQ(Answers(prog, ""),
            (std::vector<std::string>{"(1, [2])", "(2, [])"}));
}

TEST(ProvenanceTest, DerivationTreeForChain) {
  ast::Program p = P(kTc);
  Database db;
  AddFacts(&db, "e(1, 2). e(2, 3).");
  DerivationEdgeStore store(test::kUnboundedEdges);
  auto result = exec::EvaluateParallel(p, &db, /*pool=*/nullptr, {},
                                       test::RecordDerivations(p, &store));
  ASSERT_TRUE(result.ok());

  FactKey t13{"t", {db.store().InternInt(1), db.store().InternInt(3)}};
  ASSERT_NE(store.FindFact(t13.predicate, t13.row.data(), t13.row.size()),
            DerivationEdgeStore::kNoFact);
  DerivationTree tree = BuildDerivationTree(store, t13);
  // t(1,3) via rule 1 from e(1,2) and t(2,3); t(2,3) via rule 0 from e(2,3).
  EXPECT_EQ(tree.rule_index, 1);
  EXPECT_EQ(tree.Height(), 3u);
  ASSERT_EQ(tree.children.size(), 2u);
  EXPECT_EQ(tree.children[0].fact.predicate, "e");
  EXPECT_EQ(tree.children[0].rule_index, -1);  // EDB leaf
  EXPECT_EQ(tree.children[1].fact.predicate, "t");
  EXPECT_EQ(tree.children[1].rule_index, 0);
  std::string rendered = DerivationTreeToString(tree, db.store());
  EXPECT_NE(rendered.find("t(1, 3)"), std::string::npos);
  EXPECT_NE(rendered.find("e(2, 3)"), std::string::npos);
}

TEST(ProvenanceTest, HeightMatchesDefinition21) {
  // A single-node tree (EDB fact) has height 1, per Definition 2.1.
  DerivationEdgeStore store(test::kUnboundedEdges);
  DerivationTree leaf = BuildDerivationTree(store, FactKey{"e", {0, 1}});
  EXPECT_EQ(leaf.Height(), 1u);
  EXPECT_EQ(leaf.NodeCount(), 1u);
}

TEST(ExtractAnswersTest, EdbQueryWorks) {
  ast::Program p = P("t(X) :- e(X, X). ?- e(1, Y).");
  Database db;
  AddFacts(&db, "e(1, 2). e(1, 3). e(2, 2).");
  auto result = Evaluate(p, &db);
  ASSERT_TRUE(result.ok());
  auto answers = ExtractAnswers(A("e(1, Y)"), &result.value(), &db);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 2u);
}

TEST(ExtractAnswersTest, UnknownPredicateGivesEmpty) {
  ast::Program p = P("t(X) :- e(X). ?- t(X).");
  Database db;
  auto result = Evaluate(p, &db);
  ASSERT_TRUE(result.ok());
  auto answers = ExtractAnswers(A("nosuch(Y)"), &result.value(), &db);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(answers->rows.empty());
}

// ---- Extraction oracle ------------------------------------------------------
//
// ExtractAnswersFrom against an independent reference: unify the query with
// every row as an AST atom and collect the bindings into a std::set, whose
// iteration order is the answer order (std::vector<ValueId>::operator<).

std::vector<std::vector<ValueId>> ReferenceAnswers(const ast::Atom& query,
                                                   const Relation* rel,
                                                   ValueStore* store) {
  if (rel == nullptr) return {};
  std::set<std::vector<ValueId>> out;
  const std::vector<std::string> vars = query.DistinctVars();
  for (size_t r = 0; r < rel->size(); ++r) {
    const ValueId* row = rel->row(r);
    std::vector<ast::Term> cols;
    for (size_t c = 0; c < rel->arity(); ++c) {
      cols.push_back(store->ToTerm(row[c]));
    }
    ast::Substitution subst;
    if (!ast::UnifyAtoms(query, ast::Atom(query.predicate(), cols), &subst)) {
      continue;
    }
    std::vector<ValueId> answer;
    for (const std::string& v : vars) {
      auto id = store->FromTerm(subst.DeepApply(ast::Term::Var(v)));
      EXPECT_TRUE(id.ok());
      answer.push_back(id.ok() ? *id : kInvalidValue);
    }
    out.insert(std::move(answer));
  }
  return {out.begin(), out.end()};
}

// The query shapes the oracle runs on a relation of `arity`: every argument
// a distinct variable (named in and out of column order, and anonymous), a
// repeated variable, a constant, a compound pattern, and fully ground.
// `c0` is a column-0 value that occurs in some rows.
std::vector<std::string> QueryShapes(size_t arity, const std::string& c0) {
  std::vector<std::string> vars, rev, anon;
  for (size_t c = 0; c < arity; ++c) {
    vars.push_back("V" + std::to_string(c));
    rev.push_back("V" + std::to_string(arity - 1 - c));
    anon.push_back("_");
  }
  auto atom = [](const std::vector<std::string>& args) {
    std::string s = "t";
    for (size_t i = 0; i < args.size(); ++i) {
      s += (i == 0 ? "(" : ", ") + args[i];
    }
    return args.empty() ? s : s + ")";
  };
  std::vector<std::string> shapes = {atom(vars)};
  if (arity == 0) return shapes;
  shapes.push_back(atom(rev));
  shapes.push_back(atom(anon));
  std::vector<std::string> args = vars;
  args[0] = "_";
  shapes.push_back(atom(args));
  args = vars;
  args[0] = c0;
  shapes.push_back(atom(args));
  args[0] = "f(X, 3)";
  shapes.push_back(atom(args));
  args[0] = "f(X, X)";
  shapes.push_back(atom(args));
  if (arity >= 2) {
    args = vars;
    args[arity - 1] = "V0";
    shapes.push_back(atom(args));  // t(V0, ..., V0)
    args = vars;
    args[0] = args[arity - 1] = c0;
    shapes.push_back(atom(args));
  }
  return shapes;
}

class ExtractOracleTest : public ::testing::Test {
 protected:
  // Interns more than 65,536 ints so ids use three bytes, plus f(i, 3) and
  // f(i, i) compounds for the pattern queries.
  void SetUp() override {
    for (int64_t i = 0; i < 70'000; ++i) ints_.push_back(store_.InternInt(i));
    for (int64_t i = 0; i < 50; ++i) {
      compounds_.push_back(store_.InternApp("f", {ints_[i], ints_[3]}));
      compounds_.push_back(store_.InternApp("f", {ints_[i], ints_[i]}));
    }
    constant_ = ints_[66'000];
  }

  // `rows` random rows: column 0 from 40 hot ints and the compounds, column
  // 1 the same id in every row when arity >= 3, the last column a copy of
  // column 0 in a fifth of the rows, everything else anywhere in the store.
  void Fill(Relation* rel, size_t rows, uint32_t seed) {
    std::mt19937 rng(seed);
    const size_t arity = rel->arity();
    std::vector<ValueId> row(arity);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t c = 0; c < arity; ++c) {
        if (c == 0) {
          row[c] = rng() % 4 == 0 ? compounds_[rng() % compounds_.size()]
                                  : ints_[(rng() % 40) * 1700];
        } else if (c == 1 && arity >= 3) {
          row[c] = constant_;
        } else {
          row[c] = static_cast<ValueId>(rng() % store_.size());
        }
      }
      if (arity >= 2 && rng() % 5 == 0) row[arity - 1] = row[0];
      rel->Insert(row);
    }
  }

  void ExpectMatchesOracle(Relation* rel, bool shared) {
    const std::string c0 = store_.ToString(ints_[1700]);
    for (const std::string& text : QueryShapes(rel->arity(), c0)) {
      SCOPED_TRACE(text);
      ast::Atom query = test::A(text);
      auto got = ExtractAnswersFrom(query, rel, &store_, shared);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->vars, query.DistinctVars());
      EXPECT_TRUE(RowsAre(got->rows, ReferenceAnswers(query, rel, &store_)));
    }
  }

  ValueStore store_;
  std::vector<ValueId> ints_;
  std::vector<ValueId> compounds_;
  ValueId constant_ = kInvalidValue;
};

TEST_F(ExtractOracleTest, FlatShardedAndFrozenRelations) {
  for (size_t arity = 0; arity <= 4; ++arity) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("arity " + std::to_string(arity) + ", " +
                   std::to_string(shards) + " shards");
      Relation rel(arity, StorageOptions{shards, {}});
      Fill(&rel, 3000, static_cast<uint32_t>(arity * 10 + shards));
      ExpectMatchesOracle(&rel, /*shared=*/false);
      std::shared_ptr<Relation> frozen = rel.FrozenCopy();
      ExpectMatchesOracle(frozen.get(), /*shared=*/true);
    }
  }
}

TEST_F(ExtractOracleTest, EmptyAndZeroAryRelations) {
  Relation empty(2);
  ExpectMatchesOracle(&empty, false);
  Relation prop(0);
  ExpectMatchesOracle(&prop, false);  // no row: no answer
  prop.Insert(std::vector<ValueId>{});
  auto got = ExtractAnswersFrom(test::A("t"), &prop, &store_, false);
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE(RowsAre(got->rows, std::vector<std::vector<ValueId>>(1)));
}

TEST_F(ExtractOracleTest, MoreThan65536DistinctIds) {
  // Column 0 takes every interned id once, so the sort runs on all three
  // low bytes of it.
  std::vector<ValueId> ids(store_.size());
  for (size_t i = 0; i < ids.size(); ++i) ids[i] = static_cast<ValueId>(i);
  std::shuffle(ids.begin(), ids.end(), std::mt19937(7));
  Relation rel(2, StorageOptions{4, {}});
  for (size_t i = 0; i < ids.size(); ++i) {
    rel.Insert(std::vector<ValueId>{ids[i], ints_[i % 300]});
  }
  ASSERT_GT(rel.size(), 65'536u);
  for (const char* text : {"t(X, Y)", "t(Y, X)", "t(X, 7)"}) {
    SCOPED_TRACE(text);
    ast::Atom query = test::A(text);
    auto got = ExtractAnswersFrom(query, &rel, &store_, false);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(RowsAre(got->rows, ReferenceAnswers(query, &rel, &store_)));
  }
}

TEST_F(ExtractOracleTest, PageBackedRelation) {
  // Rows of a page-backed relation come through a per-thread copy-out ring.
  const std::string dir =
      (std::filesystem::temp_directory_path() / "factlog_extract_oracle")
          .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  {
    auto space = std::make_shared<storage::TableSpace>(/*frame_budget=*/8);
    ASSERT_TRUE(space->file.Open(dir + "/pages.db").ok());
    for (size_t shards : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE(std::to_string(shards) + " shards");
      Relation rel(3, StorageOptions{shards, {}});
      Fill(&rel, 5000, 99);
      ASSERT_TRUE(rel.AttachPagedStore(space));
      ASSERT_TRUE(rel.is_paged());
      ExpectMatchesOracle(&rel, /*shared=*/false);
    }
  }
  std::filesystem::remove_all(dir);
}

TEST_F(ExtractOracleTest, UnknownPredicateHasNoRows) {
  auto got = ExtractAnswersFrom(test::A("t(X, Y)"), nullptr, &store_, false);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->vars, (std::vector<std::string>{"X", "Y"}));
  EXPECT_TRUE(got->rows.empty());
}

TEST(SortedUniqueRowsTest, MatchesStdSetOrderOnSignedIds) {
  // Negative ids never come out of a ValueStore, but the order is defined
  // over signed ValueId: the sign flip must put them first.
  std::mt19937 rng(5);
  for (size_t width = 0; width <= 4; ++width) {
    for (size_t n : {size_t{0}, size_t{1}, size_t{2}, size_t{700}}) {
      std::vector<ValueId> cells;
      std::set<std::vector<ValueId>> want;
      for (size_t r = 0; r < n; ++r) {
        std::vector<ValueId> row;
        for (size_t c = 0; c < width; ++c) {
          // Column 1 is constant; the others mix small, multi-byte and
          // negative ids with plenty of duplicates.
          const ValueId pick[] = {0, 1, 255, 256, 70'000, -1, -300,
                                  std::numeric_limits<ValueId>::min(),
                                  std::numeric_limits<ValueId>::max(),
                                  static_cast<ValueId>(rng() % 3)};
          row.push_back(c == 1 ? 4242 : pick[rng() % 10]);
        }
        cells.insert(cells.end(), row.begin(), row.end());
        want.insert(row);
      }
      SCOPED_TRACE("width " + std::to_string(width) + ", n " +
                   std::to_string(n));
      const RowTable got = SortedUniqueRows(cells, width, n);
      EXPECT_EQ(got.width(), width);
      EXPECT_TRUE(RowsAre(
          got, std::vector<std::vector<ValueId>>(want.begin(), want.end())));
    }
  }
}

}  // namespace
}  // namespace factlog::eval
