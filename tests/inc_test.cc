// Tests for incremental view maintenance (src/inc): the interleaved
// insert/delete oracle sweep over the shared corpus at every shard × thread
// combination and at both deletion paths (edge-store cascade and SCC
// re-evaluation), targeted counting and recursive-deletion cases, and the
// api::Engine view integration.

#include "inc/incremental.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <map>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "eval/seminaive.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"

namespace factlog::inc {
namespace {

using test::A;
using test::P;

std::set<std::vector<eval::ValueId>> RowSet(const eval::Relation& rel) {
  std::set<std::vector<eval::ValueId>> out;
  for (size_t r = 0; r < rel.size(); ++r) {
    const eval::ValueId* row = rel.row(r);
    out.insert(std::vector<eval::ValueId>(row, row + rel.arity()));
  }
  return out;
}

ast::Atom Edge(int64_t a, int64_t b) {
  return ast::Atom("e", {ast::Term::Int(a), ast::Term::Int(b)});
}

// The oracle: naive T_P evaluation. Views maintain their recursive SCCs on
// the semi-naive engine eval::Evaluate runs by default, so that engine
// cannot be their reference.
eval::EvalOptions NaiveOptions() {
  eval::EvalOptions opts;
  opts.strategy = eval::Strategy::kNaive;
  return opts;
}

// Asserts the view's maintained fact sets are identical, predicate by
// predicate, to a naive from-scratch evaluation of the plan's program against
// the engine's current EDB.
void ExpectMatchesOracle(api::Engine* engine, const ast::Program& plan_program,
                         const MaterializedView* view,
                         const std::string& context) {
  auto oracle = eval::Evaluate(plan_program, &engine->db(), NaiveOptions());
  ASSERT_TRUE(oracle.ok()) << context << ": " << oracle.status().ToString();
  ASSERT_NE(view, nullptr) << context;
  EXPECT_FALSE(view->poisoned()) << context;
  for (const auto& [pred, rel] : oracle->idb()) {
    const eval::Relation* maintained = view->Find(pred);
    ASSERT_NE(maintained, nullptr) << context << " missing " << pred;
    EXPECT_EQ(RowSet(*maintained), RowSet(*rel))
        << context << " diverged on " << pred;
  }
  EXPECT_EQ(view->idb().size(), oracle->idb().size()) << context;
}

// The ViewStats counters that do not depend on the order rows reach a sink.
// Edge-store ranks do, and with them the cascade's overdeleted, rederived
// and cone_* counts, so those are left out.
std::map<std::string, uint64_t> OrderFreeCounters(const ViewStats& s) {
  return {{"idb_inserted", s.idb_inserted},
          {"idb_deleted", s.idb_deleted},
          {"delta_passes", s.delta_passes},
          {"support_updates", s.support_updates},
          {"edges_added", s.edges_added},
          {"edges_removed", s.edges_removed}};
}

// ---- Oracle sweep: random interleaved inserts and deletes ------------------
//
// For every corpus program × workload and every shard × thread combination,
// a seeded random sequence of edge insertions and deletions is applied
// through the engine; after every update the maintained fact sets must match
// naive re-evaluation exactly. Each combination runs twice: with the
// default edge budget (deletions cascade along derivation edges) and with a
// budget of 1, which drops the store at Materialize so every recursive
// deletion re-derives its SCC. All nine combinations replay one update
// sequence per program × workload, and must agree on every order-free
// counter: views maintain inline, so the EDB's layout and the engine's pool
// change nothing about the work.

class IncSweepTest : public ::testing::TestWithParam<int> {};

TEST_P(IncSweepTest, InterleavedUpdatesMatchOracle) {
  const test::SweepProgram& prog = test::kSweepPrograms[GetParam()];
  const size_t combos[][2] = {{1, 1}, {1, 2}, {1, 8}, {2, 1}, {2, 2},
                              {2, 8}, {8, 1}, {8, 2}, {8, 8}};
  const uint64_t budgets[] = {api::EngineOptions{}.inc_max_derivation_edges,
                              1};
  for (int w = 0; w < test::kNumSweepWorkloads; ++w) {
    const test::SweepWorkload& workload = test::kSweepWorkloads[w];
    for (const uint64_t budget : budgets) {
      std::map<std::string, uint64_t> reference;
      for (const auto& combo : combos) {
        const size_t shards = combo[0];
        const size_t threads = combo[1];
        api::EngineOptions options;
        options.num_shards = shards;
        options.num_threads = threads;
        options.inc_max_derivation_edges = budget;
        api::Engine engine(options);
        workload.make(&engine.db());

        ast::Program program = P(prog.text);
        ast::Atom query = A(prog.query);
        auto plan = engine.Compile(program, query);
        ASSERT_TRUE(plan.ok())
            << prog.name << ": " << plan.status().ToString();
        auto handle = engine.Materialize(program, query);
        ASSERT_TRUE(handle.ok())
            << prog.name << ": " << handle.status().ToString();
        const MaterializedView* view = engine.view(*handle);
        // Any non-empty graph records more than one edge at Materialize.
        if (budget == 1 && std::string(workload.name) != "empty") {
          EXPECT_FALSE(view->edge_guided()) << workload.name;
        }

        // The update universe: a fixed pool of edges over the workload's node
        // range, so inserts sometimes duplicate and deletes sometimes miss.
        std::minstd_rand rng(1234 + GetParam() * 97 + w * 13);
        auto random_edge = [&rng]() {
          int64_t a = 1 + static_cast<int64_t>(rng() % 26);
          int64_t b = 1 + static_cast<int64_t>(rng() % 26);
          return Edge(a, b);
        };
        for (int op = 0; op < 30; ++op) {
          ast::Atom edge = random_edge();
          Status st;
          bool deleted = (rng() % 3) == 0;  // insert-leaning mix
          if (deleted) {
            st = engine.RemoveFact(edge);
          } else {
            st = engine.AddFact(edge);
          }
          ASSERT_TRUE(st.ok()) << st.ToString();
          std::string context = std::string(prog.name) + "/" + workload.name +
                                " budget=" + std::to_string(budget) +
                                " shards=" + std::to_string(shards) +
                                " threads=" + std::to_string(threads) +
                                " op=" + std::to_string(op) +
                                (deleted ? " -" : " +") + edge.ToString();
          ExpectMatchesOracle(&engine, (*plan)->program, view, context);
        }

        // Answers served from the view equal a naive from-scratch query.
        api::QueryStats qstats;
        auto from_view = engine.Query(program, query, core::Strategy::kAuto,
                                      &qstats);
        ASSERT_TRUE(from_view.ok());
        EXPECT_TRUE(qstats.view_hit);
        auto fresh = eval::EvaluateQuery((*plan)->program, (*plan)->query,
                                         &engine.db(), NaiveOptions());
        ASSERT_TRUE(fresh.ok());
        EXPECT_EQ(from_view->rows, fresh->rows)
            << prog.name << "/" << workload.name << " budget=" << budget
            << " shards=" << shards << " threads=" << threads;

        if (reference.empty()) reference = OrderFreeCounters(view->stats());
        EXPECT_EQ(OrderFreeCounters(view->stats()), reference)
            << prog.name << "/" << workload.name << " budget=" << budget
            << " shards=" << shards << " threads=" << threads
            << " vs shards=1 threads=1";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllPrograms, IncSweepTest,
                         ::testing::Range(0, test::kNumSweepPrograms),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return std::string(
                               test::kSweepPrograms[info.param].name);
                         });

// ---- Targeted counting cases ------------------------------------------------

// Drives a MaterializedView directly, mimicking the engine's ordering
// contract (insert: propagate then apply; delete: apply then propagate).
struct Harness {
  eval::Database db;
  std::unique_ptr<MaterializedView> view;

  explicit Harness(eval::StorageOptions storage = {}) : db(storage) {}

  void Build(const std::string& program_text,
             const IncrementalOptions& opts = {}) {
    auto built = MaterializedView::Build(P(program_text), &db, opts);
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    view = std::move(built).value();
  }

  // Propagates the insertion of `facts` (one batch into their common
  // predicate) and, when that succeeds, adds them to the EDB.
  Status TryInsert(const std::vector<ast::Atom>& facts) {
    const ast::Atom& first = facts.front();
    eval::Relation& rel = db.GetOrCreate(first.predicate(), first.arity());
    eval::Relation delta(first.arity(), rel.storage_options());
    for (const ast::Atom& fact : facts) {
      auto row = db.InternRow(fact);
      if (!row.ok()) return row.status();
      if (!rel.Contains(row->data())) delta.Insert(*row);
    }
    FACTLOG_RETURN_IF_ERROR(view->ApplyInsert(first.predicate(), delta));
    rel.Absorb(delta);
    return Status::OK();
  }

  // Erases `fact` from the EDB and propagates the deletion.
  Status TryRemove(const ast::Atom& fact) {
    auto row = db.InternRow(fact);
    if (!row.ok()) return row.status();
    eval::Relation* rel = db.Find(fact.predicate());
    if (rel == nullptr || !rel->Erase(row->data())) return Status::OK();
    rel->SyncShards();
    eval::Relation delta(fact.arity(), rel->storage_options());
    delta.Insert(*row);
    return view->ApplyDelete(fact.predicate(), delta);
  }

  void Insert(const ast::Atom& fact) {
    auto row = db.InternRow(fact);
    ASSERT_TRUE(row.ok());
    eval::Relation& rel = db.GetOrCreate(fact.predicate(), fact.arity());
    if (rel.Contains(row->data())) return;
    eval::Relation delta(fact.arity(), rel.storage_options());
    delta.Insert(*row);
    Status st = view->ApplyInsert(fact.predicate(), delta);
    ASSERT_TRUE(st.ok()) << st.ToString();
    rel.Insert(*row);
  }

  void Remove(const ast::Atom& fact) {
    auto row = db.InternRow(fact);
    ASSERT_TRUE(row.ok());
    eval::Relation* rel = db.Find(fact.predicate());
    if (rel == nullptr || !rel->Contains(row->data())) return;
    rel->Erase(row->data());
    rel->SyncShards();
    eval::Relation delta(fact.arity(), rel->storage_options());
    delta.Insert(*row);
    Status st = view->ApplyDelete(fact.predicate(), delta);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }

  int64_t Support(const std::string& pred, const ast::Atom& fact) {
    auto row = db.InternRow(fact);
    EXPECT_TRUE(row.ok());
    const eval::Relation* rel = view->Find(pred);
    EXPECT_NE(rel, nullptr);
    return rel->SupportOf(row->data());
  }
};

TEST(IncCountingTest, SupportCountsSurviveAlternativeDerivations) {
  Harness h;
  // Two-hop: h(1, 4) has two derivations (via 2 and via 3).
  h.db.AddPair("e", 1, 2);
  h.db.AddPair("e", 2, 4);
  h.db.AddPair("e", 1, 3);
  h.db.AddPair("e", 3, 4);
  h.Build("h(X, Y) :- e(X, W), e(W, Y).");
  ast::Atom h14("h", {ast::Term::Int(1), ast::Term::Int(4)});
  EXPECT_EQ(h.Support("h", h14), 2);

  h.Remove(Edge(1, 2));  // one derivation lost, the fact lives on
  EXPECT_EQ(h.Support("h", h14), 1);
  EXPECT_EQ(h.view->stats().idb_deleted, 0u);
  h.Remove(Edge(1, 3));  // last derivation gone
  EXPECT_EQ(h.Support("h", h14), 0);
  EXPECT_FALSE(h.view->Find("h")->Contains(
      h.db.InternRow(h14)->data()));

  h.Insert(Edge(1, 2));  // re-derive through the restored edge
  EXPECT_EQ(h.Support("h", h14), 1);
}

// ---- Targeted recursive-deletion cases -------------------------------------

TEST(IncRecursiveTest, DeleteOnOnlyDerivationPathRemovesDownstream) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 3). e(3, 4).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  auto handle = engine.Materialize(text);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  ASSERT_TRUE(engine.RemoveFact(Edge(2, 3)).ok());
  auto answers = engine.Query(text);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 1u);  // only t(1, 2) survives

  auto stats = engine.ViewStatsFor(*handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->overdeleted, 0u);
}

TEST(IncRecursiveTest, DeleteOneOfTwoPathsPrunesAlternate) {
  api::Engine engine;
  // Diamond: 1 -> {2, 3} -> 4; t(1, 4) has two derivation paths.
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 4). e(1, 3). e(3, 4).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  auto handle = engine.Materialize(text);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  ASSERT_TRUE(engine.RemoveFact(Edge(1, 2)).ok());
  auto answers = engine.Query(text);
  ASSERT_TRUE(answers.ok());
  std::set<int64_t> ys;
  for (const auto& row : answers->rows) {
    ys.insert(engine.db().store().int_value(row[0]));
  }
  EXPECT_EQ(ys, (std::set<int64_t>{3, 4}));  // 4 survives via 3

  // The slice path never over-deletes the survivor: the fact with an
  // alternate derivation is pruned from the cone instead of being deleted
  // and re-derived.
  auto stats = engine.ViewStatsFor(*handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->edge_store_active);
  EXPECT_GT(stats->cone_input, 0u);
  EXPECT_GT(stats->cone_pruned, 0u);
  EXPECT_EQ(stats->rederived, 0u);
}

TEST(IncRecursiveTest, InsertReconnectsComponent) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(3, 4). e(4, 5).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  ASSERT_TRUE(engine.Materialize(text).ok());

  ASSERT_TRUE(engine.AddFact(Edge(2, 3)).ok());  // bridges the components
  auto answers = engine.Query(text);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 4u);  // 2, 3, 4, 5
}

// ---- Edge-guided slice deletion ---------------------------------------------

// Dense graph: chain 1 -> 2 -> ... -> N plus skip edges i -> i+2, so every
// node past the second has two incoming edges and most reachability facts
// have alternate derivations. Random single-edge deletes must (a) stay
// fact-for-fact equal to the from-scratch oracle and (b) touch a deletion
// cone strictly smaller than the reachable set — the whole point of slicing
// along recorded derivation edges instead of over-deleting DRed-style.
TEST(IncSliceTest, DenseGraphRandomDeletesMatchOracle) {
  constexpr int64_t kNodes = 14;
  const size_t combos[][2] = {{1, 1}, {1, 2}, {1, 8}, {2, 1}, {2, 2},
                              {2, 8}, {8, 1}, {8, 2}, {8, 8}};
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  for (const auto& combo : combos) {
    const size_t shards = combo[0];
    const size_t threads = combo[1];
    api::EngineOptions options;
    options.num_shards = shards;
    options.num_threads = threads;
    api::Engine engine(options);
    for (int64_t i = 1; i < kNodes; ++i) {
      ASSERT_TRUE(engine.AddFact(Edge(i, i + 1)).ok());
      if (i + 2 <= kNodes) {
        ASSERT_TRUE(engine.AddFact(Edge(i, i + 2)).ok());
      }
    }

    ast::Program program = P(text);
    ast::Atom query = A("t(1, Y)");
    auto plan = engine.Compile(program, query);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    auto handle = engine.Materialize(program, query);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    const MaterializedView* view = engine.view(*handle);
    ASSERT_NE(view, nullptr);
    EXPECT_TRUE(view->edge_guided());

    std::minstd_rand rng(7 + static_cast<unsigned>(shards * 8 + threads));
    uint64_t pruned_total = 0;
    for (int op = 0; op < 6; ++op) {
      // Deletes start at node 3 so part of the reachable set always stays
      // upstream of (and therefore outside) the cone.
      int64_t a = 3 + static_cast<int64_t>(rng() % (kNodes - 3));
      int64_t b = a + 1 + static_cast<int64_t>(rng() % 2);
      if (b > kNodes) b = a + 1;
      auto before = engine.AnswerFromView(*handle);
      ASSERT_TRUE(before.ok());
      const uint64_t reachable_before = before->rows.size();
      ASSERT_TRUE(engine.RemoveFact(Edge(a, b)).ok());
      std::string context = "shards=" + std::to_string(shards) +
                            " threads=" + std::to_string(threads) +
                            " op=" + std::to_string(op) + " -e(" +
                            std::to_string(a) + ", " + std::to_string(b) + ")";
      ExpectMatchesOracle(&engine, (*plan)->program, view, context);

      auto stats = engine.ViewStatsFor(*handle);
      ASSERT_TRUE(stats.ok());
      if (stats->last_update.cone_input > 0) {
        EXPECT_LT(stats->last_update.cone_input, reachable_before) << context;
      }
      pruned_total += stats->last_update.cone_pruned;
    }
    // The skip edges guarantee alternate derivations, so across the sweep at
    // least one cone fact must have been pruned as still-supported.
    EXPECT_GT(pruned_total, 0u)
        << "shards=" << shards << " threads=" << threads;
  }
}

// An unsupported cycle must die even though every fact in it still has a
// derivation edge (from its cyclic peer): the slice's least-fixpoint only
// keeps facts that re-ground in surviving base facts.
TEST(IncSliceTest, UnsupportedCycleDies) {
  api::Engine engine;
  // 1 -> 2 and the cycle 2 -> 3 -> 4 -> 2; cutting e(1, 2) leaves the cycle
  // with mutual but ungrounded support.
  ASSERT_TRUE(
      engine.LoadFacts("e(1, 2). e(2, 3). e(3, 4). e(4, 2).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  ast::Program program = P(text);
  ast::Atom query = A("t(1, Y)");
  auto plan = engine.Compile(program, query);
  ASSERT_TRUE(plan.ok());
  auto handle = engine.Materialize(program, query);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const MaterializedView* view = engine.view(*handle);

  ASSERT_TRUE(engine.RemoveFact(Edge(1, 2)).ok());
  ExpectMatchesOracle(&engine, (*plan)->program, view, "-e(1, 2)");
  auto answers = engine.AnswerFromView(*handle);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 0u);  // nothing reachable from 1 anymore

  auto stats = engine.ViewStatsFor(*handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->last_update.overdeleted, 3u);  // the whole cycle died
  EXPECT_EQ(stats->last_update.cone_pruned, 0u);
}

// When the derivation-edge budget overflows, the store is dropped for good
// and deletion falls back to re-deriving the SCC — results must stay exact.
TEST(IncSliceTest, BudgetOverflowFallsBackToReevaluation) {
  api::EngineOptions options;
  options.inc_max_derivation_edges = 1;  // overflows during the initial build
  api::Engine engine(options);
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 4). e(1, 3). e(3, 4).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  ast::Program program = P(text);
  ast::Atom query = A("t(1, Y)");
  auto plan = engine.Compile(program, query);
  ASSERT_TRUE(plan.ok());
  auto handle = engine.Materialize(program, query);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const MaterializedView* view = engine.view(*handle);
  EXPECT_FALSE(view->edge_guided());
  const uint64_t facts_before = view->total_facts();

  ASSERT_TRUE(engine.RemoveFact(Edge(1, 2)).ok());
  ExpectMatchesOracle(&engine, (*plan)->program, view, "-e(1, 2)");

  auto stats = engine.ViewStatsFor(*handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_FALSE(stats->edge_store_active);
  EXPECT_TRUE(stats->edge_store_dropped);
  EXPECT_EQ(stats->cone_input, 0u);  // the cascade never ran
  // Re-derivation reports the net loss only: t(1, 4) survives via 3.
  EXPECT_GT(stats->last_update.idb_deleted, 0u);
  EXPECT_EQ(stats->last_update.idb_deleted,
            facts_before - view->total_facts());
}

// Without an edge store a deletion re-derives the SCC into the SAME relation
// objects: FrozenAnswer caches its snapshot by Relation::version(), which a
// freshly constructed relation could reuse, so swapping objects could serve
// a stale snapshot.
TEST(IncSliceTest, FallbackReevaluatesInPlace) {
  Harness h;
  h.db.AddPair("e", 1, 2);
  h.db.AddPair("e", 2, 3);
  h.db.AddPair("e", 3, 4);
  IncrementalOptions opts;
  opts.max_derivation_edges = 0;  // no edge store: always the fallback
  h.Build("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).",
          opts);
  ASSERT_FALSE(h.view->edge_guided());
  const eval::Relation* t = h.view->Find("t");
  std::shared_ptr<eval::Relation> before = h.view->FrozenAnswer();
  ASSERT_NE(before, nullptr);
  EXPECT_EQ(before->size(), 6u);

  h.Remove(Edge(2, 3));
  EXPECT_EQ(h.view->Find("t"), t) << "relations must be cleared in place";
  std::shared_ptr<eval::Relation> after = h.view->FrozenAnswer();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_EQ(RowSet(*after), RowSet(*t));
  EXPECT_EQ(t->size(), 2u);  // t(1, 2) and t(3, 4)
  EXPECT_EQ(h.view->stats().last_update.idb_deleted, 4u);
}

// ---- Budgets ----------------------------------------------------------------
//
// A view that outgrows eval.max_facts, or whose SCC fixpoint needs more than
// eval.max_iterations rounds, fails with kResourceExhausted. The failure
// poisons it: its state may be half-updated, so the next update and the
// next read fail with kFailedPrecondition. Each budget is exceeded during an
// insertion with the edge store live and during a deletion without it, over
// a flat and over a 2-shard EDB.

constexpr char kLeftTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(1, Y).";

std::vector<ast::Atom> ChainEdges(int64_t from, int64_t to) {
  std::vector<ast::Atom> edges;
  for (int64_t i = from; i < to; ++i) edges.push_back(Edge(i, i + 1));
  return edges;
}

class IncBudgetTest : public ::testing::TestWithParam<size_t> {
 protected:
  IncBudgetTest() : h_(eval::StorageOptions{GetParam(), {}}) {}

  IncrementalOptions Options(uint64_t max_facts, uint64_t max_iterations,
                             uint64_t max_edges) {
    IncrementalOptions opts;
    opts.eval.max_facts = max_facts;
    opts.eval.max_iterations = max_iterations;
    opts.max_derivation_edges = max_edges;
    return opts;
  }

  void ExpectExhaustedThenPoisoned(const Status& st) {
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
    EXPECT_TRUE(h_.view->poisoned());
    EXPECT_EQ(h_.TryInsert({Edge(500, 501)}).code(),
              StatusCode::kFailedPrecondition);
    EXPECT_EQ(h_.view->Answer(A("t(1, Y)")).status().code(),
              StatusCode::kFailedPrecondition);
  }

  Harness h_;
};

TEST_P(IncBudgetTest, InsertPastFactBudget) {
  h_.db.AddPair("e", 100, 101);
  h_.Build(kLeftTc, Options(/*max_facts=*/10, 1000, uint64_t{1} << 20));
  ASSERT_TRUE(h_.view->edge_guided());
  ASSERT_TRUE(h_.TryInsert({Edge(1, 2), Edge(2, 3)}).ok());  // 4 facts
  // A chain of 6 edges closes to 21 facts.
  ExpectExhaustedThenPoisoned(h_.TryInsert(ChainEdges(3, 7)));
}

TEST_P(IncBudgetTest, InsertPastIterationBudget) {
  h_.db.AddPair("e", 100, 101);
  h_.Build(kLeftTc, Options(1000, /*max_iterations=*/4, uint64_t{1} << 20));
  ASSERT_TRUE(h_.view->edge_guided());
  ASSERT_TRUE(h_.TryInsert({Edge(1, 2)}).ok());
  // Closing a 10-edge chain takes a round per path length.
  ExpectExhaustedThenPoisoned(h_.TryInsert(ChainEdges(2, 11)));
}

TEST_P(IncBudgetTest, FallbackDeletePastFactBudget) {
  // A view restored under a tighter budget than the one its state was
  // built under: re-deriving t after a deletion exceeds it.
  h_.db.AddPair("e", 100, 101);
  h_.Build(kLeftTc, Options(1000, 1000, 0));
  ASSERT_TRUE(h_.TryInsert(ChainEdges(1, 7)).ok());  // 21 + 1 facts
  auto restored = MaterializedView::Restore(
      P(kLeftTc), &h_.db, Options(/*max_facts=*/12, 1000, 0),
      h_.view->DumpState());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  h_.view = std::move(restored).value();
  ASSERT_FALSE(h_.view->edge_guided());
  // The re-derived chain 1..6 alone holds 15 facts.
  ExpectExhaustedThenPoisoned(h_.TryRemove(Edge(6, 7)));
}

TEST_P(IncBudgetTest, FallbackDeletePastIterationBudget) {
  for (int64_t i = 1; i < 3; ++i) h_.db.AddPair("e", i, i + 1);
  h_.Build(kLeftTc, Options(1000, /*max_iterations=*/5, 0));
  ASSERT_FALSE(h_.view->edge_guided());
  // Appending one edge at a time stays within a few rounds per insertion.
  for (int64_t i = 3; i < 10; ++i) {
    ASSERT_TRUE(h_.TryInsert({Edge(i, i + 1)}).ok()) << i;
  }
  // Re-deriving the 8-edge chain 1..9 from scratch takes a round per path
  // length.
  ExpectExhaustedThenPoisoned(h_.TryRemove(Edge(9, 10)));
}

INSTANTIATE_TEST_SUITE_P(FlatAndShardedEdb, IncBudgetTest,
                         ::testing::Values(size_t{1}, size_t{2}),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return info.param == 1 ? std::string("Flat")
                                                  : std::string("Shards2");
                         });

// ---- Per-update stats snapshot ----------------------------------------------

TEST(IncStatsTest, LastUpdateSnapshotsOnlyTheMostRecentDelta) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  auto handle = engine.Materialize(text);
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();

  ASSERT_TRUE(engine.AddFact(Edge(2, 3)).ok());
  auto stats = engine.ViewStatsFor(*handle);
  ASSERT_TRUE(stats.ok());
  const uint64_t first_inserted = stats->last_update.idb_inserted;
  EXPECT_GT(first_inserted, 0u);
  EXPECT_EQ(stats->idb_inserted, first_inserted);

  ASSERT_TRUE(engine.AddFact(Edge(3, 4)).ok());
  stats = engine.ViewStatsFor(*handle);
  ASSERT_TRUE(stats.ok());
  // Cumulative counters keep growing; the snapshot covers only the last call.
  EXPECT_GT(stats->idb_inserted, first_inserted);
  EXPECT_EQ(stats->last_update.idb_inserted,
            stats->idb_inserted - first_inserted);

  ASSERT_TRUE(engine.RemoveFact(Edge(1, 2)).ok());
  stats = engine.ViewStatsFor(*handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->last_update.idb_inserted, 0u);
  EXPECT_GT(stats->last_update.idb_deleted, 0u);
  EXPECT_GT(stats->idb_inserted, 0u);  // cumulative history is untouched
}

// ---- Checkpoint restore ----------------------------------------------------

// Restore reads a dump the persistence layer decoded from disk. Each dump
// below breaks one property a well-formed one has; Restore must reject it
// with kInvalidArgument before reading past a buffer (ASan checks that) or
// restoring state later deltas would corrupt.
TEST(IncRestoreTest, MalformedDumpIsRejected) {
  Harness h;
  h.db.AddPair("e", 1, 2);
  h.db.AddPair("e", 2, 1);
  h.db.AddPair("e", 2, 3);
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). "
      "back(X) :- t(X, Y), e(Y, X). ?- t(1, Y).";
  h.Build(text);
  const std::vector<storage::ViewPredDump> good = h.view->DumpState();
  ASSERT_EQ(good.size(), 2u);
  const size_t back = good[0].pred == "back" ? 0 : 1;
  const size_t t = 1 - back;
  ASSERT_TRUE(good[back].counts_enabled);
  ASSERT_FALSE(good[t].counts_enabled);
  ASSERT_GT(good[t].num_rows, 0u);

  auto restored = MaterializedView::Restore(P(text), &h.db, {}, good);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(RowSet(*(*restored)->Find("t")), RowSet(*h.view->Find("t")));

  struct Case {
    const char* name;
    std::function<void(std::vector<storage::ViewPredDump>*)> corrupt;
  };
  const Case cases[] = {
      {"num_rows past the row buffer",
       [t](auto* d) { (*d)[t].num_rows += 1; }},
      {"row counts shorter than num_rows",
       [back](auto* d) { (*d)[back].row_counts.pop_back(); }},
      {"predicate the program does not define",
       [t](auto* d) { (*d)[t].pred = "nope"; }},
      {"arity differs from the program's",
       [t](auto* d) {
         (*d)[t].arity = 1;
         (*d)[t].num_rows = (*d)[t].rows.size();
       }},
      {"support counts on a recursive predicate",
       [t](auto* d) {
         (*d)[t].counts_enabled = true;
         (*d)[t].row_counts.assign((*d)[t].num_rows, 1);
       }},
      {"no support counts on a counting predicate",
       [back](auto* d) {
         (*d)[back].counts_enabled = false;
         (*d)[back].row_counts.clear();
       }},
      {"non-positive support count",
       [back](auto* d) { (*d)[back].row_counts[0] = 0; }},
      {"value id outside the store",
       [t](auto* d) { (*d)[t].rows[0] = 1 << 30; }},
      {"predicate listed twice", [t](auto* d) { d->push_back((*d)[t]); }},
  };
  for (const Case& c : cases) {
    std::vector<storage::ViewPredDump> dump = good;
    c.corrupt(&dump);
    auto view = MaterializedView::Restore(P(text), &h.db, {}, dump);
    ASSERT_FALSE(view.ok()) << c.name;
    EXPECT_EQ(view.status().code(), StatusCode::kInvalidArgument)
        << c.name << ": " << view.status().ToString();
  }
}

// Views maintain inline, so both a built and a restored view hold flat
// relations even over a sharded database. Both maintain the same state, and
// the frozen answer is copied only after the view changed.
TEST(IncRestoreTest, BuiltAndRestoredViewsAreFlat) {
  Harness h(eval::StorageOptions{2, {}});
  for (int64_t i = 1; i < 8; ++i) h.db.AddPair("e", i, i + 1);
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  h.Build(text);
  ASSERT_EQ(h.view->Find("t")->shard_count(), 1u);
  auto restored = MaterializedView::Restore(P(text), &h.db, {},
                                            h.view->DumpState());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  MaterializedView* rest = restored->get();
  ASSERT_EQ(rest->Find("t")->shard_count(), 1u);

  std::shared_ptr<eval::Relation> frozen = h.view->FrozenAnswer();
  ASSERT_NE(frozen, nullptr);
  EXPECT_EQ(h.view->FrozenAnswer(), frozen) << "copied without a change";

  eval::Relation* e = h.db.Find("e");
  auto apply = [&](bool insert, int64_t a, int64_t b) {
    auto row = h.db.InternRow(Edge(a, b));
    ASSERT_TRUE(row.ok());
    eval::Relation delta(2, e->storage_options());
    delta.Insert(*row);
    if (insert) {
      ASSERT_TRUE(h.view->ApplyInsert("e", delta).ok());
      ASSERT_TRUE(rest->ApplyInsert("e", delta).ok());
      e->Insert(*row);
    } else {
      e->Erase(row->data());
      e->SyncShards();
      ASSERT_TRUE(h.view->ApplyDelete("e", delta).ok());
      ASSERT_TRUE(rest->ApplyDelete("e", delta).ok());
    }
    EXPECT_EQ(RowSet(*h.view->Find("t")), RowSet(*rest->Find("t")));
  };
  apply(true, 8, 9);
  apply(true, 3, 7);
  apply(false, 4, 5);
  apply(false, 1, 2);
  EXPECT_EQ(h.view->Find("t")->shard_count(), 1u);
  EXPECT_EQ(rest->Find("t")->shard_count(), 1u);
  EXPECT_NE(h.view->FrozenAnswer(), frozen);
}

// ---- The derivation recorder -----------------------------------------------
//
// Build records a view's whole maintenance state through one derivation
// callback: an edge per instantiation of a recursive head, a support per
// instantiation of a non-recursive one. A restored view records its edge
// store through the same callback when first needed.

constexpr char kTwoSources[] =
    "p(X, Y) :- a(X, Y). p(X, Y) :- b(X, Y). "
    "q(X, Z) :- p(X, Y), p(Y, Z). ?- q(X, Z).";

std::map<std::vector<eval::ValueId>, int64_t> Supports(
    const eval::Relation& rel) {
  std::map<std::vector<eval::ValueId>, int64_t> out;
  for (size_t r = 0; r < rel.size(); ++r) {
    const eval::ValueId* row = rel.row(r);
    out[std::vector<eval::ValueId>(row, row + rel.arity())] =
        rel.SupportOf(row);
  }
  return out;
}

// Exact support counts by full enumeration of each rule: p's count is the
// number of a and b holding the row, q(X, Z)'s the number of Y joining
// p(X, Y) with p(Y, Z).
void ExpectExactTwoSourceCounts(Harness& h, const std::string& context) {
  using Row = std::vector<eval::ValueId>;
  std::map<Row, int64_t> p, q;
  for (const char* src : {"a", "b"}) {
    const eval::Relation* rel = h.db.Find(src);
    for (const Row& row : RowSet(*rel)) ++p[row];
  }
  for (const auto& [r1, c1] : p) {
    for (const auto& [r2, c2] : p) {
      if (r1[1] == r2[0]) ++q[{r1[0], r2[1]}];
    }
  }
  EXPECT_EQ(Supports(*h.view->Find("p")), p) << context;
  EXPECT_EQ(Supports(*h.view->Find("q")), q) << context;
  auto oracle = eval::Evaluate(P(kTwoSources), &h.db, NaiveOptions());
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  EXPECT_EQ(RowSet(*h.view->Find("q")), RowSet(*oracle->Find("q")))
      << context;
}

void AddTwoSourceEdb(Harness& h) {
  const int64_t a[][2] = {{1, 2}, {1, 3}, {2, 3}, {3, 4}, {2, 5}, {4, 2}};
  const int64_t b[][2] = {{1, 2}, {2, 4}, {3, 4}, {4, 1}, {5, 3}};
  for (const auto& r : a) h.db.AddPair("a", r[0], r[1]);
  for (const auto& r : b) h.db.AddPair("b", r[0], r[1]);
}

TEST(IncRecorderTest, BuildSupportCountsMatchRuleEnumeration) {
  Harness h;
  AddTwoSourceEdb(h);
  h.Build(kTwoSources);
  ASSERT_FALSE(h.view->edge_guided());  // nothing recursive
  EXPECT_EQ(h.Support("p", A("p(1, 2)")), 2);  // in both a and b
  EXPECT_EQ(h.Support("q", A("q(1, 4)")), 2);  // via 2 and via 3
  ExpectExactTwoSourceCounts(h, "build");
  const char* deletes[] = {"a(1, 2)", "b(3, 4)", "a(2, 3)", "b(1, 2)",
                           "a(3, 4)", "b(2, 4)", "b(5, 3)", "a(4, 2)"};
  for (const char* fact : deletes) {
    h.Remove(A(fact));
    ExpectExactTwoSourceCounts(h, std::string("after -") + fact);
  }
}

// A view restored over a 4-shard EDB maintains flat counted relations: its
// support counts stay exact, and its answers stay naive's, across inserts
// and deletes into both sources of p.
TEST(IncRecorderTest, RestoredCountsOverShardedEdbStayExact) {
  Harness h(eval::StorageOptions{4, {}});
  AddTwoSourceEdb(h);
  h.Build(kTwoSources);
  auto restored = MaterializedView::Restore(P(kTwoSources), &h.db, {},
                                            h.view->DumpState());
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  h.view = std::move(restored).value();
  EXPECT_EQ(h.view->Find("p")->shard_count(), 1u);
  EXPECT_EQ(h.view->Find("q")->shard_count(), 1u);
  ExpectExactTwoSourceCounts(h, "restore");
  const ast::Atom query = A("q(X, Z)");
  const std::pair<bool, const char*> updates[] = {
      {true, "a(5, 1)"},  {false, "a(1, 2)"}, {true, "b(3, 6)"},
      {false, "b(2, 4)"}, {true, "a(6, 2)"},  {false, "a(2, 3)"},
      {true, "b(1, 2)"},  {false, "b(4, 1)"}, {true, "a(1, 2)"},
      {false, "a(3, 4)"}};
  for (const auto& [insert, fact] : updates) {
    const std::string context =
        std::string(insert ? "after +" : "after -") + fact;
    if (insert) {
      h.Insert(A(fact));
    } else {
      h.Remove(A(fact));
    }
    ExpectExactTwoSourceCounts(h, context);
    auto answers = h.view->Answer(query);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    auto naive =
        eval::EvaluateQuery(P(kTwoSources), query, &h.db, NaiveOptions());
    ASSERT_TRUE(naive.ok()) << naive.status().ToString();
    EXPECT_EQ(answers->rows, naive->rows) << context;
  }
}

// The recorder ranks a head at its first derivation, one above its
// premises (MaterializedView::RecordEdge). On left-linear TC those ranks are
// already the minimal derivation heights RecomputeRanks computes; when a
// recursive rule reads a lower derived predicate they are only upper
// bounds, which is why every store build still recomputes them once.
std::pair<std::vector<uint32_t>, std::vector<uint32_t>> RecordedAndExactRanks(
    const std::string& program_text, eval::Database* db) {
  const ast::Program program = P(program_text);
  eval::DerivationEdgeStore store(uint64_t{1} << 20);
  exec::ParallelEvalOptions popts;
  auto run = exec::EvaluateParallel(
      program, db, nullptr, popts,
      [&](size_t i, const std::vector<eval::ValueId>& row,
          const std::vector<eval::FactKey>& premises) {
        const std::string& head = program.rules()[i].head().predicate();
        if (head != "t") return;  // the only recursive predicate
        auto e = store.AddDerivation(head, row, static_cast<int>(i), premises);
        if (e == eval::DerivationEdgeStore::kNoEdge ||
            store.derivations_of(store.head_of(e)).size() != 1) {
          return;
        }
        uint32_t rank = 0;
        for (auto p : store.premises_of(e)) {
          rank = std::max(rank, store.rank_of(p));
        }
        store.set_rank(store.head_of(e), rank + 1);
      });
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::vector<uint32_t> recorded, exact;
  for (size_t f = 0; f < store.fact_capacity(); ++f) {
    recorded.push_back(store.rank_of(static_cast<uint32_t>(f)));
  }
  store.RecomputeRanks();
  for (size_t f = 0; f < store.fact_capacity(); ++f) {
    exact.push_back(store.rank_of(static_cast<uint32_t>(f)));
  }
  return {recorded, exact};
}

TEST(IncRecorderTest, FirstDerivationRanksAreExactOnLeftTc) {
  eval::Database db;
  for (int64_t i = 0; i < 12; ++i) {
    db.AddPair("e", i, (i + 1) % 12);
    db.AddPair("e", i, (i + 5) % 12);
  }
  auto [recorded, exact] = RecordedAndExactRanks(
      "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).", &db);
  EXPECT_EQ(recorded.size(), 12u * 12u + 24u);  // every pair, every edge
  EXPECT_EQ(recorded, exact);
}

TEST(IncRecorderTest, FirstDerivationRanksBoundHeightsThroughLowerIdb) {
  // t(1, 4) is first derived via t(1, 3), e(3, 4) (rank 3), in the same
  // round as via t(1, 2), p2(2, 4) (rank 2): p2 arrives two rounds late.
  eval::Database db;
  db.AddPair("e", 1, 2);
  db.AddPair("e", 2, 3);
  db.AddPair("e", 3, 4);
  db.AddPair("a", 2, 4);
  auto [recorded, exact] = RecordedAndExactRanks(
      "p(X, Y) :- a(X, Y). p2(X, Y) :- p(X, Y). t(X, Y) :- e(X, Y). "
      "t(X, Y) :- t(X, W), e(W, Y). t(X, Y) :- t(X, W), p2(W, Y).",
      &db);
  ASSERT_EQ(recorded.size(), exact.size());
  bool overshoots = false;
  for (size_t f = 0; f < recorded.size(); ++f) {
    EXPECT_GE(recorded[f], exact[f]) << f;
    overshoots = overshoots || recorded[f] > exact[f];
  }
  EXPECT_TRUE(overshoots);
}

// A restored view owes its edge store; the first update reaching a
// recursive SCC builds it over the state before that update. A first
// deletion then slices, and its cascade must match a built view's exactly,
// including when the recursive rule reads a counting stratum the deletion
// already updated. A first insertion is recorded on top of the built store,
// so deleting the inserted shortcut again over-deletes nothing, as on a
// built view.
TEST(IncRecorderTest, RestoredViewBuildsItsStoreOnFirstUpdate) {
  const char* programs[] = {
      "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).",
      "p(X, Y) :- e(X, Y). t(X, Y) :- p(X, Y). "
      "t(X, Y) :- t(X, W), p(W, Y). ?- t(X, Y).",
  };
  for (const char* text : programs) {
    for (const bool insert_first : {false, true}) {
      SCOPED_TRACE(std::string(text) +
                   (insert_first ? " insert first" : " delete first"));
      Harness h;
      for (int64_t i = 0; i < 10; ++i) {
        h.db.AddPair("e", i, (i + 1) % 10);
        h.db.AddPair("e", i, (i + 3) % 10);
      }
      h.Build(text);
      ASSERT_TRUE(h.view->edge_guided());
      auto restored = MaterializedView::Restore(P(text), &h.db, {},
                                                h.view->DumpState());
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      MaterializedView* r = restored->get();
      EXPECT_FALSE(r->edge_guided());
      EXPECT_TRUE(r->edge_store_owed());
      EXPECT_EQ(r->stats().edge_store_edges, 0u);

      eval::Relation* e = h.db.Find("e");
      auto apply = [&](bool insert, int64_t a, int64_t b) {
        auto row = h.db.InternRow(Edge(a, b));
        ASSERT_TRUE(row.ok());
        eval::Relation delta(2, e->storage_options());
        delta.Insert(*row);
        if (insert) {
          ASSERT_TRUE(h.view->ApplyInsert("e", delta).ok());
          ASSERT_TRUE(r->ApplyInsert("e", delta).ok());
          e->Insert(*row);
        } else {
          e->Erase(row->data());
          e->SyncShards();
          ASSERT_TRUE(h.view->ApplyDelete("e", delta).ok());
          ASSERT_TRUE(r->ApplyDelete("e", delta).ok());
          EXPECT_GT(r->stats().last_update.cone_input, 0u);
          const ViewUpdateStats& built = h.view->stats().last_update;
          const ViewUpdateStats& rest = r->stats().last_update;
          EXPECT_EQ(rest.cone_input, built.cone_input);
          EXPECT_EQ(rest.cone_pruned, built.cone_pruned);
          EXPECT_EQ(rest.overdeleted, built.overdeleted);
          EXPECT_EQ(rest.rederived, built.rederived);
          EXPECT_EQ(rest.idb_deleted, built.idb_deleted);
        }
        EXPECT_TRUE(r->edge_guided());
        auto oracle = eval::Evaluate(P(text), &h.db, NaiveOptions());
        ASSERT_TRUE(oracle.ok());
        for (const auto& [pred, rel] : oracle->idb()) {
          EXPECT_EQ(RowSet(*r->Find(pred)), RowSet(*rel)) << pred;
        }
        EXPECT_EQ(r->stats().edge_store_edges,
                  h.view->stats().edge_store_edges);
      };
      if (insert_first) {
        apply(true, 0, 5);   // a shortcut: t(0, 5) had height 3
        apply(false, 0, 5);
      }
      apply(false, 4, 5);
      apply(false, 2, 5);
      apply(true, 5, 20);
      apply(false, 0, 3);
    }
  }
}

// ---- `why` ------------------------------------------------------------------

constexpr char kLeftTcAll[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).";

TEST(IncWhyTest, ExplainsRecursiveFactsEdbLeavesAndAbsentFacts) {
  Harness h;
  h.db.AddPair("e", 1, 2);
  h.db.AddPair("e", 2, 3);
  h.db.AddPair("e", 3, 4);
  h.db.AddPair("f", 7, 7);
  h.Build(kLeftTcAll);
  auto tree = h.view->Explain(A("t(1, 3)"));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(*tree,
            "t(1, 3)   [rule 1]\n"
            "  t(1, 2)   [rule 0]\n"
            "    e(1, 2)\n"
            "  e(2, 3)\n");
  EXPECT_EQ(*h.view->Explain(A("e(2, 3)")), "e(2, 3)\n");
  EXPECT_EQ(*h.view->Explain(A("f(7, 7)")), "f(7, 7)   [EDB fact]\n");
  EXPECT_EQ(*h.view->Explain(A("t(3, 1)")),
            "t(3, 1)   [not in the current state]\n");
  EXPECT_EQ(h.view->Explain(A("t(X, 3)")).status().code(),
            StatusCode::kInvalidArgument);
  // The tree follows maintenance: after e(2, 3) goes, t(1, 3) is gone.
  h.Remove(Edge(2, 3));
  EXPECT_EQ(*h.view->Explain(A("t(1, 3)")),
            "t(1, 3)   [not in the current state]\n");
}

TEST(IncWhyTest, CountingMaintainedFactsAndUntrackedEdges) {
  Harness h;
  h.db.AddPair("a", 1, 2);
  h.db.AddPair("b", 1, 2);
  h.db.AddPair("a", 2, 3);
  h.Build(kTwoSources);
  EXPECT_EQ(*h.view->Explain(A("p(1, 2)")),
            "p(1, 2)   [2 derivation(s), counting-maintained]\n");
  EXPECT_EQ(*h.view->Explain(A("q(1, 3)")),
            "q(1, 3)   [1 derivation(s), counting-maintained]\n");

  Harness untracked;
  untracked.db.AddPair("e", 1, 2);
  IncrementalOptions opts;
  opts.max_derivation_edges = 0;
  untracked.Build(kLeftTcAll, opts);
  EXPECT_FALSE(untracked.view->edge_store_owed());
  EXPECT_EQ(*untracked.view->Explain(A("t(1, 2)")),
            "t(1, 2)   [derivation edges not tracked]\n");
  EXPECT_EQ(*untracked.view->Explain(A("e(1, 2)")),
            "e(1, 2)   [EDB fact]\n");
}

// ---- Engine integration -----------------------------------------------------

TEST(EngineViewTest, QueryAnswersFromViewWithoutExecuting) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 3).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  ASSERT_TRUE(engine.Materialize(text).ok());
  EXPECT_EQ(engine.num_views(), 1u);

  uint64_t executions_before = engine.stats().executions;
  api::QueryStats qstats;
  auto answers = engine.Query(text, core::Strategy::kAuto, &qstats);
  ASSERT_TRUE(answers.ok());
  EXPECT_TRUE(qstats.view_hit);
  EXPECT_EQ(answers->rows.size(), 2u);
  EXPECT_EQ(engine.stats().executions, executions_before);
  EXPECT_EQ(engine.stats().view_hits, 1u);
}

TEST(EngineViewTest, MaterializeIsIdempotentAndDroppable) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2).").ok());
  const char* text = "t(X, Y) :- e(X, Y). ?- t(1, Y).";
  auto h1 = engine.Materialize(text);
  auto h2 = engine.Materialize(text);
  ASSERT_TRUE(h1.ok());
  ASSERT_TRUE(h2.ok());
  EXPECT_EQ(h1->key, h2->key);
  EXPECT_EQ(engine.num_views(), 1u);
  engine.DropView(*h1);
  EXPECT_EQ(engine.num_views(), 0u);
  EXPECT_EQ(engine.view(*h1), nullptr);
}

TEST(EngineViewTest, ViewUpdatesCountAndAnswerFromView) {
  api::Engine engine;
  ASSERT_TRUE(engine.LoadFacts("e(1, 2).").ok());
  const char* text =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  auto handle = engine.Materialize(text);
  ASSERT_TRUE(handle.ok());

  ASSERT_TRUE(engine.AddFact(Edge(2, 3)).ok());
  ASSERT_TRUE(engine.RemoveFact(Edge(1, 2)).ok());
  EXPECT_EQ(engine.stats().view_updates, 2u);

  auto answers = engine.AnswerFromView(*handle);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 0u);  // 1 is disconnected now
}

}  // namespace
}  // namespace factlog::inc
