// Tests for the parallel execution subsystem: the partitioned semi-naive
// fixpoint must be fact-for-fact identical to the naive T_P oracle with and
// without a pool at every thread and shard count, and the engine's pooled
// and sharded queries must agree with a flat sequential engine.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "api/engine.h"
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
using test::kNumSweepPrograms;
using test::kNumSweepWorkloads;
using test::kSweepPrograms;
using test::kSweepWorkloads;
using test::P;

// Renders every IDB relation as a sorted set of tuples. Both evaluations run
// against the same database, so hash-consing makes ValueIds comparable; the
// rendered form keeps failure messages readable.
std::map<std::string, std::set<std::string>> FactSets(
    const eval::EvalResult& result, const eval::ValueStore& store) {
  std::map<std::string, std::set<std::string>> out;
  for (const auto& [pred, rel] : result.idb()) {
    std::set<std::string>& rows = out[pred];
    for (size_t r = 0; r < rel->size(); ++r) {
      std::string s = "(";
      for (size_t c = 0; c < rel->arity(); ++c) {
        if (c > 0) s += ", ";
        s += store.ToString(rel->row(r)[c]);
      }
      s += ")";
      rows.insert(s);
    }
  }
  return out;
}

class ParallelSweepTest : public ::testing::TestWithParam<std::tuple<int, int>> {
};

// The acceptance bar of this subsystem: for every corpus program (original
// and pipeline-compiled) the shard-native fixpoint at 1/2/8 storage shards
// times no pool and 1/2/8 threads yields exactly the fact sets of naive T_P
// evaluation on flat storage — an independent fixpoint, so no run is
// compared with itself. Iteration and instantiation counts must not depend
// on the partitioning: every run matches the flat no-pool run. Shard fan-out
// is forced even on tiny deltas so the shard-view/merge machinery actually
// runs.
TEST_P(ParallelSweepTest, MatchesNaiveOracleAcrossShardsAndThreads) {
  const test::SweepProgram& ps = kSweepPrograms[std::get<0>(GetParam())];
  const test::SweepWorkload& ws = kSweepWorkloads[std::get<1>(GetParam())];

  ast::Program original = P(ps.text);
  ast::Atom query = A(ps.query);
  auto compiled = core::CompileQuery(original, query, core::Strategy::kAuto);
  ASSERT_TRUE(compiled.ok()) << compiled.status().ToString();

  struct Variant {
    const char* name;
    const ast::Program* program;
  };
  const Variant variants[] = {{"original", &original},
                              {"compiled", &compiled->program}};

  for (const Variant& v : variants) {
    // The oracle: naive evaluation on flat single-shard storage.
    eval::Database oracle_db;
    ws.make(&oracle_db);
    eval::EvalOptions naive;
    naive.strategy = eval::Strategy::kNaive;
    auto oracle = eval::Evaluate(*v.program, &oracle_db, naive);
    ASSERT_TRUE(oracle.ok()) << v.name << ": " << oracle.status().ToString();
    auto expected = FactSets(*oracle, oracle_db.store());

    // The reference counts: no pool, flat storage.
    eval::Database flat_db;
    ws.make(&flat_db);
    auto reference = eval::Evaluate(*v.program, &flat_db);
    ASSERT_TRUE(reference.ok())
        << v.name << ": " << reference.status().ToString();
    EXPECT_EQ(FactSets(*reference, flat_db.store()), expected) << v.name;

    for (size_t shards : {1u, 2u, 8u}) {
      eval::Database db(eval::StorageOptions{shards, {}});
      ws.make(&db);

      // Sharding must be invisible without a pool too.
      auto inline_sharded = eval::Evaluate(*v.program, &db);
      ASSERT_TRUE(inline_sharded.ok())
          << v.name << " inline@" << shards << "sh: "
          << inline_sharded.status().ToString();
      EXPECT_EQ(FactSets(*inline_sharded, db.store()), expected)
          << v.name << " inline @" << shards << " shards";
      EXPECT_EQ(inline_sharded->stats().iterations,
                reference->stats().iterations)
          << v.name << " inline @" << shards << " shards";
      EXPECT_EQ(inline_sharded->stats().instantiations,
                reference->stats().instantiations)
          << v.name << " inline @" << shards << " shards";

      for (size_t threads : {1u, 2u, 8u}) {
        exec::ThreadPool pool(threads);
        exec::ParallelEvalOptions opts;
        opts.min_rows_to_partition = 1;  // fan out even one-row deltas
        opts.num_shards = shards;
        auto parallel = exec::EvaluateParallel(*v.program, &db, &pool, opts);
        ASSERT_TRUE(parallel.ok())
            << v.name << " @" << threads << "t/" << shards << "sh: "
            << parallel.status().ToString();
        EXPECT_EQ(FactSets(*parallel, db.store()), expected)
            << v.name << " @" << threads << "t/" << shards << "sh";
        EXPECT_EQ(parallel->stats().total_facts, oracle->stats().total_facts)
            << v.name << " @" << threads << "t/" << shards << "sh";
        EXPECT_EQ(parallel->stats().iterations, reference->stats().iterations)
            << v.name << " @" << threads << "t/" << shards << "sh";
        EXPECT_EQ(parallel->stats().instantiations,
                  reference->stats().instantiations)
            << v.name << " @" << threads << "t/" << shards << "sh";
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ParallelSweepTest,
    ::testing::Combine(::testing::Range(0, kNumSweepPrograms),
                       ::testing::Range(0, kNumSweepWorkloads)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>>& info) {
      return std::string(kSweepPrograms[std::get<0>(info.param)].name) +
             "_x_" + kSweepWorkloads[std::get<1>(info.param)].name;
    });

TEST(ParallelSemiNaiveTest, QueryAnswersMatchSequential) {
  eval::Database db;
  workload::MakeGrid(5, 5, "e", &db);
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).");
  ast::Atom query = A("t(1, Y)");

  auto sequential = eval::EvaluateQuery(program, query, &db);
  ASSERT_TRUE(sequential.ok());

  exec::ThreadPool pool(4);
  exec::ParallelEvalOptions opts;
  opts.min_rows_to_partition = 1;
  opts.num_shards = 4;  // sharded IDB over a flat EDB
  auto result = exec::EvaluateParallel(program, &db, &pool, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto parallel = eval::ExtractAnswers(query, &*result, &db);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(parallel->rows, sequential->rows);
}

TEST(ParallelSemiNaiveTest, NullPoolRunsInline) {
  eval::Database db;
  workload::MakeChain(10, "e", &db);
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  auto result = exec::EvaluateParallel(program, &db, /*pool=*/nullptr);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SizeOf("t"), 45u);  // all suffix pairs of a 10-chain
}

TEST(ParallelSemiNaiveTest, SeedIterationFansOutAcrossShards) {
  // Regression guard for the parallel seed path: iteration 0 of an EDB-only
  // rule must enqueue one pool task per shard of the first literal's extent
  // instead of running on the control thread. The program is non-recursive,
  // so the only pool tasks the evaluation can submit are seed tasks.
  eval::Database db(eval::StorageOptions{4, {}});
  workload::MakeChain(64, "e", &db);  // 63 edges spread over 4 shards
  ast::Program program = P("q(X, Y) :- e(X, Y).");
  exec::ThreadPool pool(2);
  uint64_t before = pool.stats().executed;
  exec::ParallelEvalOptions opts;
  opts.min_rows_to_partition = 1;
  opts.num_shards = 4;
  auto result = exec::EvaluateParallel(program, &db, &pool, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SizeOf("q"), 63u);
  uint64_t seed_tasks = pool.stats().executed - before;
  EXPECT_EQ(seed_tasks, 4u) << "expected one seed task per EDB shard";
  EXPECT_GT(seed_tasks, 1u) << "seed iteration ran on the control thread";
}

TEST(ParallelSemiNaiveTest, SmallSeedExtentStaysInline) {
  // Below min_rows_to_partition the seed must not fan out (the old
  // control-thread path, exact budget accounting).
  eval::Database db(eval::StorageOptions{4, {}});
  workload::MakeChain(8, "e", &db);
  ast::Program program = P("q(X, Y) :- e(X, Y).");
  exec::ThreadPool pool(2);
  uint64_t before = pool.stats().executed;
  exec::ParallelEvalOptions opts;
  opts.min_rows_to_partition = 64;
  opts.num_shards = 4;
  auto result = exec::EvaluateParallel(program, &db, &pool, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->SizeOf("q"), 7u);
  EXPECT_EQ(pool.stats().executed - before, 0u);
}

TEST(ParallelSemiNaiveTest, ReportsPerShardFactCounts) {
  eval::Database db(eval::StorageOptions{4, {}});
  workload::MakeChain(20, "e", &db);
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  exec::ThreadPool pool(2);
  exec::ParallelEvalOptions opts;
  opts.min_rows_to_partition = 1;
  opts.num_shards = 4;
  auto result = exec::EvaluateParallel(program, &db, &pool, opts);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->stats().shard_facts.size(), 4u);
  uint64_t sum = 0;
  for (uint64_t n : result->stats().shard_facts) sum += n;
  EXPECT_EQ(sum, result->stats().total_facts);
}

TEST(ParallelSemiNaiveTest, CompoundValuesInternSafelyAcrossThreads) {
  // List construction interns new compound values inside worker threads;
  // the result must still match the no-pool run exactly.
  eval::Database db;
  for (int i = 0; i < 40; ++i) db.AddPair("n", i, i + 1);
  ast::Program program = P(
      "l(X, cons(X, nil)) :- n(X, Y). "
      "l(X, cons(X, L)) :- n(X, Y), l(Y, L).");
  auto sequential = eval::Evaluate(program, &db);
  ASSERT_TRUE(sequential.ok());
  exec::ThreadPool pool(4);
  exec::ParallelEvalOptions opts;
  opts.min_rows_to_partition = 1;
  opts.num_shards = 3;
  auto parallel = exec::EvaluateParallel(program, &db, &pool, opts);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
  EXPECT_EQ(FactSets(*parallel, db.store()),
            FactSets(*sequential, db.store()));
}

TEST(ParallelSemiNaiveTest, FactBudgetAborts) {
  eval::Database db;
  workload::MakeChain(60, "e", &db);
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  exec::ThreadPool pool(4);
  exec::ParallelEvalOptions opts;
  opts.eval.max_facts = 100;  // the 60-chain closure has 1770 facts
  opts.min_rows_to_partition = 1;
  opts.num_shards = 4;
  auto result = exec::EvaluateParallel(program, &db, &pool, opts);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);
}

// Without a pool the engine reports derivations to the callback, giving the
// same derivation tree as ProvenanceTest.DerivationTreeForChain; a pool of
// any width >= 1 rejects the callback.
TEST(ParallelSemiNaiveTest, ProvenanceRecordedInlineRejectedOnPool) {
  eval::Database db;
  db.AddPair("e", 1, 2);
  db.AddPair("e", 2, 3);
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  exec::ParallelEvalOptions opts;
  eval::DerivationEdgeStore store(test::kUnboundedEdges);
  const exec::DerivationCallback record =
      test::RecordDerivations(program, &store);
  auto result = exec::EvaluateParallel(program, &db, nullptr, opts, record);
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  eval::FactKey t13{"t", {db.store().InternInt(1), db.store().InternInt(3)}};
  ASSERT_NE(store.FindFact(t13.predicate, t13.row.data(), t13.row.size()),
            eval::DerivationEdgeStore::kNoFact);
  eval::DerivationTree tree = eval::BuildDerivationTree(store, t13);
  // t(1,3) via rule 1 from e(1,2) and t(2,3); t(2,3) via rule 0 from e(2,3).
  EXPECT_EQ(tree.rule_index, 1);
  EXPECT_EQ(tree.Height(), 3u);
  ASSERT_EQ(tree.children.size(), 2u);
  EXPECT_EQ(tree.children[0].fact.predicate, "e");
  EXPECT_EQ(tree.children[0].rule_index, -1);  // EDB leaf
  EXPECT_EQ(tree.children[1].fact.predicate, "t");
  EXPECT_EQ(tree.children[1].rule_index, 0);
  std::string rendered = eval::DerivationTreeToString(tree, db.store());
  EXPECT_NE(rendered.find("t(1, 3)"), std::string::npos);
  EXPECT_NE(rendered.find("e(2, 3)"), std::string::npos);

  for (size_t threads : {1u, 2u}) {
    exec::ThreadPool pool(threads);
    auto pooled = exec::EvaluateParallel(program, &db, &pool, opts, record);
    ASSERT_FALSE(pooled.ok()) << threads << " threads";
    EXPECT_EQ(pooled.status().code(), StatusCode::kInvalidArgument)
        << threads << " threads";
  }
}

// Under shared_edb the base relations are read-only: neither the inline
// engine nor a pooled one may build an index on them (a concurrent reader
// could be probing them).
TEST(ParallelSemiNaiveTest, SharedEdbLeavesBaseRelationsUntouched) {
  ast::Program program =
      P("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).");
  for (size_t threads : {0u, 2u}) {
    eval::Database db;
    workload::MakeChain(200, "e", &db);  // 199 edges
    const eval::Relation* e = db.Find("e");
    ASSERT_NE(e, nullptr);
    const uint64_t version = e->version();
    std::unique_ptr<exec::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<exec::ThreadPool>(threads);
    exec::ParallelEvalOptions opts;
    opts.eval.shared_edb = true;
    auto result = exec::EvaluateParallel(program, &db, pool.get(), opts);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(result->stats().total_facts, 199u * 200u / 2) << threads;
    EXPECT_EQ(e->version(), version) << threads << " threads";
    EXPECT_EQ(e->FindIndexed({0}, {e->row(0)[0]}), nullptr)
        << threads << " threads";
  }
}

// Shards only partition pooled work. An inline run keeps its IDB relations
// flat whatever num_shards asks for, and agrees with a 1-shard inline run and
// a 4-shard pooled run on facts, iterations and per-rule instantiations.
void ExpectSameRun(const eval::EvalResult& got, const eval::EvalResult& want,
                   const eval::ValueStore& store, const std::string& what) {
  EXPECT_EQ(FactSets(got, store), FactSets(want, store)) << what;
  EXPECT_EQ(got.stats().iterations, want.stats().iterations) << what;
  EXPECT_EQ(got.stats().rule_instantiations, want.stats().rule_instantiations)
      << what;
}

TEST(ParallelSemiNaiveTest, InlineRunsKeepIdbFlatAndAgreeWithShardedPool) {
  eval::Database db(eval::StorageOptions{4, {}});
  workload::MakeGrid(6, 6, "e", &db);
  ast::Program program = P(
      "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). "
      "s(X, Y) :- t(X, W), t(W, Y).");
  auto run = [&](exec::ThreadPool* pool, size_t shards) {
    exec::ParallelEvalOptions opts;
    opts.min_rows_to_partition = 1;
    opts.num_shards = shards;
    return exec::EvaluateParallel(program, &db, pool, opts);
  };
  exec::ThreadPool width0(0);
  exec::ThreadPool pool(2);
  auto inline4 = run(nullptr, 4);
  auto width0_4 = run(&width0, 4);
  auto inline1 = run(nullptr, 1);
  auto pooled4 = run(&pool, 4);
  for (const auto* r : {&inline4, &width0_4, &inline1, &pooled4}) {
    ASSERT_TRUE(r->ok()) << r->status().ToString();
  }
  for (const auto* r : {&inline4, &width0_4, &inline1}) {
    EXPECT_EQ((*r)->stats().shard_facts.size(), 1u);
    EXPECT_EQ((*r)->Find("t")->shard_count(), 1u);
  }
  EXPECT_EQ(pooled4->Find("t")->shard_count(), 4u);
  ExpectSameRun(*inline4, *inline1, db.store(), "inline 4 vs inline 1");
  ExpectSameRun(*width0_4, *inline1, db.store(), "width-0 4 vs inline 1");
  ExpectSameRun(*pooled4, *inline1, db.store(), "pooled 4 vs inline 1");
}

// The same for a seeded run whose stored extent and seed delta are sharded:
// the inline engine reads the sharded stored extent and copies the sharded
// delta into its flat one.
TEST(ParallelSemiNaiveTest, SeededInlineRunsAgreeOverShardedSeeds) {
  eval::Database db(eval::StorageOptions{4, {}});
  workload::MakeChain(30, "e", &db);
  ast::Program program = P("t(X, Y) :- t(X, W), e(W, Y).");
  const eval::StorageOptions sharded{4, {0}};
  eval::Relation stored(2, sharded);
  eval::Relation delta(2, sharded);
  auto pair = [&](int64_t a, int64_t b) {
    return std::vector<eval::ValueId>{db.store().InternInt(a),
                                      db.store().InternInt(b)};
  };
  for (int64_t y = 2; y <= 5; ++y) stored.Insert(pair(1, y));
  delta.Insert(pair(1, 6));
  for (int64_t x = 10; x <= 20; x += 2) delta.Insert(pair(x, x + 1));
  ASSERT_EQ(delta.shard_count(), 4u);
  const std::map<std::string, exec::SeedExtent> seeds = {
      {"t", {&stored, &delta}}};
  auto run = [&](exec::ThreadPool* pool, size_t shards) {
    exec::ParallelEvalOptions opts;
    opts.min_rows_to_partition = 1;
    opts.num_shards = shards;
    return exec::EvaluateSeeded(program, &db, pool, opts, seeds);
  };
  exec::ThreadPool pool(2);
  auto inline4 = run(nullptr, 4);
  auto inline1 = run(nullptr, 1);
  auto pooled4 = run(&pool, 4);
  for (const auto* r : {&inline4, &inline1, &pooled4}) {
    ASSERT_TRUE(r->ok()) << r->status().ToString();
  }
  EXPECT_EQ(inline4->stats().shard_facts.size(), 1u);
  // t(1, 6..30) and, from each seeded (x, x+1), t(x, x+2..30).
  uint64_t expected = 25;
  for (int64_t x = 10; x <= 20; x += 2) expected += 30 - (x + 1) + 1;
  EXPECT_EQ(inline4->stats().total_facts, expected);
  ExpectSameRun(*inline4, *inline1, db.store(), "inline 4 vs inline 1");
  ExpectSameRun(*pooled4, *inline1, db.store(), "pooled 4 vs inline 1");
}

// ---- Engine integration ----------------------------------------------------

const char* kTcQueries[] = {
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(2, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(3, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y). ?- t(4, Y).",
    "p(X, Y) :- e(X, Y). p(X, Y) :- e(Y, X). ?- p(5, Y).",
    "q(X) :- e(X, Y). ?- q(X).",
    "r(X, Z) :- e(X, Y), e(Y, Z). ?- r(1, Z).",
    "s(Y) :- e(1, Y). s(Y) :- e(X, Y), s(X). ?- s(Y).",
};

TEST(EngineParallelTest, ParallelSingleQueryMatchesSequentialEngine) {
  api::EngineOptions seq_opts;
  api::Engine sequential(seq_opts);
  api::EngineOptions par_opts;
  par_opts.num_threads = 4;
  api::Engine parallel(par_opts);
  workload::MakeGrid(5, 5, "e", &sequential.db());
  workload::MakeGrid(5, 5, "e", &parallel.db());

  for (const char* text : kTcQueries) {
    auto a = sequential.Query(text);
    auto b = parallel.Query(text);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->ToString(sequential.db().store()),
              b->ToString(parallel.db().store()))
        << text;
  }
}

TEST(EngineParallelTest, ShardedEngineMatchesFlatSequentialEngine) {
  api::Engine oracle;  // flat storage, sequential
  workload::MakeGrid(5, 5, "e", &oracle.db());

  for (size_t shards : {2u, 8u}) {
    api::EngineOptions opts;
    opts.num_threads = 4;
    opts.num_shards = shards;
    api::Engine engine(opts);
    workload::MakeGrid(5, 5, "e", &engine.db());

    for (const char* text : kTcQueries) {
      auto expected = oracle.Query(text);
      auto got = engine.Query(text);
      ASSERT_TRUE(expected.ok()) << expected.status().ToString();
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->ToString(engine.db().store()),
                expected->ToString(oracle.db().store()))
          << text << " @" << shards << " shards";
    }
  }
}

TEST(EngineParallelTest, ReportsPerShardRowCounts) {
  api::EngineOptions opts;
  opts.num_threads = 2;
  opts.num_shards = 4;
  api::Engine engine(opts);
  workload::MakeGrid(4, 4, "e", &engine.db());

  api::QueryStats stats;
  auto answers = engine.Query(kTcQueries[0], core::Strategy::kAuto, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(stats.eval.shard_facts.size(), 4u);
  uint64_t sum = 0;
  for (uint64_t n : stats.eval.shard_facts) sum += n;
  EXPECT_EQ(sum, stats.eval.total_facts);
}

}  // namespace
}  // namespace factlog
