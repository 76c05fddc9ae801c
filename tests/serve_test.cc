// Tests for the async serving subsystem: MVCC snapshots over copy-on-write
// shards (serve/snapshot.h), the request-queue front end (serve/server.h),
// and the api::Engine integration.
//
// The centerpiece is the oracle sweep: concurrent readers race a mutator
// over the shared sweep corpus, and every answer a reader ever sees must
// equal — exactly — the from-scratch answers after some prefix of the update
// sequence. That is the whole MVCC contract: reads are never torn, never
// blocked, and never fail the legacy mutation guard; they are just possibly
// a few epochs stale.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/engine.h"
#include "ast/parser.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "tests/sweep_corpus.h"
#include "workload/graph_gen.h"

namespace factlog {
namespace {

using api::Engine;
using api::EngineOptions;
using core::Strategy;

// Rows rendered through the store and sorted: the only representation
// comparable across engines (ValueIds are store-local).
std::vector<std::string> Rendered(const eval::AnswerSet& answers,
                                  const eval::ValueStore& store) {
  std::vector<std::string> rows;
  rows.reserve(answers.rows.size());
  for (const auto& row : answers.rows) {
    std::string s;
    for (eval::ValueId v : row) {
      s += store.ToString(v);
      s += '|';
    }
    rows.push_back(std::move(s));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

ast::Atom Edge(int64_t a, int64_t b) {
  return ast::Atom("e", {ast::Term::Int(a), ast::Term::Int(b)});
}

struct UpdateOp {
  bool insert;
  int64_t a, b;
};

// A deterministic update script shared by every sweep configuration: grows a
// fresh chain off node 1, breaks and rebuilds it (counting and recursive
// deletion paths), deletes original chain edges, closes and reopens a cycle
// through node 1, and feeds node 8 (the reverse_bound query's constant). Deletions of absent
// facts are accepted no-ops, so the script is valid for every workload.
std::vector<UpdateOp> UpdateScript() {
  return {{true, 1, 101},   {true, 101, 102}, {true, 102, 103},
          {false, 101, 102}, {true, 101, 103}, {false, 1, 2},
          {true, 1, 2},      {false, 2, 3},    {true, 103, 1},
          {false, 1, 101},   {true, 1, 104},   {true, 104, 105},
          {false, 104, 105}, {true, 105, 8},   {true, 2, 105},
          {false, 103, 1},   {true, 8, 1},     {false, 8, 1}};
}

// oracle[p][k] = the sorted rendered answers of programs[p] after the first
// k updates, computed by a sequential stop-the-world engine (no views, no
// serving — the independent ground truth).
std::vector<std::vector<std::vector<std::string>>> BuildOracle(
    const test::SweepWorkload& workload,
    const std::vector<ast::Program>& programs,
    const std::vector<ast::Atom>& queries, const std::vector<UpdateOp>& ops) {
  Engine oracle;
  workload.make(&oracle.db());
  std::vector<std::vector<std::vector<std::string>>> out(programs.size());
  auto record = [&] {
    for (size_t p = 0; p < programs.size(); ++p) {
      auto answers = oracle.Query(programs[p], queries[p]);
      EXPECT_TRUE(answers.ok()) << answers.status().ToString();
      out[p].push_back(answers.ok()
                           ? Rendered(*answers, oracle.db().store())
                           : std::vector<std::string>{"<error>"});
    }
  };
  record();
  for (const UpdateOp& op : ops) {
    Status st = op.insert ? oracle.AddFact(Edge(op.a, op.b))
                          : oracle.RemoveFact(Edge(op.a, op.b));
    EXPECT_TRUE(st.ok()) << st.ToString();
    record();
  }
  return out;
}

// One serving configuration of the oracle sweep: 3 reader threads querying
// every program (the first is materialized, so its reads are frozen view
// hits; the rest evaluate against the snapshot) while the test thread pushes
// the update script through the writer. Checks, per reader: prefix
// consistency of every answer, monotone epochs, and zero
// kFailedPrecondition; per mutator update: success and monotone epochs.
void RunOracleSweep(size_t shards, size_t threads,
                    const std::vector<int>& program_idx,
                    const std::vector<int>& workload_idx) {
  const std::vector<UpdateOp> ops = UpdateScript();
  for (int w : workload_idx) {
    const test::SweepWorkload& workload = test::kSweepWorkloads[w];
    SCOPED_TRACE(std::string("workload ") + workload.name);

    std::vector<ast::Program> programs;
    std::vector<ast::Atom> queries;
    for (int p : program_idx) {
      auto program = ast::ParseProgram(test::kSweepPrograms[p].text);
      auto query = ast::ParseAtom(test::kSweepPrograms[p].query);
      ASSERT_TRUE(program.ok() && query.ok());
      programs.push_back(std::move(program).value());
      queries.push_back(std::move(query).value());
    }
    auto oracle = BuildOracle(workload, programs, queries, ops);

    EngineOptions options;
    options.num_threads = threads;
    options.num_shards = shards;
    Engine engine(options);
    workload.make(&engine.db());
    ASSERT_TRUE(engine.Materialize(programs[0], queries[0]).ok());
    ASSERT_TRUE(engine.StartServing().ok());

    std::atomic<bool> done{false};
    std::atomic<int> precondition_failures{0};
    std::vector<std::thread> readers;
    for (int r = 0; r < 3; ++r) {
      readers.emplace_back([&] {
        uint64_t session = engine.OpenSession();
        ASSERT_NE(session, 0u);
        uint64_t last_epoch = 0;
        for (;;) {
          const bool final_round = done.load(std::memory_order_acquire);
          for (size_t p = 0; p < programs.size(); ++p) {
            serve::QueryResponse resp =
                engine.SubmitQuery(session, programs[p], queries[p],
                                   Strategy::kAuto)
                    .get();
            if (!resp.status.ok()) {
              if (resp.status.code() == StatusCode::kFailedPrecondition) {
                precondition_failures.fetch_add(1);
              }
              ADD_FAILURE() << "reader: " << resp.status.ToString();
              continue;
            }
            EXPECT_GE(resp.epoch, last_epoch) << "epoch went backwards";
            last_epoch = resp.epoch;
            std::vector<std::string> rendered =
                Rendered(resp.answers, engine.db().store());
            bool is_prefix_state =
                std::find(oracle[p].begin(), oracle[p].end(), rendered) !=
                oracle[p].end();
            EXPECT_TRUE(is_prefix_state)
                << "answer at epoch " << resp.epoch << " for program "
                << program_idx[p]
                << " matches no prefix of the update sequence";
          }
          if (final_round) break;
        }
        engine.CloseSession(session);
      });
    }

    uint64_t mutator_session = engine.OpenSession();
    uint64_t last_epoch = 0;
    for (const UpdateOp& op : ops) {
      serve::UpdateResponse resp =
          engine.SubmitUpdate(mutator_session, op.insert, Edge(op.a, op.b))
              .get();
      EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_GE(resp.epoch, last_epoch);
      last_epoch = resp.epoch;
    }
    engine.CloseSession(mutator_session);
    done.store(true, std::memory_order_release);
    for (auto& t : readers) t.join();
    EXPECT_EQ(precondition_failures.load(), 0)
        << "the serving path must never fail the mutation guard";
    ASSERT_TRUE(engine.StopServing().ok());

    // Drained: the final synchronous answers equal the full-prefix oracle.
    for (size_t p = 0; p < programs.size(); ++p) {
      auto answers = engine.Query(programs[p], queries[p]);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      EXPECT_EQ(Rendered(*answers, engine.db().store()), oracle[p].back());
    }
  }
}

// The full corpus (all 6 programs, all 7 workloads) at the default-ish
// configuration; the other shard x thread corners run a reduced set.
TEST(ServeOracleSweep, FullCorpusShards2Threads2) {
  RunOracleSweep(2, 2, {0, 1, 2, 3, 4, 5}, {0, 1, 2, 3, 4, 5, 6});
}

// right_tc + nonlinear_tc over chain and random_plus_chain at every other
// corner of {1, 2, 8} shards x {1, 2, 8} threads.
TEST(ServeOracleSweep, Shards1Threads1) { RunOracleSweep(1, 1, {0, 2}, {0, 4}); }
TEST(ServeOracleSweep, Shards1Threads2) { RunOracleSweep(1, 2, {0, 2}, {0, 4}); }
TEST(ServeOracleSweep, Shards1Threads8) { RunOracleSweep(1, 8, {0, 2}, {0, 4}); }
TEST(ServeOracleSweep, Shards2Threads1) { RunOracleSweep(2, 1, {0, 2}, {0, 4}); }
TEST(ServeOracleSweep, Shards2Threads8) { RunOracleSweep(2, 8, {0, 2}, {0, 4}); }
TEST(ServeOracleSweep, Shards8Threads1) { RunOracleSweep(8, 1, {0, 2}, {0, 4}); }
TEST(ServeOracleSweep, Shards8Threads2) { RunOracleSweep(8, 2, {0, 2}, {0, 4}); }
TEST(ServeOracleSweep, Shards8Threads8) { RunOracleSweep(8, 8, {0, 2}, {0, 4}); }

// ---- Copy-on-write / snapshot unit tests -----------------------------------

// Serving-mode deletion batches over a dense graph: every RemoveFact runs
// the edge-guided slice path inside the writer thread, and the drained
// answers must equal a stop-the-world engine that saw the same deletes.
TEST(ServeOracleSweep, DenseGraphDeleteBatchesStayConsistent) {
  constexpr int64_t kNodes = 12;
  auto make_dense = [](Engine* e) {
    for (int64_t i = 1; i < kNodes; ++i) {
      ASSERT_TRUE(e->AddFact(Edge(i, i + 1)).ok());
      if (i + 2 <= kNodes) {
        ASSERT_TRUE(e->AddFact(Edge(i, i + 2)).ok());
      }
    }
  };
  const std::vector<std::pair<int64_t, int64_t>> deletes = {
      {9, 10}, {5, 6}, {5, 7}, {10, 12}, {3, 4}, {7, 8}};

  auto program = ast::ParseProgram(
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).");
  auto query = ast::ParseAtom("t(1, Y)");
  ASSERT_TRUE(program.ok() && query.ok());

  Engine oracle;
  make_dense(&oracle);
  std::vector<std::vector<std::string>> expected;
  for (const auto& [a, b] : deletes) {
    ASSERT_TRUE(oracle.RemoveFact(Edge(a, b)).ok());
    auto answers = oracle.Query(*program, *query);
    ASSERT_TRUE(answers.ok());
    expected.push_back(Rendered(*answers, oracle.db().store()));
  }

  // Both deletion paths: the derivation-edge cascade (default budget) and
  // SCC re-evaluation (budget 1 drops the store at Materialize). The
  // fallback clears the maintained relations in place, so querying after
  // every delete checks that no snapshot is served from a stale version.
  for (const uint64_t budget :
       {EngineOptions{}.inc_max_derivation_edges, uint64_t{1}}) {
    EngineOptions options;
    options.num_threads = 4;
    options.num_shards = 2;
    options.inc_max_derivation_edges = budget;
    Engine engine(options);
    make_dense(&engine);
    ASSERT_TRUE(engine.Materialize(*program, *query).ok());
    ASSERT_TRUE(engine.StartServing().ok());

    uint64_t session = engine.OpenSession();
    ASSERT_NE(session, 0u);
    for (size_t i = 0; i < deletes.size(); ++i) {
      const auto& [a, b] = deletes[i];
      serve::UpdateResponse up =
          engine.SubmitUpdate(session, /*insert=*/false, Edge(a, b)).get();
      ASSERT_TRUE(up.status.ok()) << up.status.ToString();
      // Read-your-writes through the same session: the view already
      // reflects this delete.
      serve::QueryResponse resp =
          engine.SubmitQuery(session, *program, *query, Strategy::kAuto)
              .get();
      ASSERT_TRUE(resp.status.ok()) << resp.status.ToString();
      EXPECT_EQ(Rendered(resp.answers, engine.db().store()), expected[i])
          << "budget=" << budget << " after delete #" << i;
    }
    engine.CloseSession(session);
    ASSERT_TRUE(engine.StopServing().ok());

    auto final_answers = engine.Query(*program, *query);
    ASSERT_TRUE(final_answers.ok());
    EXPECT_EQ(Rendered(*final_answers, engine.db().store()), expected.back())
        << "budget=" << budget;
  }
}

TEST(CowSnapshotTest, FrozenCopyUnaffectedByLiveMutations) {
  eval::Relation rel(2, eval::StorageOptions{4, {}});
  rel.Insert({1, 2});
  rel.Insert({2, 3});
  std::shared_ptr<eval::Relation> frozen = rel.FrozenCopy();

  rel.Insert({3, 4});  // detaches the written shard, not the frozen copy
  std::vector<eval::ValueId> gone = {1, 2};
  EXPECT_TRUE(rel.Erase(gone.data()));
  EXPECT_EQ(rel.size(), 2u);

  EXPECT_EQ(frozen->size(), 2u);
  std::vector<eval::ValueId> row = {1, 2};
  EXPECT_TRUE(frozen->Contains(row.data()));
  row = {3, 4};
  EXPECT_FALSE(frozen->Contains(row.data()));

  rel.Clear();
  EXPECT_EQ(rel.size(), 0u);
  EXPECT_EQ(frozen->size(), 2u);
}

TEST(CowSnapshotTest, FlatRelationFrozenCopyIsIndependent) {
  eval::Relation rel(1, eval::StorageOptions{});  // flat: deep copy
  rel.Insert({7});
  std::shared_ptr<eval::Relation> frozen = rel.FrozenCopy();
  rel.Insert({8});
  EXPECT_EQ(frozen->size(), 1u);
  EXPECT_EQ(rel.size(), 2u);
}

TEST(CowSnapshotTest, VersionAdvancesOnMutation) {
  eval::Relation rel(2, eval::StorageOptions{2, {}});
  uint64_t v0 = rel.version();
  rel.Insert({1, 2});
  EXPECT_GT(rel.version(), v0);
  uint64_t v1 = rel.version();
  rel.Insert({1, 2});  // duplicate: no state change, no version change
  EXPECT_EQ(rel.version(), v1);
  std::vector<eval::ValueId> row = {1, 2};
  EXPECT_TRUE(rel.Erase(row.data()));
  EXPECT_GT(rel.version(), v1);
}

TEST(SnapshotBuilderTest, ReusesUnchangedFrozenCopies) {
  eval::Database db(eval::StorageOptions{2, {}});
  db.AddPair("e", 1, 2);
  db.AddPair("f", 1, 2);
  serve::SnapshotBuilder builder;
  auto s1 = builder.Build(&db);
  auto s2 = builder.Build(&db);
  EXPECT_EQ(s1->epoch, 1u);
  EXPECT_EQ(s2->epoch, 2u);
  // No intervening mutation: both epochs share the same frozen copies.
  EXPECT_EQ(s1->db->Find("e"), s2->db->Find("e"));
  EXPECT_EQ(builder.copies(), 2u);

  db.AddPair("e", 2, 3);
  auto s3 = builder.Build(&db);
  EXPECT_NE(s3->db->Find("e"), s1->db->Find("e"));  // e changed: new copy
  EXPECT_EQ(s3->db->Find("f"), s1->db->Find("f"));  // f unchanged: reused
  EXPECT_EQ(builder.copies(), 3u);

  // The superseded epoch still answers the old state.
  EXPECT_EQ(s1->db->Find("e")->size(), 1u);
  EXPECT_EQ(s3->db->Find("e")->size(), 2u);
}

// ---- Server admission / backpressure (standalone, deterministic) -----------
//
// The serve layer is engine-agnostic; blocking hooks make every admission
// decision deterministic instead of racing real evaluations.

TEST(ServerTest, QueryQueueBackpressure) {
  exec::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  serve::Server::Hooks hooks;
  hooks.read = [opened](const ast::Program&, const ast::Atom&, Strategy,
                        serve::QueryResponse*) { opened.wait(); };
  hooks.apply = [](bool, const ast::Atom&) { return Status::OK(); };
  hooks.install = [] { return uint64_t{1}; };
  serve::ServeOptions options;
  options.max_queue = 2;
  serve::Server server(&pool, hooks, options);
  uint64_t session = server.OpenSession();

  std::atomic<int> completions{0};
  auto count = [&completions](serve::QueryResponse) { completions.fetch_add(1); };
  EXPECT_TRUE(server
                  .SubmitQuery(session, ast::Program(), ast::Atom("q", {}),
                               Strategy::kAuto, count)
                  .ok());
  EXPECT_TRUE(server
                  .SubmitQuery(session, ast::Program(), ast::Atom("q", {}),
                               Strategy::kAuto, count)
                  .ok());
  // Two in flight (one blocked on the worker, one queued) = max_queue: the
  // third is rejected, not blocked.
  Status st = server.SubmitQuery(session, ast::Program(), ast::Atom("q", {}),
                                 Strategy::kAuto, count);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  gate.set_value();
  server.Drain();
  EXPECT_EQ(completions.load(), 2);
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.accepted_queries, 2u);
  EXPECT_EQ(stats.completed_queries, 2u);
  EXPECT_EQ(stats.rejected_queries, 1u);
  server.Stop();
}

TEST(ServerTest, SessionBudgetAndLifecycle) {
  exec::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  serve::Server::Hooks hooks;
  hooks.read = [opened](const ast::Program&, const ast::Atom&, Strategy,
                        serve::QueryResponse*) { opened.wait(); };
  hooks.apply = [](bool, const ast::Atom&) { return Status::OK(); };
  hooks.install = [] { return uint64_t{1}; };
  serve::ServeOptions options;
  options.max_inflight_per_session = 2;
  serve::Server server(&pool, hooks, options);

  // Unknown session: structural misuse, not backpressure.
  Status st = server.SubmitQuery(42, ast::Program(), ast::Atom("q", {}),
                                 Strategy::kAuto,
                                 [](serve::QueryResponse) {});
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);

  uint64_t session = server.OpenSession();
  auto drop = [](serve::QueryResponse) {};
  EXPECT_TRUE(server
                  .SubmitQuery(session, ast::Program(), ast::Atom("q", {}),
                               Strategy::kAuto, drop)
                  .ok());
  EXPECT_TRUE(server
                  .SubmitQuery(session, ast::Program(), ast::Atom("q", {}),
                               Strategy::kAuto, drop)
                  .ok());
  // The session's budget (2) is exhausted while the global queue is not.
  st = server.SubmitQuery(session, ast::Program(), ast::Atom("q", {}),
                          Strategy::kAuto, drop);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  // A second session is unaffected by the first one's budget.
  uint64_t other = server.OpenSession();
  EXPECT_TRUE(server
                  .SubmitQuery(other, ast::Program(), ast::Atom("q", {}),
                               Strategy::kAuto, drop)
                  .ok());

  gate.set_value();
  server.Drain();
  // Closed sessions reject further submits.
  EXPECT_TRUE(server.CloseSession(session).ok());
  st = server.SubmitQuery(session, ast::Program(), ast::Atom("q", {}),
                          Strategy::kAuto, drop);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(server.CloseSession(session).code(), StatusCode::kNotFound);
  EXPECT_EQ(server.open_sessions(), 1u);
  server.Stop();
}

TEST(ServerTest, UpdateQueueBackpressure) {
  exec::ThreadPool pool(1);
  std::promise<void> gate;
  std::shared_future<void> opened = gate.get_future().share();
  std::promise<void> first_started;
  std::atomic<bool> signaled{false};
  serve::Server::Hooks hooks;
  hooks.read = [](const ast::Program&, const ast::Atom&, Strategy,
                  serve::QueryResponse*) {};
  hooks.apply = [&](bool, const ast::Atom&) {
    if (!signaled.exchange(true)) first_started.set_value();
    opened.wait();
    return Status::OK();
  };
  hooks.install = [] { return uint64_t{1}; };
  serve::ServeOptions options;
  options.max_update_queue = 1;
  serve::Server server(&pool, hooks, options);
  uint64_t session = server.OpenSession();

  auto drop = [](serve::UpdateResponse) {};
  // First update: drained by the writer immediately; wait until its apply is
  // visibly in flight so the queue is empty again.
  EXPECT_TRUE(server.SubmitUpdate(session, true, Edge(1, 2), drop).ok());
  first_started.get_future().wait();
  // Second: sits in the (length-1) queue. Third: rejected.
  EXPECT_TRUE(server.SubmitUpdate(session, true, Edge(2, 3), drop).ok());
  Status st = server.SubmitUpdate(session, true, Edge(3, 4), drop);
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);

  gate.set_value();
  server.Drain();
  serve::ServerStats stats = server.stats();
  EXPECT_EQ(stats.completed_updates, 2u);
  EXPECT_EQ(stats.rejected_updates, 1u);
  server.Stop();
  // Stopped servers reject structurally.
  st = server.SubmitUpdate(session, true, Edge(4, 5), drop);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

// ---- Engine integration -----------------------------------------------------

const char kRightTcText[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).";

TEST(ServeEngineTest, NotServingRejectsAndRequiresPool) {
  Engine sequential;  // num_threads == 0
  EXPECT_EQ(sequential.OpenSession(), 0u);
  EXPECT_EQ(sequential.StartServing().code(),
            StatusCode::kFailedPrecondition);
  serve::QueryResponse resp =
      sequential
          .SubmitQuery(1, ast::Program(), ast::Atom("q", {}), Strategy::kAuto)
          .get();
  EXPECT_EQ(resp.status.code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(sequential.serving_epoch(), 0u);
}

// The legacy stop-the-world guard must keep failing racing mutations on
// non-serving engines — retiring it is scoped to the serving path.
TEST(ServeEngineTest, LegacyGuardStillFailsOutsideServing) {
  EngineOptions options;
  options.eval.strategy = eval::Strategy::kNaive;  // deliberately slow
  Engine engine(options);
  for (int i = 1; i <= 500; ++i) engine.AddPair("e", i, i % 500 + 1);
  std::atomic<bool> done{false};
  std::thread worker([&] {
    auto answers = engine.Query(
        "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).");
    EXPECT_TRUE(answers.ok());
    done.store(true);
  });
  while (engine.running_queries() == 0 && !done.load()) {
    std::this_thread::yield();
  }
  Status st = engine.AddFact(Edge(500, 501));
  if (!st.ok()) {
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  } else {
    EXPECT_TRUE(done.load());  // the query won the race; legal
  }
  worker.join();
}

// The same shape of race on a serving engine: synchronous mutations reroute
// through the writer and must always succeed, readers never trip them.
TEST(ServeEngineTest, ServingMutationsNeverFailPrecondition) {
  EngineOptions options;
  options.num_threads = 2;
  options.num_shards = 2;
  Engine engine(options);
  for (int i = 1; i <= 64; ++i) engine.AddPair("e", i, i % 64 + 1);
  ASSERT_TRUE(engine.StartServing().ok());

  auto program = ast::ParseProgram(kRightTcText);
  auto query = ast::ParseAtom("t(1, Y)");
  ASSERT_TRUE(program.ok() && query.ok());
  uint64_t session = engine.OpenSession();
  std::vector<std::future<serve::QueryResponse>> reads;
  for (int i = 0; i < 16; ++i) {
    reads.push_back(
        engine.SubmitQuery(session, *program, *query, Strategy::kAuto));
    if (i % 2 == 0) {
      Status st = engine.AddFact(Edge(100 + i, 101 + i));
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
  for (auto& f : reads) {
    serve::QueryResponse resp = f.get();
    EXPECT_TRUE(resp.status.ok()) << resp.status.ToString();
  }
  EXPECT_TRUE(engine.StopServing().ok());
}

TEST(ServeEngineTest, ReadYourWrites) {
  EngineOptions options;
  options.num_threads = 2;
  options.num_shards = 2;
  Engine engine(options);
  engine.AddPair("e", 1, 2);
  ASSERT_TRUE(engine.StartServing().ok());
  auto program = ast::ParseProgram(kRightTcText);
  auto query = ast::ParseAtom("t(1, Y)");
  ASSERT_TRUE(program.ok() && query.ok());
  uint64_t session = engine.OpenSession();

  serve::UpdateResponse update =
      engine.SubmitUpdate(session, true, Edge(2, 3)).get();
  ASSERT_TRUE(update.status.ok());
  EXPECT_GE(update.epoch, 2u);  // epoch 1 is the pre-serving install

  // Submitted after the update completed: must see its epoch (or later) and
  // its consequences — t(1, 3) via the new edge.
  serve::QueryResponse read =
      engine.SubmitQuery(session, *program, *query, Strategy::kAuto).get();
  ASSERT_TRUE(read.status.ok());
  EXPECT_GE(read.epoch, update.epoch);
  EXPECT_EQ(read.answers.rows.size(), 2u);  // Y = 2, Y = 3
  EXPECT_TRUE(engine.StopServing().ok());
}

TEST(ServeEngineTest, ViewHitsServeFromFrozenEpochs) {
  EngineOptions options;
  options.num_threads = 2;
  options.num_shards = 2;
  Engine engine(options);
  engine.AddPair("e", 1, 2);
  engine.AddPair("e", 2, 3);
  auto program = ast::ParseProgram(kRightTcText);
  auto query = ast::ParseAtom("t(1, Y)");
  ASSERT_TRUE(program.ok() && query.ok());
  ASSERT_TRUE(engine.Materialize(*program, *query).ok());
  ASSERT_TRUE(engine.StartServing().ok());
  uint64_t session = engine.OpenSession();

  serve::QueryResponse read =
      engine.SubmitQuery(session, *program, *query, Strategy::kAuto).get();
  ASSERT_TRUE(read.status.ok());
  EXPECT_TRUE(read.view_hit);
  EXPECT_EQ(read.answers.rows.size(), 2u);

  serve::UpdateResponse update =
      engine.SubmitUpdate(session, true, Edge(3, 4)).get();
  ASSERT_TRUE(update.status.ok());
  read = engine.SubmitQuery(session, *program, *query, Strategy::kAuto).get();
  ASSERT_TRUE(read.status.ok());
  EXPECT_TRUE(read.view_hit);
  EXPECT_GE(read.epoch, update.epoch);
  EXPECT_EQ(read.answers.rows.size(), 3u);  // the view was maintained + frozen
  // View hits answer from the frozen copy: nothing is evaluated.
  EXPECT_EQ(engine.stats().executions, 0u);

  // Structural changes are fenced off while serving.
  EXPECT_EQ(engine.Materialize(*program, ast::ParseAtom("t(2, Y)").value())
                .status()
                .code(),
            StatusCode::kFailedPrecondition);
  EXPECT_TRUE(engine.StopServing().ok());
}

TEST(ServeEngineTest, InstallBuildsTheIndexesReadsRegistered) {
  // On a 200-node chain the compiled t(1, Y) plan probes e on its first
  // column. Snapshots are immutable, so the read scans and registers the
  // need; the next install (here driven by an update) builds it on the live
  // relation.
  EngineOptions options;
  options.num_threads = 2;
  Engine engine(options);
  for (int64_t i = 1; i < 200; ++i) engine.AddPair("e", i, i + 1);
  ASSERT_TRUE(engine.StartServing().ok());
  auto program = ast::ParseProgram(kRightTcText);
  auto query = ast::ParseAtom("t(1, Y)");
  ASSERT_TRUE(program.ok() && query.ok());
  uint64_t session = engine.OpenSession();

  serve::QueryResponse read =
      engine.SubmitQuery(session, *program, *query, Strategy::kAuto).get();
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(read.answers.rows.size(), 199u);
  EXPECT_FALSE(engine.db().Find("e")->HasIndex({0}));

  serve::UpdateResponse update =
      engine.SubmitUpdate(session, true, Edge(200, 201)).get();
  ASSERT_TRUE(update.status.ok());
  EXPECT_TRUE(engine.db().Find("e")->HasIndex({0}));
  EXPECT_FALSE(engine.db().Find("e")->HasIndex({1}));
  EXPECT_TRUE(engine.StopServing().ok());
}

TEST(ServeEngineTest, LeftToRightRegistersTheIndexesItProbes) {
  // Under kLeftToRight the reader evaluates the source-order plan, which
  // probes e(Y, Z) on both columns once the magic seed binds Z; the
  // cost-ordered compiled plan would probe e on column 1 instead. The
  // install must build the index the reader actually probes.
  EngineOptions options;
  options.num_threads = 2;
  options.eval.join_order = eval::JoinOrder::kLeftToRight;
  Engine engine(options);
  for (int64_t i = 1; i < 200; ++i) engine.AddPair("e", i, i + 1);
  ASSERT_TRUE(engine.StartServing().ok());
  auto program = ast::ParseProgram("r(X, Z) :- e(X, Y), e(Y, Z).");
  auto query = ast::ParseAtom("r(X, 7)");
  ASSERT_TRUE(program.ok() && query.ok());
  uint64_t session = engine.OpenSession();

  serve::QueryResponse read =
      engine.SubmitQuery(session, *program, *query, Strategy::kAuto).get();
  ASSERT_TRUE(read.status.ok()) << read.status.ToString();
  EXPECT_EQ(read.answers.rows.size(), 1u);  // X = 5

  serve::UpdateResponse update =
      engine.SubmitUpdate(session, true, Edge(200, 201)).get();
  ASSERT_TRUE(update.status.ok());
  EXPECT_TRUE(engine.db().Find("e")->HasIndex({0, 1}));
  EXPECT_FALSE(engine.db().Find("e")->HasIndex({1}));
  EXPECT_TRUE(engine.StopServing().ok());
}

const char* kTcQueries[] = {
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(2, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(3, Y).",
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y). ?- t(4, Y).",
    "p(X, Y) :- e(X, Y). p(X, Y) :- e(Y, X). ?- p(5, Y).",
    "q(X) :- e(X, Y). ?- q(X).",
    "r(X, Z) :- e(X, Y), e(Y, Z). ?- r(1, Z).",
    "s(Y) :- e(1, Y). s(Y) :- e(X, Y), s(X). ?- s(Y).",
    // Shares the first query's plan; its answers must carry its own name.
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Z).",
};

// Many reads in flight at once against a plan cache smaller than the
// distinct-plan count: concurrent misses, single-flight waits, inserts and
// evictions all race on the cache, and every answer must still equal a
// sequential engine's.
TEST(ServeEngineTest, PlanCacheStressWithEvictions) {
  EngineOptions options;
  options.num_threads = 8;
  options.plan_cache_capacity = 3;
  Engine engine(options);
  workload::MakeGrid(4, 4, "e", &engine.db());
  Engine oracle;
  workload::MakeGrid(4, 4, "e", &oracle.db());

  std::vector<ast::Program> programs;
  std::vector<std::vector<std::string>> expected;
  std::vector<std::vector<std::string>> expected_vars;
  for (const char* text : kTcQueries) {
    auto program = ast::ParseProgram(text);
    ASSERT_TRUE(program.ok()) << program.status().ToString();
    auto answers = oracle.Query(*program, *program->query());
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    expected.push_back(Rendered(*answers, oracle.db().store()));
    expected_vars.push_back(answers->vars);
    programs.push_back(std::move(program).value());
  }

  serve::ServeOptions serve_options;
  serve_options.max_inflight_per_session = 12 * programs.size();
  ASSERT_TRUE(engine.StartServing(serve_options).ok());
  const uint64_t session = engine.OpenSession();
  std::vector<std::future<serve::QueryResponse>> reads;
  for (int rep = 0; rep < 12; ++rep) {
    for (const ast::Program& program : programs) {
      reads.push_back(engine.SubmitQuery(session, program, *program.query(),
                                         Strategy::kAuto));
    }
  }
  for (size_t i = 0; i < reads.size(); ++i) {
    const size_t q = i % programs.size();
    serve::QueryResponse resp = reads[i].get();
    ASSERT_TRUE(resp.status.ok()) << kTcQueries[q] << ": "
                                  << resp.status.ToString();
    EXPECT_EQ(Rendered(resp.answers, engine.db().store()), expected[q])
        << kTcQueries[q];
    EXPECT_EQ(resp.answers.vars, expected_vars[q]) << kTcQueries[q];
  }
  EXPECT_LE(engine.plan_cache_size(), 3u);
  // Every read either compiled its plan or shared a cached or in-flight one.
  const api::EngineStats stats = engine.stats();
  EXPECT_EQ(stats.compiles + stats.cache_hits, reads.size());
  EXPECT_EQ(stats.executions, reads.size());
  EXPECT_TRUE(engine.StopServing().ok());
}

TEST(ServeEngineTest, FailingRequestFailsOnlyItsOwnResponse) {
  EngineOptions options;
  options.num_threads = 2;
  Engine engine(options);
  workload::MakeChain(6, "e", &engine.db());
  ASSERT_TRUE(engine.StartServing().ok());
  auto right_tc = ast::ParseProgram(kRightTcText);
  // The linear rewrite does not apply to nonlinear TC: compiling it fails.
  auto nonlinear =
      ast::ParseProgram("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y).");
  ASSERT_TRUE(right_tc.ok() && nonlinear.ok());
  const uint64_t session = engine.OpenSession();
  auto first = engine.SubmitQuery(session, *right_tc,
                                  ast::ParseAtom("t(1, Y)").value());
  auto failing =
      engine.SubmitQuery(session, *nonlinear, ast::ParseAtom("t(1, Y)").value(),
                         Strategy::kLinearRewrite);
  auto last = engine.SubmitQuery(session, *right_tc,
                                 ast::ParseAtom("t(2, Y)").value());

  serve::QueryResponse a = first.get();
  serve::QueryResponse b = failing.get();
  serve::QueryResponse c = last.get();
  ASSERT_TRUE(a.status.ok()) << a.status.ToString();
  EXPECT_FALSE(b.status.ok());
  ASSERT_TRUE(c.status.ok()) << c.status.ToString();
  EXPECT_EQ(a.answers.size(), 5u);
  EXPECT_EQ(b.answers.size(), 0u);
  EXPECT_EQ(c.answers.size(), 4u);
  EXPECT_TRUE(engine.StopServing().ok());
}

TEST(ServeEngineTest, EvaluatedReadsFeedStatsCatalogAndCountExecutions) {
  EngineOptions options;
  options.num_threads = 2;
  Engine engine(options);
  workload::MakeChain(6, "e", &engine.db());
  ASSERT_TRUE(engine.stats_catalog().Snapshot().empty());
  ASSERT_TRUE(engine.StartServing().ok());
  auto right_tc = ast::ParseProgram(kRightTcText);
  auto nonlinear =
      ast::ParseProgram("t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), t(W, Y).");
  ASSERT_TRUE(right_tc.ok() && nonlinear.ok());
  const uint64_t session = engine.OpenSession();

  // Two reads evaluate; the third fails to compile and never runs.
  std::vector<std::future<serve::QueryResponse>> reads;
  reads.push_back(engine.SubmitQuery(session, *right_tc,
                                     ast::ParseAtom("t(1, Y)").value()));
  reads.push_back(engine.SubmitQuery(session, *right_tc,
                                     ast::ParseAtom("t(2, Y)").value()));
  reads.push_back(engine.SubmitQuery(session, *nonlinear,
                                     ast::ParseAtom("t(1, Y)").value(),
                                     Strategy::kLinearRewrite));
  size_t ok = 0;
  for (auto& read : reads) ok += read.get().status.ok() ? 1 : 0;
  EXPECT_EQ(ok, 2u);
  EXPECT_FALSE(engine.stats_catalog().Snapshot().empty());
  EXPECT_EQ(engine.stats().executions, 2u);
  EXPECT_TRUE(engine.StopServing().ok());
}

TEST(ServeEngineTest, SynchronousQueryReroutesWhileServing) {
  EngineOptions options;
  options.num_threads = 2;
  Engine engine(options);
  engine.AddPair("e", 1, 2);
  ASSERT_TRUE(engine.StartServing().ok());
  // Query() while serving evaluates inline against the snapshot; stats say
  // so via execute_us and no epoch-guard failure is possible.
  api::QueryStats stats;
  auto program = ast::ParseProgram(kRightTcText);
  auto query = ast::ParseAtom("t(1, Y)");
  ASSERT_TRUE(program.ok() && query.ok());
  auto answers = engine.Query(*program, *query, Strategy::kAuto, &stats);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_EQ(answers->rows.size(), 1u);
  // AddFact reroutes through the writer: visible to the next read.
  ASSERT_TRUE(engine.AddFact(Edge(2, 3)).ok());
  answers = engine.Query(*program, *query, Strategy::kAuto);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 2u);
  EXPECT_TRUE(engine.StopServing().ok());
  // And back: the stop-the-world path still works after StopServing.
  ASSERT_TRUE(engine.AddFact(Edge(3, 4)).ok());
  answers = engine.Query(*program, *query, Strategy::kAuto);
  ASSERT_TRUE(answers.ok());
  EXPECT_EQ(answers->rows.size(), 3u);
}

}  // namespace
}  // namespace factlog
