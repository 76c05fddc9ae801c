// Tests for the disk-backed persistence subsystem (src/storage) and its
// engine integration: slotted-page row stores under buffer-pool eviction,
// WAL framing and torn-tail recovery, checkpoint round-trips of relations /
// values / views / plans, the stale-plan guard, and a kill-point sweep
// asserting recovery lands exactly on the last committed epoch.

#include "storage/storage_manager.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "eval/relation.h"
#include "storage/buffer_pool.h"
#include "storage/log_records.h"
#include "storage/paged_store.h"
#include "storage/wal.h"
#include "tests/test_util.h"

namespace factlog::storage {
namespace {

namespace fs = std::filesystem;

using test::A;
using test::P;

// RAII scratch directory under the system temp dir.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag) {
    path_ = (fs::temp_directory_path() /
             ("factlog_" + tag + "_" + std::to_string(counter_++)))
                .string();
    fs::remove_all(path_);
    fs::create_directories(path_);
  }
  ~ScratchDir() {
    std::error_code ec;
    fs::remove_all(path_, ec);
  }
  const std::string& path() const { return path_; }

 private:
  static int counter_;
  std::string path_;
};
int ScratchDir::counter_ = 0;

// Every ground fact in the engine's EDB rendered "pred(v1, v2)" — the
// cross-restart equality oracle (ValueIds differ between stores; the
// rendering does not).
std::set<std::string> EdbFacts(api::Engine* engine) {
  std::set<std::string> out;
  const eval::ValueStore& store = engine->db().store();
  for (const auto& [name, rel] : engine->db().relations()) {
    rel->SyncShards();
    for (size_t r = 0; r < rel->size(); ++r) {
      const eval::ValueId* row = rel->row(r);
      std::string s = name + "(";
      for (size_t i = 0; i < rel->arity(); ++i) {
        if (i > 0) s += ", ";
        s += store.ToString(row[i]);
      }
      s += ")";
      out.insert(std::move(s));
    }
  }
  return out;
}

std::set<std::string> Tuples(const eval::AnswerSet& answers,
                             const eval::ValueStore& store) {
  std::set<std::string> out;
  for (const auto& row : answers.rows) {
    std::string s = "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) s += ", ";
      s += store.ToString(row[i]);
    }
    s += ")";
    out.insert(std::move(s));
  }
  return out;
}

// ---- PagedRowStore ----------------------------------------------------------

TEST(PagedStore, AppendCopyWritePopRoundTrip) {
  ScratchDir dir("rowstore");
  auto space = std::make_shared<TableSpace>(/*frame_budget=*/8);
  ASSERT_TRUE(space->file.Open(dir.path() + "/pages.db").ok());
  PagedRowStore store(space, /*row_bytes=*/2 * sizeof(int32_t));
  const size_t kRows = 5000;  // spans many pages
  for (size_t i = 0; i < kRows; ++i) {
    int32_t row[2] = {static_cast<int32_t>(i), static_cast<int32_t>(i * 7)};
    ASSERT_TRUE(store.Append(row).ok());
  }
  ASSERT_EQ(store.num_rows(), kRows);
  int32_t got[2];
  for (size_t i = 0; i < kRows; i += 97) {
    ASSERT_TRUE(store.CopyRow(i, got).ok());
    EXPECT_EQ(got[0], static_cast<int32_t>(i));
    EXPECT_EQ(got[1], static_cast<int32_t>(i * 7));
  }
  int32_t patched[2] = {-1, -2};
  ASSERT_TRUE(store.WriteRow(1234, patched).ok());
  ASSERT_TRUE(store.CopyRow(1234, got).ok());
  EXPECT_EQ(got[0], -1);
  ASSERT_TRUE(store.PopBack().ok());
  EXPECT_EQ(store.num_rows(), kRows - 1);
  // The tiny frame budget forces eviction (and dirty write-back) mid-append.
  EXPECT_GT(space->pool.stats().evictions, 0u);
  EXPECT_GT(space->pool.stats().dirty_writebacks, 0u);
}

TEST(PagedStore, SealedPageRelocatesOnWrite) {
  ScratchDir dir("seal");
  auto space = std::make_shared<TableSpace>(8);
  ASSERT_TRUE(space->file.Open(dir.path() + "/pages.db").ok());
  PagedRowStore store(space, sizeof(int32_t));
  for (int32_t i = 0; i < 10; ++i) ASSERT_TRUE(store.Append(&i).ok());
  std::vector<PageId> before = store.chain();
  ASSERT_EQ(before.size(), 1u);
  store.SealAll();
  int32_t v = 99;
  ASSERT_TRUE(store.WriteRow(0, &v).ok());
  // Copy-on-write: the sealed page moved to a fresh id.
  EXPECT_NE(store.chain()[0], before[0]);
  int32_t got = 0;
  ASSERT_TRUE(store.CopyRow(0, &got).ok());
  EXPECT_EQ(got, 99);
  ASSERT_TRUE(store.CopyRow(5, &got).ok());
  EXPECT_EQ(got, 5);
}

// ---- Paged relations vs the RAM oracle --------------------------------------

TEST(PagedRelation, MatchesRamOracleUnderChurn) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ScratchDir dir("churn");
    auto space = std::make_shared<TableSpace>(16);
    ASSERT_TRUE(space->file.Open(dir.path() + "/pages.db").ok());
    eval::StorageOptions so;
    so.num_shards = shards;
    eval::Relation paged(2, so);
    eval::Relation ram(2, so);
    std::mt19937 rng(42);
    std::vector<std::vector<eval::ValueId>> live;
    for (int step = 0; step < 4000; ++step) {
      if (step == 500) {
        ASSERT_TRUE(paged.AttachPagedStore(space));
      }
      bool insert = live.empty() || rng() % 3 != 0;
      if (insert) {
        std::vector<eval::ValueId> row = {
            static_cast<eval::ValueId>(rng() % 500),
            static_cast<eval::ValueId>(rng() % 500)};
        EXPECT_EQ(paged.Insert(row), ram.Insert(row));
        live.push_back(std::move(row));
      } else {
        size_t pick = rng() % live.size();
        std::vector<eval::ValueId> row = live[pick];
        live.erase(live.begin() + pick);
        EXPECT_EQ(paged.Erase(row.data()), ram.Erase(row.data()));
      }
    }
    paged.SyncShards();
    ram.SyncShards();
    ASSERT_EQ(paged.size(), ram.size());
    EXPECT_TRUE(paged.is_paged());
    std::set<std::vector<eval::ValueId>> a, b;
    for (size_t r = 0; r < paged.size(); ++r) {
      const eval::ValueId* row = paged.row(r);  // one call: the copy-out
      a.emplace(row, row + 2);                  // ring rotates per row()
    }
    for (size_t r = 0; r < ram.size(); ++r) {
      const eval::ValueId* row = ram.row(r);
      b.emplace(row, row + 2);
    }
    EXPECT_EQ(a, b);
  }
}

// ---- WAL --------------------------------------------------------------------

TEST(Wal, TornTailIsDropped) {
  ScratchDir dir("wal");
  const std::string path = dir.path() + "/wal.log";
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0).ok());
    ASSERT_TRUE(
        w.Append(WalRecordType::kAddFact, EncodeFactRecord(A("e(1, 2)")))
            .ok());
    ASSERT_TRUE(w.Commit(1).ok());
    ASSERT_TRUE(
        w.Append(WalRecordType::kAddFact, EncodeFactRecord(A("e(2, 3)")))
            .ok());
    ASSERT_TRUE(w.Commit(2).ok());
  }
  std::vector<WalRecord> records;
  uint64_t valid = 0;
  ASSERT_TRUE(ReadWal(path, &records, &valid).ok());
  ASSERT_EQ(records.size(), 4u);
  // Chop mid-way into the final commit record: the prefix survives intact.
  fs::resize_file(path, valid - 3);
  records.clear();
  ASSERT_TRUE(ReadWal(path, &records, &valid).ok());
  ASSERT_EQ(records.size(), 3u);
  EXPECT_EQ(records[2].type, WalRecordType::kAddFact);
  ast::Atom fact;
  ASSERT_TRUE(DecodeFactRecord(records[2].payload.data(),
                               records[2].payload.size(), &fact));
  EXPECT_EQ(fact.ToString(), "e(2, 3)");
}

TEST(Wal, CorruptRecordStopsTheScan) {
  ScratchDir dir("walcrc");
  const std::string path = dir.path() + "/wal.log";
  {
    WalWriter w;
    ASSERT_TRUE(w.Open(path, 0).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(w.Append(WalRecordType::kAddFact,
                           EncodeFactRecord(
                               A("e(" + std::to_string(i) + ", 0)")))
                      .ok());
    }
    ASSERT_TRUE(w.Commit(1).ok());
  }
  std::vector<WalRecord> records;
  uint64_t valid = 0;
  ASSERT_TRUE(ReadWal(path, &records, &valid).ok());
  ASSERT_EQ(records.size(), 5u);
  // Flip one byte mid-log; the scan must stop at the broken record.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const auto target = static_cast<std::streamoff>(valid / 2 + 2);
  f.seekg(target);
  char c;
  f.get(c);
  f.seekp(target);
  c = static_cast<char>(c ^ 0x5a);
  f.write(&c, 1);
  f.close();
  records.clear();
  Status st = ReadWal(path, &records, &valid);
  ASSERT_TRUE(st.ok()) << st.ToString();
  EXPECT_LT(records.size(), 5u);
}

// ---- Engine: save, kill, reopen ---------------------------------------------

TEST(EnginePersistence, ReopenRestoresFactsAndAnswers) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ScratchDir dir("reopen");
    api::EngineOptions opts;
    opts.num_shards = shards;
    const std::string prog =
        "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
    std::set<std::string> facts_before;
    std::set<std::string> answers_before;
    {
      auto engine = api::Engine::Open(dir.path(), opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      std::string facts;
      for (int i = 1; i <= 40; ++i) {
        facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) +
                 ").\n";
      }
      ASSERT_TRUE((*engine)->LoadFacts(facts).ok());
      ASSERT_TRUE((*engine)->Checkpoint().ok());
      // Post-checkpoint mutations: these live only in the WAL.
      ASSERT_TRUE((*engine)->AddFact(A("e(41, 42)")).ok());
      ASSERT_TRUE((*engine)->RemoveFact(A("e(1, 2)")).ok());
      facts_before = EdbFacts(engine->get());
      auto answers = (*engine)->Query(prog);
      ASSERT_TRUE(answers.ok()) << answers.status().ToString();
      answers_before = Tuples(*answers, (*engine)->db().store());
    }  // destructor = kill (no second checkpoint)
    auto engine = api::Engine::Open(dir.path(), opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    EXPECT_EQ(EdbFacts(engine->get()), facts_before);
    EXPECT_EQ((*engine)->persistence_stats().facts_replayed, 2u);
    auto answers = (*engine)->Query(prog);
    ASSERT_TRUE(answers.ok()) << answers.status().ToString();
    EXPECT_EQ(Tuples(*answers, (*engine)->db().store()), answers_before);
  }
}

TEST(EnginePersistence, CompoundTermsSurviveRestart) {
  ScratchDir dir("compound");
  std::set<std::string> before;
  {
    auto engine = api::Engine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE(
        (*engine)->LoadFacts("p(f(1, g(a)), [1, 2, 3]). p(b, []).").ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
    // And one compound fact that only the WAL knows about.
    ASSERT_TRUE((*engine)->AddFact(A("p(h(-5), [x, [y]])")).ok());
    before = EdbFacts(engine->get());
  }
  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(EdbFacts(engine->get()), before);
}

TEST(EnginePersistence, EvictionActiveOnLargerThanBudgetDataset) {
  ScratchDir dir("evict");
  api::EngineOptions opts;
  // 16 frames = 64 KiB of residency; the dataset pages to ~4.3x that.
  opts.storage_frame_budget = 16;
  const int kFacts = 28000;  // arity 2 → ~409 rows/page → ~69 pages
  std::string facts;
  for (int i = 0; i < kFacts; ++i) {
    facts += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  const std::string prog = "b(X) :- e(X, Y), e(Y, Z). ?- b(X).";
  std::set<std::string> answers_mem;
  {
    api::Engine mem;  // in-memory oracle
    ASSERT_TRUE(mem.LoadFacts(facts).ok());
    auto a = mem.Query(prog);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    answers_mem = Tuples(*a, mem.db().store());
  }
  auto engine = api::Engine::Open(dir.path(), opts);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_TRUE((*engine)->LoadFacts(facts).ok());
  ASSERT_TRUE((*engine)->Checkpoint().ok());
  auto a = (*engine)->Query(prog);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(Tuples(*a, (*engine)->db().store()), answers_mem);
  auto ps = (*engine)->persistence_stats();
  EXPECT_GT(ps.storage.pool.evictions, 0u);
  EXPECT_GT(ps.storage.num_pages, 4 * opts.storage_frame_budget);
}

// ---- Views and plans across restarts ----------------------------------------

TEST(EnginePersistence, MaterializedViewRestoredWithoutReevaluation) {
  ScratchDir dir("view");
  const std::string prog =
      "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).";
  std::set<std::string> answers_before;
  {
    auto engine = api::Engine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->LoadFacts("e(1, 2). e(2, 3). e(3, 4).").ok());
    auto handle = (*engine)->Materialize(prog);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE((*engine)->AddFact(A("e(4, 5)")).ok());
    auto a = (*engine)->AnswerFromView(*handle);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    answers_before = Tuples(*a, (*engine)->db().store());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ((*engine)->num_views(), 1u);
  EXPECT_EQ((*engine)->persistence_stats().views_restored, 1u);
  // The query answers from the restored view, not a fresh evaluation.
  auto a = (*engine)->Query(prog);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_EQ(Tuples(*a, (*engine)->db().store()), answers_before);
  EXPECT_EQ((*engine)->stats().view_hits, 1u);
  // Incremental maintenance keeps working after the restore.
  ASSERT_TRUE((*engine)->AddFact(A("e(5, 6)")).ok());
  ASSERT_TRUE((*engine)->RemoveFact(A("e(2, 3)")).ok());
  auto maintained = (*engine)->Query(prog);
  ASSERT_TRUE(maintained.ok()) << maintained.status().ToString();
  api::Engine oracle;
  ASSERT_TRUE(oracle.LoadFacts("e(1, 2). e(3, 4). e(4, 5). e(5, 6).").ok());
  auto expect = oracle.Query(prog);
  ASSERT_TRUE(expect.ok()) << expect.status().ToString();
  EXPECT_EQ(Tuples(*maintained, (*engine)->db().store()),
            Tuples(*expect, oracle.db().store()));
}

// Checkpoints persist a view's rows, not its derivation edges: the reopened
// view owes its edge store and builds it for the first `why`, printing the
// same tree the live view printed before the checkpoint.
TEST(EnginePersistence, WhyTreeSurvivesReopen) {
  ScratchDir dir("why");
  const std::string prog =
      "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).";
  std::string key, before;
  ast::Atom fact;
  {
    auto engine = api::Engine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->LoadFacts("e(1, 2). e(2, 3). e(3, 4).").ok());
    auto handle = (*engine)->Materialize(prog);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    key = handle->key;
    // The view holds the compiled program; ask about its query predicate.
    const ast::Atom& q = *(*engine)->view(*handle)->program().query();
    fact = ast::Atom(q.predicate(), {ast::Term::Int(1), ast::Term::Int(4)});
    auto tree = (*engine)->ExplainFromView(*handle, fact);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    before = *tree;
    ASSERT_NE(before.find("[rule"), std::string::npos) << before;
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  const api::ViewHandle handle{key};
  auto stats = (*engine)->ViewStatsFor(handle);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_FALSE(stats->edge_store_active);
  EXPECT_EQ(stats->edge_store_edges, 0u);
  EXPECT_TRUE((*engine)->view(handle)->edge_store_owed());
  auto tree = (*engine)->ExplainFromView(handle, fact);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(*tree, before);
  stats = (*engine)->ViewStatsFor(handle);
  ASSERT_TRUE(stats.ok());
  EXPECT_TRUE(stats->edge_store_active);
  EXPECT_GT(stats->edge_store_edges, 0u);
  EXPECT_FALSE((*engine)->view(handle)->edge_store_owed());
}

// A reopened Counting view is bounded like a fresh one: its plan comes back
// with the checkpoint's plan cache, and a cyclic insert fails fast (§6.4).
TEST(EnginePersistence, RestoredCountingViewStaysBounded) {
  ScratchDir dir("counting");
  const std::string prog =
      "t(X, Y) :- e(X, W), t(W, Y). t(X, Y) :- e(X, Y). ?- t(1, Y).";
  std::string chain;
  for (int i = 1; i <= 61; ++i) {
    chain += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + "). ";
  }
  {
    auto engine = api::Engine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->LoadFacts(chain).ok());
    auto parsed = ast::ParseProgram(prog);
    ASSERT_TRUE(parsed.ok());
    auto handle = (*engine)->Materialize(*parsed, *parsed->query(),
                                         core::Strategy::kCounting);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_EQ((*engine)->persistence_stats().views_restored, 1u);
  const auto start = std::chrono::steady_clock::now();
  Status st = (*engine)->AddFact(A("e(7, 3)"));
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(st.code(), StatusCode::kResourceExhausted) << st.ToString();
  EXPECT_NE(st.message().find("§6.4"), std::string::npos) << st.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(1));
}

TEST(EnginePersistence, PlansRestoredWarmAfterDrift) {
  ScratchDir dir("plans");
  const std::string small_prog = "a(X) :- e(X, Y). ?- a(X).";
  const std::string big_prog = "b(X) :- f(X, Y). ?- b(X).";
  {
    auto engine = api::Engine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->LoadFacts("e(1, 2). f(1, 2).").ok());
    ASSERT_TRUE((*engine)->Query(small_prog).ok());
    ASSERT_TRUE((*engine)->Query(big_prog).ok());
    EXPECT_EQ((*engine)->plan_cache_size(), 2u);
    // Grow f past the 4x drift threshold, then checkpoint: the persisted
    // f-plan's hints describe a relation 31x smaller than the one the
    // checkpoint records.
    std::string facts;
    for (int i = 10; i < 40; ++i) {
      facts += "f(" + std::to_string(i) + ", 0).\n";
    }
    ASSERT_TRUE((*engine)->LoadFacts(facts).ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
  }
  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  auto ps = (*engine)->persistence_stats();
  // Both plans come back warm: Open recompiles against the live extents, so
  // the f() plan's 31x drift is absorbed there instead of dropping it.
  EXPECT_EQ(ps.plans_restored, 2u);
  EXPECT_EQ(ps.plans_dropped, 0u);
  const api::EngineStats at_open = (*engine)->stats();
  // Each restored plan serves its first query as a cache hit.
  api::QueryStats qs;
  auto a = (*engine)->Query(P(small_prog), A("a(X)"), api::Strategy::kAuto,
                            &qs);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  EXPECT_TRUE(qs.cache_hit);
  auto b = (*engine)->Query(P(big_prog), A("b(X)"), api::Strategy::kAuto,
                            &qs);
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  EXPECT_TRUE(qs.cache_hit) << "the drifted f() plan must come back warm";
  EXPECT_EQ((*engine)->stats().compiles, at_open.compiles);
  EXPECT_EQ((*engine)->stats().plans_recosted, at_open.plans_recosted)
      << "the warm recompile already costed against live sizes";
}

TEST(EngineStaleGuard, RuntimeDriftRecostsCachedPlanInPlace) {
  api::Engine engine;  // in-memory: the guard is not persistence-only
  ASSERT_TRUE(engine.LoadFacts("e(1, 2). e(2, 3).").ok());
  const std::string prog = "a(X) :- e(X, Y). ?- a(X).";
  ASSERT_TRUE(engine.Query(prog).ok());
  EXPECT_EQ(engine.stats().plans_recosted, 0u);
  const uint64_t compiles_before = engine.stats().compiles;
  std::string facts;
  for (int i = 10; i < 60; ++i) {
    facts += "e(" + std::to_string(i) + ", 0).\n";
  }
  ASSERT_TRUE(engine.LoadFacts(facts).ok());
  api::QueryStats qs;
  ASSERT_TRUE(
      engine.Query(P(prog), A("a(X)"), api::Strategy::kAuto, &qs).ok());
  // 26x extent drift: the cached plan is re-costed in place — still a cache
  // hit, the join orders rebuilt from current sizes, zero recompiles.
  EXPECT_TRUE(qs.cache_hit) << "re-costing must not evict the cached plan";
  EXPECT_EQ(engine.stats().plans_recosted, 1u);
  EXPECT_EQ(engine.stats().compiles, compiles_before)
      << "drift must re-cost, not recompile";
  // The re-costed plan's hints now match current sizes: the next hit sticks.
  ASSERT_TRUE(
      engine.Query(P(prog), A("a(X)"), api::Strategy::kAuto, &qs).ok());
  EXPECT_TRUE(qs.cache_hit);
  EXPECT_EQ(engine.stats().plans_recosted, 1u);
}

// ---- Kill-point sweep -------------------------------------------------------

// Parses the WAL's physical framing independently of the storage layer's
// reader: the byte offset just past each record, and the cumulative number
// of commit records completed at that offset.
struct WalLayout {
  std::vector<uint64_t> record_ends;
  std::vector<size_t> commits_at_end;
};

WalLayout ParseWalLayout(const std::string& path) {
  WalLayout out;
  std::ifstream f(path, std::ios::binary);
  std::string bytes((std::istreambuf_iterator<char>(f)),
                    std::istreambuf_iterator<char>());
  uint64_t pos = 0;
  size_t commits = 0;
  while (pos + 4 <= bytes.size()) {
    uint32_t len;
    std::memcpy(&len, bytes.data() + pos, 4);
    const uint64_t end = pos + 4 + len + 4;
    if (len < 1 || end > bytes.size()) break;
    const auto type = static_cast<uint8_t>(bytes[pos + 4]);
    if (type == static_cast<uint8_t>(WalRecordType::kCommit)) ++commits;
    out.record_ends.push_back(end);
    out.commits_at_end.push_back(commits);
    pos = end;
  }
  return out;
}

TEST(KillPointSweep, RecoveryLandsOnLastCommittedEpoch) {
  for (size_t shards : {size_t{1}, size_t{2}, size_t{8}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    ScratchDir dir("kill");
    api::EngineOptions opts;
    opts.num_shards = shards;

    // Epoch script: each entry commits one epoch (one AddFact/RemoveFact).
    // epoch_facts[k] = the EDB after k committed post-checkpoint epochs.
    std::vector<std::set<std::string>> epoch_facts;
    {
      auto engine = api::Engine::Open(dir.path(), opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      ASSERT_TRUE((*engine)->LoadFacts("e(1, 2). e(2, 3). e(3, 1).").ok());
      ASSERT_TRUE((*engine)->Checkpoint().ok());
      epoch_facts.push_back(EdbFacts(engine->get()));
      const std::vector<std::pair<bool, std::string>> script = {
          {true, "e(4, 5)"},         {true, "e(5, 6)"},  {false, "e(1, 2)"},
          {true, "p(f(7), [8, 9])"}, {false, "e(5, 6)"}, {true, "e(6, 7)"},
      };
      for (const auto& [insert, fact] : script) {
        ASSERT_TRUE((insert ? (*engine)->AddFact(A(fact))
                            : (*engine)->RemoveFact(A(fact)))
                        .ok());
        epoch_facts.push_back(EdbFacts(engine->get()));
      }
    }

    const std::string wal = dir.path() + "/wal.log";
    WalLayout layout = ParseWalLayout(wal);
    const uint64_t wal_size = fs::file_size(wal);
    ASSERT_FALSE(layout.record_ends.empty());
    ASSERT_EQ(layout.record_ends.back(), wal_size);
    ASSERT_EQ(layout.commits_at_end.back(), epoch_facts.size() - 1);

    // Kill points: every record boundary, one byte into the next record
    // (a torn write), and the degenerate empty/near-empty log.
    std::vector<uint64_t> cuts = {0, 1};
    for (size_t i = 0; i < layout.record_ends.size(); ++i) {
      cuts.push_back(layout.record_ends[i]);
      if (layout.record_ends[i] + 1 < wal_size) {
        cuts.push_back(layout.record_ends[i] + 1);
      }
    }
    for (uint64_t cut : cuts) {
      SCOPED_TRACE("cut at byte " + std::to_string(cut));
      ScratchDir crash("killcopy");
      fs::copy(dir.path(), crash.path(),
               fs::copy_options::recursive |
                   fs::copy_options::overwrite_existing);
      fs::resize_file(crash.path() + "/wal.log", cut);
      // Epochs whose commit record fully precedes the cut survive; nothing
      // after the last such commit may.
      size_t committed = 0;
      for (size_t i = 0; i < layout.record_ends.size(); ++i) {
        if (layout.record_ends[i] <= cut) committed = layout.commits_at_end[i];
      }
      auto engine = api::Engine::Open(crash.path(), opts);
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();
      EXPECT_EQ(EdbFacts(engine->get()), epoch_facts[committed]);
      // Recovery truncated the torn tail; the engine keeps accepting writes.
      ASSERT_TRUE((*engine)->AddFact(A("q(1)")).ok());
    }
  }
}

TEST(KillPointSweep, CorruptTailRecordIsDiscarded) {
  ScratchDir dir("corrupt");
  std::set<std::string> committed_facts;
  {
    auto engine = api::Engine::Open(dir.path());
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_TRUE((*engine)->LoadFacts("e(1, 2).").ok());
    ASSERT_TRUE((*engine)->Checkpoint().ok());
    ASSERT_TRUE((*engine)->AddFact(A("e(2, 3)")).ok());
    committed_facts = EdbFacts(engine->get());
    ASSERT_TRUE((*engine)->AddFact(A("e(3, 4)")).ok());
  }
  // Flip a byte inside the LAST epoch's fact record: its commit now follows
  // a corrupt record, so recovery must stop before both.
  const std::string wal = dir.path() + "/wal.log";
  WalLayout layout = ParseWalLayout(wal);
  ASSERT_EQ(layout.record_ends.size(), 4u);  // fact, commit, fact, commit
  const auto target =
      static_cast<std::streamoff>(layout.record_ends[1] + 5);  // payload byte
  std::fstream f(wal, std::ios::in | std::ios::out | std::ios::binary);
  f.seekg(target);
  char c;
  f.get(c);
  f.seekp(target);
  c = static_cast<char>(c ^ 0x5a);
  f.write(&c, 1);
  f.close();
  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_EQ(EdbFacts(engine->get()), committed_facts);
}

// ---- Storage stats ----------------------------------------------------------

TEST(StorageStats, CountersMove) {
  ScratchDir dir("stats");
  auto engine = api::Engine::Open(dir.path());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  EXPECT_TRUE((*engine)->persistent());
  ASSERT_TRUE((*engine)->LoadFacts("e(1, 2). e(2, 3).").ok());
  auto ps = (*engine)->persistence_stats();
  EXPECT_EQ(ps.storage.wal_records_logged, 2u);
  EXPECT_GT(ps.storage.wal_bytes, 0u);
  EXPECT_EQ(ps.storage.last_committed_epoch, 1u);
  ASSERT_TRUE((*engine)->Checkpoint().ok());
  ps = (*engine)->persistence_stats();
  EXPECT_EQ(ps.storage.checkpoints, 1u);
  EXPECT_EQ(ps.storage.wal_bytes, 0u) << "checkpoint resets the WAL";
  EXPECT_GT(ps.storage.num_pages, 0u);
}

}  // namespace
}  // namespace factlog::storage
