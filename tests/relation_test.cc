#include "eval/relation.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/database.h"
#include "eval/seminaive.h"
#include "storage/paged_store.h"
#include "tests/sweep_corpus.h"
#include "tests/test_util.h"

namespace factlog::eval {
namespace {

TEST(ValueStoreTest, InterningIsIdempotent) {
  ValueStore s;
  EXPECT_EQ(s.InternInt(5), s.InternInt(5));
  EXPECT_NE(s.InternInt(5), s.InternInt(6));
  EXPECT_EQ(s.InternSym("a"), s.InternSym("a"));
  EXPECT_NE(s.InternSym("a"), s.InternSym("b"));
  EXPECT_NE(s.InternInt(1), s.InternSym("1"));
}

TEST(ValueStoreTest, CompoundHashConsing) {
  ValueStore s;
  ValueId one = s.InternInt(1);
  ValueId a = s.InternApp("f", {one});
  ValueId b = s.InternApp("f", {one});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, s.InternApp("g", {one}));
  EXPECT_NE(a, s.InternApp("f", {one, one}));
}

TEST(ValueStoreTest, StructureSharingOfLists) {
  // The n suffixes of an n-element list must reuse nodes: interning
  // [1,2,...,n] then [2,...,n] adds no new node for the latter.
  ValueStore s;
  ast::Term full = ast::Term::List(
      {ast::Term::Int(1), ast::Term::Int(2), ast::Term::Int(3)});
  auto full_id = s.FromTerm(full);
  ASSERT_TRUE(full_id.ok());
  size_t size_after_full = s.size();
  ast::Term suffix = ast::Term::List({ast::Term::Int(2), ast::Term::Int(3)});
  auto suffix_id = s.FromTerm(suffix);
  ASSERT_TRUE(suffix_id.ok());
  EXPECT_EQ(s.size(), size_after_full);  // no new nodes
  // The suffix is literally the tail child of the full list.
  EXPECT_EQ(s.Child(*full_id, 1), *suffix_id);
}

TEST(ValueStoreTest, RoundTripThroughTerms) {
  ValueStore s;
  ast::Term t = test::T("f(1, [a, b], g(2))");
  auto id = s.FromTerm(t);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(s.ToTerm(*id), t);
}

TEST(ValueStoreTest, NonGroundTermRejected) {
  ValueStore s;
  auto id = s.FromTerm(ast::Term::Var("X"));
  EXPECT_FALSE(id.ok());
  EXPECT_EQ(id.status().code(), StatusCode::kInvalidArgument);
}

TEST(RelationTest, InsertAndDedup) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  EXPECT_FALSE(r.Insert({1, 2}));
  EXPECT_TRUE(r.Insert({2, 1}));
  EXPECT_EQ(r.size(), 2u);
  ValueId row[2] = {1, 2};
  EXPECT_TRUE(r.Contains(row));
  ValueId missing[2] = {9, 9};
  EXPECT_FALSE(r.Contains(missing));
}

TEST(RelationTest, LookupByColumn) {
  Relation r(2);
  r.Insert({1, 10});
  r.Insert({1, 11});
  r.Insert({2, 12});
  const auto& rows = r.Lookup({0}, {1});
  EXPECT_EQ(rows.size(), 2u);
  const auto& none = r.Lookup({0}, {3});
  EXPECT_TRUE(none.empty());
  const auto& both = r.Lookup({0, 1}, {2, 12});
  EXPECT_EQ(both.size(), 1u);
}

TEST(RelationTest, IndexStaysFreshAfterInsert) {
  Relation r(2);
  r.Insert({1, 10});
  EXPECT_EQ(r.Lookup({0}, {1}).size(), 1u);  // builds the index
  r.Insert({1, 11});                         // must update it
  EXPECT_EQ(r.Lookup({0}, {1}).size(), 2u);
}

TEST(RelationTest, Absorb) {
  Relation a(1), b(1);
  a.Insert({1});
  b.Insert({1});
  b.Insert({2});
  a.Absorb(b);
  EXPECT_EQ(a.size(), 2u);
}

TEST(RelationTest, Clear) {
  Relation r(1);
  r.Insert({1});
  r.Lookup({0}, {1});  // memoizes the {0} index
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_TRUE(r.Lookup({0}, {1}).empty());
  EXPECT_TRUE(r.Insert({1}));
  EXPECT_TRUE(r.Insert({2}));
  // Clear dropped the memo with the indices: lookups see the new rows.
  EXPECT_EQ(r.Lookup({0}, {1}).size(), 1u);
  EXPECT_EQ(r.Lookup({0}, {2}).size(), 1u);
}

TEST(RelationTest, ReserveDoesNotChangeContents) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}));
  r.Reserve(1000);
  EXPECT_EQ(r.size(), 1u);
  EXPECT_FALSE(r.Insert({1, 2}));
  for (ValueId i = 10; i < 110; ++i) {
    EXPECT_TRUE(r.Insert({i, i + 1}));
  }
  EXPECT_EQ(r.size(), 101u);
}

// The fixpoints absorb each round's delta into the full relation, a few rows
// at a time; Reserve must grow the row store geometrically, or every round
// reallocates (and copies) all of it.
TEST(RelationTest, RepeatedSmallAbsorbsReallocateLogarithmically) {
  Relation full(2);
  size_t moves = 0;
  const ValueId* first = nullptr;
  for (ValueId i = 0; i < 64; ++i) {
    Relation delta(2);
    delta.Insert({i, i + 1});
    ASSERT_EQ(full.Absorb(delta), 1u);
    if (full.row(0) != first) ++moves;
    first = full.row(0);
  }
  EXPECT_LE(moves, 8u);
}

TEST(RelationTest, MoveInsertAcceptsTemporaries) {
  Relation r(3);
  EXPECT_TRUE(r.Insert(std::vector<ValueId>{1, 2, 3}));
  EXPECT_FALSE(r.Insert(std::vector<ValueId>{1, 2, 3}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(RelationTest, AbsorbReportsNewRowCount) {
  Relation a(2), b(2);
  a.Insert({1, 2});
  a.Insert({2, 3});
  b.Insert({2, 3});
  b.Insert({3, 4});
  b.Insert({4, 5});
  EXPECT_EQ(a.Absorb(b), 2u);  // {3,4} and {4,5}; {2,3} was known
  EXPECT_EQ(a.size(), 4u);
  EXPECT_EQ(a.Absorb(b), 0u);
}

TEST(RelationTest, FindIndexedRequiresEnsureIndex) {
  Relation r(2);
  r.Insert({1, 2});
  r.Insert({1, 3});
  r.Insert({2, 3});
  // No index built yet: the const path reports "no index".
  EXPECT_EQ(r.FindIndexed({0}, {1}), nullptr);
  r.EnsureIndex({0});
  const auto* rows = r.FindIndexed({0}, {1});
  ASSERT_NE(rows, nullptr);
  EXPECT_EQ(rows->size(), 2u);
  // Missing key: non-null empty bucket.
  const auto* none = r.FindIndexed({0}, {99});
  ASSERT_NE(none, nullptr);
  EXPECT_TRUE(none->empty());
  // Inserts keep a pre-built index current.
  r.Insert({1, 9});
  EXPECT_EQ(r.FindIndexed({0}, {1})->size(), 3u);
}

// ---- Deletion and support counts -------------------------------------------

TEST(RelationTest, EraseRemovesAndKeepsDedupConsistent) {
  Relation r(2);
  for (ValueId i = 0; i < 10; ++i) r.Insert({i, i + 1});
  ValueId mid[2] = {4, 5};
  EXPECT_TRUE(r.Erase(mid));
  EXPECT_FALSE(r.Erase(mid));  // already gone
  EXPECT_EQ(r.size(), 9u);
  EXPECT_FALSE(r.Contains(mid));
  // The swapped-in row is still findable and re-insertion works.
  ValueId last[2] = {9, 10};
  EXPECT_TRUE(r.Contains(last));
  EXPECT_TRUE(r.Insert({4, 5}));
  EXPECT_EQ(r.size(), 10u);
}

TEST(RelationTest, EraseRepairsBuiltIndices) {
  Relation r(2);
  for (ValueId i = 0; i < 8; ++i) {
    r.Insert({i % 4, i});  // column 0 takes values 0..3 twice
  }
  EXPECT_EQ(r.Lookup({0}, {2}).size(), 2u);
  ValueId victim[2] = {2, 2};
  ASSERT_TRUE(r.Erase(victim));
  // The index was maintained in place: lookups stay exact, including for the
  // row that was renumbered into the vacated slot.
  EXPECT_EQ(r.Lookup({0}, {2}).size(), 1u);
  for (uint32_t row_id : r.Lookup({0}, {3})) {
    EXPECT_EQ(r.row(row_id)[0], 3);
  }
  EXPECT_EQ(r.Lookup({0}, {3}).size(), 2u);
}

TEST(RelationTest, EraseArityZero) {
  Relation r(0);
  std::vector<ValueId> empty;
  EXPECT_TRUE(r.Insert(empty));
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Erase(empty.data()));
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains(empty.data()));
}

TEST(RelationTest, SupportCountsLifecycle) {
  Relation r(2);
  r.EnableSupportCounts();
  ValueId row[2] = {1, 2};
  EXPECT_EQ(r.AddSupport(row, 2), 2);  // inserted at count 2
  EXPECT_EQ(r.size(), 1u);
  EXPECT_EQ(r.SupportOf(row), 2);
  EXPECT_EQ(r.AddSupport(row, 1), 3);
  EXPECT_EQ(r.AddSupport(row, -2), 1);
  EXPECT_EQ(r.AddSupport(row, -1), 0);  // dropped to zero: erased
  EXPECT_EQ(r.size(), 0u);
  EXPECT_FALSE(r.Contains(row));
  EXPECT_EQ(r.SupportOf(row), 0);
  EXPECT_EQ(r.AddSupport(row, -1), 0);  // absent + negative: no-op
  EXPECT_EQ(r.size(), 0u);
}

TEST(RelationTest, EnableSupportCountsZeroesForRebuild) {
  Relation r(1);
  r.Insert({7});
  r.EnableSupportCounts();
  ValueId row[1] = {7};
  EXPECT_EQ(r.SupportOf(row), 0);  // rebuild protocol: credit via AddSupport
  EXPECT_EQ(r.AddSupport(row, 1), 1);
  EXPECT_EQ(r.size(), 1u);  // already present; only the count changed
}

// ---- Sharded storage --------------------------------------------------------

StorageOptions Sharded(size_t n) { return StorageOptions{n, {}}; }

// All rows of a relation rendered as a sorted set of strings.
std::set<std::string> Rows(const Relation& r) {
  std::set<std::string> out;
  for (size_t i = 0; i < r.size(); ++i) {
    std::string s;
    for (size_t c = 0; c < r.arity(); ++c) {
      s += (c > 0 ? "," : "") + std::to_string(r.row(i)[c]);
    }
    out.insert(s);
  }
  return out;
}

TEST(ShardedRelationTest, InsertRoutesAndDedupsAcrossShards) {
  Relation r(2, Sharded(4));
  EXPECT_EQ(r.shard_count(), 4u);
  for (ValueId i = 0; i < 50; ++i) {
    EXPECT_TRUE(r.Insert({i, i + 1}));
    EXPECT_FALSE(r.Insert({i, i + 1}));  // dedup within the routed shard
  }
  EXPECT_EQ(r.size(), 50u);
  ValueId row[2] = {7, 8};
  EXPECT_TRUE(r.Contains(row));
  ValueId missing[2] = {7, 9};
  EXPECT_FALSE(r.Contains(missing));
}

TEST(ShardedRelationTest, RowPreservesGlobalInsertionOrder) {
  Relation flat(2), sharded(2, Sharded(3));
  for (ValueId i = 0; i < 30; ++i) {
    flat.Insert({i, i * 2});
    sharded.Insert({i, i * 2});
  }
  ASSERT_EQ(sharded.size(), flat.size());
  for (size_t i = 0; i < flat.size(); ++i) {
    EXPECT_EQ(sharded.row(i)[0], flat.row(i)[0]) << "row " << i;
    EXPECT_EQ(sharded.row(i)[1], flat.row(i)[1]) << "row " << i;
  }
}

TEST(ShardedRelationTest, ShardsPartitionTheRowsByHash) {
  Relation r(2, Sharded(4));
  for (ValueId i = 0; i < 40; ++i) r.Insert({i, 0});
  size_t total = 0;
  for (size_t s = 0; s < r.shard_count(); ++s) {
    const Relation& sh = r.shard(s);
    total += sh.size();
    for (size_t i = 0; i < sh.size(); ++i) {
      EXPECT_EQ(r.ShardOf(sh.row(i)), s);  // every row is in its home shard
    }
  }
  EXPECT_EQ(total, r.size());
}

TEST(ShardedRelationTest, LookupAndFindIndexedMatchFlatSemantics) {
  Relation flat(2), sharded(2, Sharded(4));
  for (const auto& row : std::vector<std::vector<ValueId>>{
           {1, 10}, {1, 11}, {2, 12}, {3, 10}, {1, 12}}) {
    flat.Insert(row);
    sharded.Insert(row);
  }
  EXPECT_EQ(sharded.Lookup({0}, {1}).size(), flat.Lookup({0}, {1}).size());
  EXPECT_EQ(sharded.Lookup({1}, {10}).size(), flat.Lookup({1}, {10}).size());
  EXPECT_EQ(sharded.Lookup({0, 1}, {2, 12}).size(), 1u);
  EXPECT_TRUE(sharded.Lookup({0}, {99}).empty());

  // The combined index returns global row ids consistent with row().
  for (uint32_t id : sharded.Lookup({0}, {1})) {
    EXPECT_EQ(sharded.row(id)[0], 1);
  }

  // FindIndexed: nullptr before EnsureIndex, live afterwards.
  Relation fresh(2, Sharded(4));
  fresh.Insert({5, 6});
  EXPECT_EQ(fresh.FindIndexed({0}, {5}), nullptr);
  fresh.EnsureIndex({0});
  ASSERT_NE(fresh.FindIndexed({0}, {5}), nullptr);
  EXPECT_EQ(fresh.FindIndexed({0}, {5})->size(), 1u);
  fresh.Insert({5, 7});  // inserts keep the combined index current
  EXPECT_EQ(fresh.FindIndexed({0}, {5})->size(), 2u);
}

TEST(ShardedRelationTest, EnsureShardIndexesServesShardLocalLookups) {
  Relation r(2, Sharded(3));
  for (ValueId i = 0; i < 30; ++i) r.Insert({i % 5, i});
  r.EnsureShardIndexes({0});
  size_t matches = 0;
  for (size_t s = 0; s < r.shard_count(); ++s) {
    const Relation& sh = r.shard(s);
    const auto* rows = sh.FindIndexed({0}, {2});
    ASSERT_NE(rows, nullptr) << "shard " << s << " missing its local index";
    for (uint32_t local : *rows) {
      EXPECT_EQ(sh.row(local)[0], 2);  // local ids resolve within the shard
      ++matches;
    }
  }
  EXPECT_EQ(matches, 6u);  // i % 5 == 2 for 6 of 30 rows
}

TEST(ShardedRelationTest, MergeShardThenSyncShards) {
  Relation target(2, Sharded(4));
  target.Insert({1, 2});
  Relation buffer(2, Sharded(4));  // same layout: shards line up
  for (ValueId i = 0; i < 20; ++i) buffer.Insert({i, i + 1});
  EXPECT_TRUE(target.Lookup({0}, {5}).empty());  // memoizes the {0} index

  for (size_t s = 0; s < buffer.shard_count(); ++s) {
    target.MergeShard(s, buffer.shard(s));
  }
  target.SyncShards();
  EXPECT_EQ(target.size(), 20u);  // {1,2} deduplicated inside its shard
  EXPECT_EQ(Rows(target), Rows(buffer));
  // Post-sync, lookups (the memo was dropped with the combined indices)
  // and row() agree again.
  EXPECT_EQ(target.Lookup({0}, {5}).size(), 1u);
  EXPECT_EQ(target.Lookup({0}, {1}).size(), 1u);
  EXPECT_TRUE(target.Contains(buffer.row(0)));
  // Sync is idempotent.
  target.SyncShards();
  EXPECT_EQ(target.size(), 20u);
}

TEST(ShardedRelationTest, AbsorbAcrossMismatchedShardCounts) {
  const size_t layouts[] = {1, 2, 8};
  Relation source(2, Sharded(3));
  for (ValueId i = 0; i < 25; ++i) source.Insert({i, i * i % 11});
  for (size_t from : layouts) {
    for (size_t to : layouts) {
      Relation a(2, Sharded(from)), b(2, Sharded(to));
      for (size_t i = 0; i < 10; ++i) a.Insert(source.row(i));
      for (size_t i = 5; i < 25; ++i) b.Insert(source.row(i));
      EXPECT_EQ(a.Absorb(b), 15u) << from << "->" << to;
      EXPECT_EQ(a.size(), 25u) << from << "->" << to;
      EXPECT_EQ(Rows(a), Rows(source)) << from << "->" << to;
      EXPECT_EQ(a.Absorb(b), 0u) << from << "->" << to;
    }
  }
}

TEST(ShardedRelationTest, AbsorbAlignedLayoutsSkipsNothing) {
  // Identical layouts take the shard-to-shard fast path; contents must be
  // exactly what the generic path produces.
  Relation a(2, Sharded(4)), b(2, Sharded(4));
  for (ValueId i = 0; i < 12; ++i) a.Insert({i, 0});
  for (ValueId i = 6; i < 30; ++i) b.Insert({i, 0});
  EXPECT_EQ(a.Absorb(b), 18u);
  EXPECT_EQ(a.size(), 30u);
  for (size_t s = 0; s < a.shard_count(); ++s) {
    for (size_t i = 0; i < a.shard(s).size(); ++i) {
      EXPECT_EQ(a.ShardOf(a.shard(s).row(i)), s);
    }
  }
}

TEST(ShardedRelationTest, ClearResetsShards) {
  Relation r(2, Sharded(4));
  for (ValueId i = 0; i < 10; ++i) r.Insert({i, i});
  r.Lookup({0}, {1});
  r.Clear();
  EXPECT_EQ(r.size(), 0u);
  EXPECT_EQ(r.shard_count(), 4u);  // layout survives
  for (size_t s = 0; s < r.shard_count(); ++s) {
    EXPECT_TRUE(r.shard(s).empty());
  }
  EXPECT_TRUE(r.Insert({1, 1}));
  EXPECT_EQ(r.size(), 1u);
}

TEST(ShardedRelationTest, PartitionColsAreNormalized) {
  Relation r(2, StorageOptions{4, {1, 7, -2}});  // out-of-range cols dropped
  EXPECT_EQ(r.partition_cols(), (std::vector<int>{1}));
  Relation fallback(2, StorageOptions{4, {9}});  // nothing valid: column 0
  EXPECT_EQ(fallback.partition_cols(), (std::vector<int>{0}));
  Relation flat(3);
  EXPECT_EQ(flat.shard_count(), 1u);
  EXPECT_EQ(&flat.shard(0), &flat);  // a flat relation is its own only shard
}

// The sequential evaluator over the shared sweep corpus must produce
// byte-identical fact sets at 1/2/8 storage shards — sharding is a layout
// choice, never a semantics choice.
TEST(ShardedRelationTest, SequentialSweepIsShardInvariant) {
  for (int pi = 0; pi < test::kNumSweepPrograms; ++pi) {
    for (int wi = 0; wi < test::kNumSweepWorkloads; ++wi) {
      ast::Program program = test::P(test::kSweepPrograms[pi].text);

      auto facts = [&](const eval::EvalResult& result,
                       const ValueStore& store) {
        std::map<std::string, std::set<std::string>> out;
        for (const auto& [pred, rel] : result.idb()) {
          for (size_t r = 0; r < rel->size(); ++r) {
            std::string s;
            for (size_t c = 0; c < rel->arity(); ++c) {
              s += store.ToString(rel->row(r)[c]) + ";";
            }
            out[pred].insert(s);
          }
        }
        return out;
      };

      Database oracle_db;
      test::kSweepWorkloads[wi].make(&oracle_db);
      auto oracle = Evaluate(program, &oracle_db);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      auto expected = facts(*oracle, oracle_db.store());

      for (size_t shards : {2u, 8u}) {
        Database db(Sharded(shards));
        test::kSweepWorkloads[wi].make(&db);
        auto result = Evaluate(program, &db);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(facts(*result, db.store()), expected)
            << test::kSweepPrograms[pi].name << " x "
            << test::kSweepWorkloads[wi].name << " @" << shards << " shards";
        EXPECT_EQ(result->stats().instantiations,
                  oracle->stats().instantiations)
            << test::kSweepPrograms[pi].name << " @" << shards;
      }
    }
  }
}

TEST(DatabaseTest, AddFactsAndFind) {
  Database db;
  ASSERT_TRUE(db.AddFact(test::A("e(1, 2)")).ok());
  ASSERT_TRUE(db.AddFact(test::A("e(2, 3)")).ok());
  ASSERT_TRUE(db.AddFact(test::A("p(a)")).ok());
  ASSERT_NE(db.Find("e"), nullptr);
  EXPECT_EQ(db.Find("e")->size(), 2u);
  EXPECT_EQ(db.Find("p")->size(), 1u);
  EXPECT_EQ(db.Find("missing"), nullptr);
  EXPECT_EQ(db.TotalFacts(), 3u);
}

TEST(DatabaseTest, NonGroundFactRejected) {
  Database db;
  EXPECT_FALSE(db.AddFact(test::A("e(X, 2)")).ok());
}

TEST(DatabaseTest, CompoundFacts) {
  Database db;
  ASSERT_TRUE(db.AddFact(test::A("owns(alice, book(dune))")).ok());
  EXPECT_EQ(db.Find("owns")->size(), 1u);
}

TEST(DatabaseTest, StorageOptionsApplyToEveryRelation) {
  Database db(StorageOptions{4, {}});
  EXPECT_EQ(db.storage_options().num_shards, 4u);
  for (int i = 0; i < 20; ++i) {
    db.AddPair("e", i, i + 1);
    db.AddUnit("v", i);
  }
  ASSERT_NE(db.Find("e"), nullptr);
  EXPECT_EQ(db.Find("e")->shard_count(), 4u);
  EXPECT_EQ(db.Find("v")->shard_count(), 4u);
  EXPECT_EQ(db.Find("e")->size(), 20u);
  EXPECT_EQ(db.TotalFacts(), 40u);
}

TEST(ShardedRelationTest, EraseDesyncsUntilSyncShards) {
  Relation r(2, Sharded(4));
  for (ValueId i = 0; i < 40; ++i) r.Insert({i, i + 1});
  std::set<std::string> before = Rows(r);
  EXPECT_EQ(r.Lookup({0}, {11}).size(), 1u);  // memoizes the {0} index
  ValueId a[2] = {11, 12};
  ValueId b[2] = {30, 31};
  EXPECT_TRUE(r.Erase(a));
  EXPECT_TRUE(r.Erase(b));
  EXPECT_FALSE(r.Erase(a));
  // Route-by-hash operations keep working before the sync...
  EXPECT_FALSE(r.Contains(a));
  EXPECT_TRUE(r.Insert({100, 101}));
  EXPECT_EQ(r.size(), 39u);
  // ...and after SyncShards the global order and indices are whole again.
  r.SyncShards();
  before.erase("11,12");
  before.erase("30,31");
  before.insert("100,101");
  EXPECT_EQ(Rows(r), before);
  EXPECT_EQ(r.Lookup({0}, {100}).size(), 1u);
  EXPECT_EQ(r.Lookup({0}, {11}).size(), 0u);
}

TEST(DatabaseTest, RemoveFactErasesAndReportsPresence) {
  Database db(StorageOptions{4, {}});
  db.AddPair("e", 1, 2);
  db.AddPair("e", 2, 3);
  auto removed = db.RemoveFact(test::A("e(1, 2)"));
  ASSERT_TRUE(removed.ok());
  EXPECT_TRUE(*removed);
  auto missing = db.RemoveFact(test::A("e(1, 2)"));
  ASSERT_TRUE(missing.ok());
  EXPECT_FALSE(*missing);
  EXPECT_EQ(db.Find("e")->size(), 1u);
  // Immediately readable: RemoveFact resyncs sharded storage.
  EXPECT_EQ(db.Find("e")->Lookup({0}, {db.store().InternInt(2)}).size(), 1u);
}

TEST(DatabaseTest, PairAndUnitHelpers) {
  Database db;
  db.AddPair("e", 1, 2);
  db.AddPair("e", 1, 2);
  db.AddUnit("v", 7);
  EXPECT_EQ(db.Find("e")->size(), 1u);
  EXPECT_EQ(db.Find("v")->size(), 1u);
}

// ---- Randomized differential test against a std::set model ------------------

using Row = std::vector<ValueId>;

// A relation's rows in its row order (one row() call per row: a page-backed
// relation's copy-out ring rotates on every call).
std::vector<Row> RowList(const Relation& r) {
  std::vector<Row> out;
  for (size_t i = 0; i < r.size(); ++i) {
    const ValueId* row = r.row(i);
    out.emplace_back(row, row + r.arity());
  }
  return out;
}

enum class Layout { kFlat, kSharded, kPaged };

// A page file in a fresh temp directory, removed with the object.
class PageSpace {
 public:
  PageSpace() {
    dir_ = std::filesystem::temp_directory_path() /
           ("factlog_relation_test_" + std::to_string(::getpid()) + "_" +
            std::to_string(counter_++));
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    // A small frame budget, so probes evict and re-read pages.
    space_ = std::make_shared<storage::TableSpace>(/*frame_budget=*/16);
    open_ = space_->file.Open((dir_ / "pages.db").string());
  }
  ~PageSpace() {
    space_.reset();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  const Status& open_status() const { return open_; }
  const std::shared_ptr<storage::TableSpace>& space() const { return space_; }

 private:
  static int counter_;
  std::filesystem::path dir_;
  std::shared_ptr<storage::TableSpace> space_;
  Status open_;
};
int PageSpace::counter_ = 0;

// Asserts `rel` holds exactly `model`: same size and rows, every model row
// found by Contains, and both single-column lookups agree with the model.
void ExpectMatchesModel(Relation* rel, const std::set<Row>& model,
                        const std::string& where) {
  SCOPED_TRACE(where);
  rel->SyncShards();  // global reads after sharded erases
  ASSERT_EQ(rel->size(), model.size());
  std::vector<Row> rows = RowList(*rel);
  EXPECT_EQ(std::set<Row>(rows.begin(), rows.end()), model);
  for (const Row& row : model) {
    ASSERT_TRUE(rel->Contains(row.data())) << row[0] << "," << row[1];
  }
  std::map<ValueId, size_t> by_first;
  for (const Row& row : model) ++by_first[row[0]];
  for (const auto& [value, count] : by_first) {
    ASSERT_EQ(rel->Lookup({0}, {value}).size(), count) << "col 0 = " << value;
  }
}

// Seeded Insert/Erase/Contains/Lookup/Clear mix against a std::set model, on
// every storage layout. The phases grow the relation to a few thousand rows
// (long probe clusters, several table doublings), churn it, drain it row by
// row (backward-shift deletion across whole clusters), and reuse it after
// Clear.
TEST(RelationDifferentialTest, RandomOpsMatchSetModel) {
  constexpr int kPhaseSteps = 3000;
  constexpr ValueId kDomain = 120;
  const std::pair<Layout, const char*> kLayouts[] = {
      {Layout::kFlat, "flat"},
      {Layout::kSharded, "4 shards"},
      {Layout::kPaged, "paged"}};
  for (const auto& [layout, name] : kLayouts) {
    for (uint32_t seed : {1u, 2u}) {
      SCOPED_TRACE(std::string(name) + ", seed " + std::to_string(seed));
      PageSpace pages;
      ASSERT_TRUE(pages.open_status().ok());
      Relation rel(2, layout == Layout::kSharded ? Sharded(4)
                                                 : StorageOptions{});
      if (layout == Layout::kPaged) {
        ASSERT_TRUE(rel.AttachPagedStore(pages.space()));
      }
      std::set<Row> model;
      std::vector<Row> live;  // model's rows, for picking erase targets
      std::mt19937 rng(seed);
      auto random_row = [&] {
        return Row{static_cast<ValueId>(rng() % kDomain),
                   static_cast<ValueId>(rng() % kDomain)};
      };
      // Phases: grow, churn, drain, then Clear and grow again.
      const int insert_pct[] = {80, 50, 15, 80};
      for (int phase = 0; phase < 4; ++phase) {
        if (phase == 3) {
          rel.Clear();
          model.clear();
          live.clear();
          ExpectMatchesModel(&rel, model, "after Clear");
        }
        for (int step = 0; step < kPhaseSteps; ++step) {
          const int op = static_cast<int>(rng() % 100);
          if (op < insert_pct[phase]) {
            Row row = random_row();
            bool is_new = model.insert(row).second;
            ASSERT_EQ(rel.Insert(row), is_new);
            if (is_new) live.push_back(row);
          } else if (op < 95) {
            // Mostly live rows; sometimes a random (likely absent) one.
            Row row = random_row();
            if (!live.empty() && rng() % 4 != 0) {
              size_t pick = rng() % live.size();
              row = live[pick];
            }
            bool present = model.erase(row) == 1;
            ASSERT_EQ(rel.Erase(row.data()), present);
            if (present) {
              for (Row& l : live) {
                if (l == row) {
                  l = live.back();
                  live.pop_back();
                  break;
                }
              }
            }
          } else if (op < 98) {
            Row row = random_row();
            ASSERT_EQ(rel.Contains(row.data()), model.count(row) == 1);
          } else {
            rel.SyncShards();
            const int col = static_cast<int>(rng() % 2);
            const ValueId value = static_cast<ValueId>(rng() % kDomain);
            size_t expect = 0;
            for (const Row& row : model) expect += row[col] == value;
            ASSERT_EQ(rel.Lookup({col}, {value}).size(), expect);
          }
          ASSERT_EQ(rel.size(), model.size());
          if (step % 250 == 249) {
            ExpectMatchesModel(&rel, model,
                               "phase " + std::to_string(phase) + " step " +
                                   std::to_string(step));
          }
        }
      }
      ExpectMatchesModel(&rel, model, "end");
      // The growth phases really built long tables.
      EXPECT_GT(model.size(), 1500u);
    }
  }
}

TEST(RelationDifferentialTest, EraseEveryRowInAnyOrder) {
  // Drains a table full of long clusters in a random order: every erase must
  // leave every remaining row findable.
  Relation rel(2);
  std::vector<Row> rows;
  for (ValueId i = 0; i < 3000; ++i) {
    rows.push_back({i % 37, i});
    ASSERT_TRUE(rel.Insert(rows.back()));
  }
  std::mt19937 rng(7);
  std::shuffle(rows.begin(), rows.end(), rng);
  for (size_t i = 0; i < rows.size(); ++i) {
    ASSERT_TRUE(rel.Erase(rows[i].data()));
    ASSERT_FALSE(rel.Contains(rows[i].data()));
    if (i % 100 == 0) {
      for (size_t j = i + 1; j < rows.size(); ++j) {
        ASSERT_TRUE(rel.Contains(rows[j].data())) << i << " " << j;
      }
    }
  }
  EXPECT_TRUE(rel.empty());
  for (const Row& row : rows) ASSERT_TRUE(rel.Insert(row));
  EXPECT_EQ(rel.size(), rows.size());
}

// ---- Lookup's memoized index -------------------------------------------------

TEST(RelationLookupCacheTest, FrozenCopyStartsWithoutTheMemo) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    auto live = std::make_unique<Relation>(2, Sharded(shards));
    live->Insert({1, 10});
    live->Insert({1, 11});
    EXPECT_EQ(live->Lookup({0}, {1}).size(), 2u);
    std::shared_ptr<Relation> snap = live->FrozenCopy();
    // The live relation moves on; its memoized index changes under it.
    live->Insert({1, 12});
    EXPECT_EQ(live->Lookup({0}, {1}).size(), 3u);
    EXPECT_EQ(snap->Lookup({0}, {1}).size(), 2u);
    live.reset();  // a copied memo would now dangle
    EXPECT_EQ(snap->Lookup({0}, {1}).size(), 2u);
    EXPECT_EQ(snap->Lookup({1}, {11}).size(), 1u);
  }
}

// ---- Reused (cleared) buffers ----------------------------------------------

TEST(RelationReuseTest, AbsorbIntoClearedMatchesFresh) {
  for (size_t shards : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::to_string(shards) + " shards");
    Relation reused(2, Sharded(shards));
    std::mt19937 rng(3);
    // Rounds of different sizes, like successive fixpoint deltas: the reused
    // buffer's table is sometimes much larger than what it now holds.
    for (size_t round = 0; round < 6; ++round) {
      const size_t n = (round % 3 == 0) ? 2000 : 50 + 300 * round;
      Relation src(2, Sharded(shards));
      for (size_t i = 0; i < n; ++i) {
        src.Insert({static_cast<ValueId>(rng() % 300),
                    static_cast<ValueId>(rng() % 300)});
      }
      reused.Clear();
      Relation fresh(2, Sharded(shards));
      ASSERT_EQ(reused.Absorb(src), fresh.Absorb(src));
      EXPECT_EQ(RowList(reused), RowList(fresh)) << "round " << round;
      for (size_t s = 0; s < shards; ++s) {
        EXPECT_EQ(RowList(reused.shard(s)), RowList(fresh.shard(s)));
      }
      // Re-absorbing finds every row already present in both.
      EXPECT_EQ(reused.Absorb(src), 0u);
      EXPECT_EQ(fresh.Absorb(src), 0u);
    }
  }
}

}  // namespace
}  // namespace factlog::eval
