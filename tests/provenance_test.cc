// Tests for the DerivationEdgeStore: fact interning and dedup, edge dedup,
// per-occurrence uses lists, orphan freeing and slot reuse on RemoveEdge,
// the hard edge budget, and derivation-tree reconstruction from the
// hypergraph (including cyclic support).

#include "eval/provenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <random>
#include <set>
#include <utility>
#include <vector>

namespace factlog::eval {
namespace {

using FactId = DerivationEdgeStore::FactId;
using EdgeId = DerivationEdgeStore::EdgeId;

FactId Intern(DerivationEdgeStore* store, const char* pred,
              std::vector<ValueId> row) {
  return store->InternFact(pred, row.data(), row.size());
}

TEST(DerivationEdgeStoreTest, InternDeduplicatesAndFindsFacts) {
  DerivationEdgeStore store(/*max_edges=*/100);
  FactId a = Intern(&store, "e", {1, 2});
  FactId b = Intern(&store, "e", {1, 2});
  FactId c = Intern(&store, "e", {2, 1});
  FactId d = Intern(&store, "t", {1, 2});
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_NE(a, d);  // same row, different predicate
  EXPECT_EQ(store.num_facts(), 3u);

  std::vector<ValueId> row = {1, 2};
  EXPECT_EQ(store.FindFact("e", row.data(), row.size()), a);
  EXPECT_EQ(store.FindFact("t", row.data(), row.size()), d);
  std::vector<ValueId> missing = {9, 9};
  EXPECT_EQ(store.FindFact("e", missing.data(), missing.size()),
            DerivationEdgeStore::kNoFact);

  EXPECT_EQ(store.pred_of(a), "e");
  EXPECT_EQ(store.row_of(a), row);
  EXPECT_GE(store.PredId("e"), 0);
  EXPECT_EQ(store.PredId("never_seen"), -1);
  EXPECT_EQ(static_cast<int>(store.pred_id_of(a)), store.PredId("e"));
}

TEST(DerivationEdgeStoreTest, AddEdgeDeduplicatesPerHead) {
  DerivationEdgeStore store(/*max_edges=*/100);
  FactId head = Intern(&store, "t", {1, 3});
  FactId p1 = Intern(&store, "e", {1, 2});
  FactId p2 = Intern(&store, "t", {2, 3});

  EXPECT_TRUE(store.AddEdge(head, 1, {p1, p2}));
  EXPECT_FALSE(store.AddEdge(head, 1, {p1, p2}));  // exact duplicate
  EXPECT_EQ(store.num_edges(), 1u);
  EXPECT_TRUE(store.AddEdge(head, 2, {p1, p2}));  // same body, other rule
  EXPECT_TRUE(store.AddEdge(head, 1, {p2, p1}));  // other premise order
  EXPECT_EQ(store.num_edges(), 3u);
  EXPECT_EQ(store.derivations_of(head).size(), 3u);
  EXPECT_EQ(store.edges_added(), 3u);

  EdgeId e = store.derivations_of(head)[0];
  EXPECT_EQ(store.head_of(e), head);
  EXPECT_EQ(store.rule_of(e), 1);
  auto premises = store.premises_of(e);
  EXPECT_EQ(std::vector<FactId>(premises.begin(), premises.end()),
            (std::vector<FactId>{p1, p2}));
}

TEST(DerivationEdgeStoreTest, UsesListHasOneEntryPerOccurrence) {
  DerivationEdgeStore store(/*max_edges=*/100);
  FactId head = Intern(&store, "p", {5});
  FactId prem = Intern(&store, "q", {7});
  ASSERT_TRUE(store.AddEdge(head, 0, {prem, prem}));
  // Repeated premises get one uses entry each, so occurrence-counted
  // decrements during slice deletion stay balanced.
  EXPECT_EQ(store.uses_of(prem).size(), 2u);
}

TEST(DerivationEdgeStoreTest, RemoveEdgeFreesOrphansAndReusesSlots) {
  DerivationEdgeStore store(/*max_edges=*/100);
  FactId head = Intern(&store, "t", {1, 2});
  FactId prem = Intern(&store, "e", {1, 2});
  ASSERT_TRUE(store.AddEdge(head, 0, {prem}));
  EXPECT_EQ(store.num_facts(), 2u);

  EdgeId e = store.derivations_of(head)[0];
  store.RemoveEdge(e);
  EXPECT_EQ(store.num_edges(), 0u);
  EXPECT_EQ(store.edges_removed(), 1u);
  // Both facts lost their last edge and are freed.
  EXPECT_EQ(store.num_facts(), 0u);
  std::vector<ValueId> row = {1, 2};
  EXPECT_EQ(store.FindFact("t", row.data(), row.size()),
            DerivationEdgeStore::kNoFact);

  store.RemoveEdge(e);  // already removed: no-op
  EXPECT_EQ(store.edges_removed(), 1u);

  // Freed slots are recycled, so long-lived stores don't grow monotonically.
  const size_t capacity = store.fact_capacity();
  Intern(&store, "t", {9, 9});
  Intern(&store, "e", {9, 9});
  EXPECT_EQ(store.fact_capacity(), capacity);
}

TEST(DerivationEdgeStoreTest, SharedPremiseSurvivesPartialRemoval) {
  DerivationEdgeStore store(/*max_edges=*/100);
  FactId h1 = Intern(&store, "t", {1});
  FactId h2 = Intern(&store, "t", {2});
  FactId prem = Intern(&store, "e", {0});
  ASSERT_TRUE(store.AddEdge(h1, 0, {prem}));
  ASSERT_TRUE(store.AddEdge(h2, 0, {prem}));

  store.RemoveEdge(store.derivations_of(h1)[0]);
  // prem is still used by h2's edge; only h1 was orphaned.
  EXPECT_EQ(store.num_facts(), 2u);
  EXPECT_EQ(store.uses_of(prem).size(), 1u);
  std::vector<ValueId> row = {0};
  EXPECT_NE(store.FindFact("e", row.data(), row.size()),
            DerivationEdgeStore::kNoFact);
}

// A 0-ary premise shared by thousands of edges (the magic guard of an
// all-free query) plus edges that repeat a premise: removing them in
// shuffled order, interleaved with adds that reuse the freed ids, keeps
// every adjacency list equal (as a multiset) to the live edges.
TEST(DerivationEdgeStoreTest, HubPremiseRemovalKeepsAdjacencyExact) {
  using Key = std::pair<const char*, std::vector<ValueId>>;
  struct Spec {
    Key head;
    std::vector<Key> premises;
  };
  const Key hub = {"m", {}};
  std::vector<Spec> specs;
  for (ValueId i = 0; i < 2000; ++i) {
    specs.push_back({{"t", {i % 300}}, {hub, {"e", {i}}}});
  }
  specs.push_back({{"r", {0}}, {hub, hub}});
  specs.push_back({{"s", {0}}, {{"q", {0}}, hub, {"q", {0}}}});
  specs.push_back({{"s", {0}}, {{"q", {0}}, {"q", {0}}}});

  DerivationEdgeStore store(/*max_edges=*/1u << 20);
  // The expected state: live edges (id -> head, premises), and per fact the
  // edges it heads and one entry per premise occurrence.
  std::map<EdgeId, std::pair<FactId, std::vector<FactId>>> live;
  std::map<FactId, std::multiset<EdgeId>> want_derivs, want_uses;
  std::vector<EdgeId> edge_of(specs.size(), DerivationEdgeStore::kNoEdge);
  auto add = [&](size_t i) {
    FactId head = Intern(&store, specs[i].head.first, specs[i].head.second);
    std::vector<FactId> premises;
    for (const Key& k : specs[i].premises) {
      premises.push_back(Intern(&store, k.first, k.second));
    }
    EXPECT_TRUE(store.AddEdge(head, 0, premises));
    EdgeId e = store.derivations_of(head).back();
    want_derivs[head].insert(e);
    for (FactId p : premises) want_uses[p].insert(e);
    live[e] = {head, std::move(premises)};
    edge_of[i] = e;
    return e;
  };
  auto remove = [&](EdgeId e) {
    const auto& [head, premises] = live.at(e);
    store.RemoveEdge(e);
    auto drop = [e](std::map<FactId, std::multiset<EdgeId>>* m, FactId f) {
      auto& list = (*m)[f];
      list.erase(list.find(e));
      if (list.empty()) m->erase(f);
    };
    drop(&want_derivs, head);
    for (FactId p : premises) drop(&want_uses, p);
    live.erase(e);
  };
  auto as_multiset = [](const std::vector<EdgeId>& v) {
    return std::multiset<EdgeId>(v.begin(), v.end());
  };
  auto check_fact = [&](FactId f) {
    ASSERT_EQ(as_multiset(store.derivations_of(f)), want_derivs[f])
        << "fact " << f;
    ASSERT_EQ(as_multiset(store.uses_of(f)), want_uses[f]) << "fact " << f;
  };
  // Every live edge and every fact it touches; a fact with no edges left
  // must have been freed.
  auto check_all = [&] {
    std::set<FactId> facts;
    for (const auto& [e, edge] : live) {
      ASSERT_EQ(store.head_of(e), edge.first);
      auto premises = store.premises_of(e);
      ASSERT_EQ(std::vector<FactId>(premises.begin(), premises.end()),
                edge.second);
      facts.insert(edge.first);
      facts.insert(edge.second.begin(), edge.second.end());
    }
    for (FactId f : facts) ASSERT_NO_FATAL_FAILURE(check_fact(f));
    ASSERT_EQ(store.num_facts(), facts.size());
    ASSERT_EQ(store.num_edges(), live.size());
  };

  std::vector<size_t> live_specs, dead_specs;
  for (size_t i = 0; i < specs.size(); ++i) {
    add(i);
    live_specs.push_back(i);
  }
  ASSERT_NO_FATAL_FAILURE(check_all());
  const FactId hub_id = Intern(&store, hub.first, hub.second);
  ASSERT_EQ(store.uses_of(hub_id).size(), 2000u + 2u + 1u);

  // A step writes only the lists of the facts on the edges it removes and
  // adds, so those are checked after every step (with every live edge's
  // premises); the full sweep runs every 256 steps and at the end.
  std::mt19937 rng(23);
  std::set<EdgeId> freed;
  int readds = 0;
  for (int step = 1; !live_specs.empty(); ++step) {
    std::set<FactId> touched;
    auto touch = [&](EdgeId e) {
      touched.insert(live.at(e).first);
      touched.insert(live.at(e).second.begin(), live.at(e).second.end());
    };
    std::swap(live_specs[rng() % live_specs.size()], live_specs.back());
    const size_t i = live_specs.back();
    live_specs.pop_back();
    touch(edge_of[i]);
    remove(edge_of[i]);
    freed.insert(edge_of[i]);
    dead_specs.push_back(i);
    if (step % 3 == 0 && readds < 600) {
      std::swap(dead_specs[rng() % dead_specs.size()], dead_specs.back());
      const size_t j = dead_specs.back();
      dead_specs.pop_back();
      EdgeId e = add(j);
      EXPECT_EQ(freed.erase(e), 1u) << "edge id " << e << " was not freed";
      touch(e);
      live_specs.push_back(j);
      ++readds;
    }
    for (const auto& [e, edge] : live) {
      auto premises = store.premises_of(e);
      ASSERT_TRUE(std::equal(premises.begin(), premises.end(),
                             edge.second.begin(), edge.second.end()))
          << "edge " << e << " after step " << step;
    }
    for (FactId f : touched) {
      ASSERT_NO_FATAL_FAILURE(check_fact(f)) << "after step " << step;
    }
    if (step % 256 == 0) {
      ASSERT_NO_FATAL_FAILURE(check_all());
    }
  }
  ASSERT_NO_FATAL_FAILURE(check_all());
  EXPECT_EQ(readds, 600);
  EXPECT_EQ(store.num_facts(), 0u);
}

TEST(DerivationEdgeStoreTest, EdgeBudgetOverflowSticks) {
  DerivationEdgeStore store(/*max_edges=*/1);
  FactId h1 = Intern(&store, "t", {1});
  FactId h2 = Intern(&store, "t", {2});
  FactId prem = Intern(&store, "e", {0});
  EXPECT_TRUE(store.AddEdge(h1, 0, {prem}));
  EXPECT_FALSE(store.over_budget());
  EXPECT_FALSE(store.AddEdge(h2, 0, {prem}));  // rejected, budget exhausted
  EXPECT_TRUE(store.over_budget());
  EXPECT_EQ(store.num_edges(), 1u);
  // The flag is sticky even after load drops back under the budget: the
  // store may already be missing edges and can no longer be trusted.
  store.RemoveEdge(store.derivations_of(h1)[0]);
  EXPECT_TRUE(store.over_budget());
}

TEST(DerivationTreeFromEdgesTest, ChainExpandsToLeaves) {
  DerivationEdgeStore store(/*max_edges=*/100);
  FactId e1 = Intern(&store, "e", {1, 2});
  FactId t1 = Intern(&store, "t", {1, 2});
  FactId e2 = Intern(&store, "e", {2, 3});
  FactId t2 = Intern(&store, "t", {1, 3});
  ASSERT_TRUE(store.AddEdge(t1, 0, {e1}));
  ASSERT_TRUE(store.AddEdge(t2, 1, {t1, e2}));

  DerivationTree tree =
      BuildDerivationTree(store, FactKey{"t", {1, 3}});
  EXPECT_EQ(tree.fact.predicate, "t");
  EXPECT_EQ(tree.rule_index, 1);
  ASSERT_EQ(tree.children.size(), 2u);
  EXPECT_EQ(tree.children[0].fact.predicate, "t");
  EXPECT_EQ(tree.children[0].rule_index, 0);
  EXPECT_EQ(tree.children[1].rule_index, -1);  // EDB leaf
  EXPECT_EQ(tree.Height(), 3u);
  EXPECT_EQ(tree.NodeCount(), 4u);

  // Unknown facts come back as plain leaves.
  DerivationTree leaf =
      BuildDerivationTree(store, FactKey{"t", {9, 9}});
  EXPECT_EQ(leaf.rule_index, -1);
  EXPECT_TRUE(leaf.children.empty());
}

TEST(DerivationTreeFromEdgesTest, CyclicSupportStaysFinite) {
  DerivationEdgeStore store(/*max_edges=*/100);
  FactId a = Intern(&store, "p", {1});
  FactId b = Intern(&store, "p", {2});
  FactId ground = Intern(&store, "e", {0});
  // a and b support each other; a additionally grounds out in an EDB fact.
  ASSERT_TRUE(store.AddEdge(a, 0, {b}));
  ASSERT_TRUE(store.AddEdge(a, 1, {ground}));
  ASSERT_TRUE(store.AddEdge(b, 0, {a}));

  // From b the builder must not loop: it reaches a, and expands a through
  // the derivation that avoids the path back to b.
  DerivationTree tree = BuildDerivationTree(store, FactKey{"p", {2}});
  EXPECT_LE(tree.Height(), 3u);
  ASSERT_EQ(tree.children.size(), 1u);
  const DerivationTree& a_node = tree.children[0];
  EXPECT_EQ(a_node.fact, (FactKey{"p", {1}}));
  ASSERT_EQ(a_node.children.size(), 1u);
  EXPECT_EQ(a_node.children[0].fact, (FactKey{"e", {0}}));
}

}  // namespace
}  // namespace factlog::eval
