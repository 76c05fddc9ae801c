#include "eval/provenance.h"

#include <algorithm>
#include <queue>
#include <unordered_set>
#include <utility>

namespace factlog::eval {

// ------------------------------------------------------ DerivationEdgeStore --

size_t DerivationEdgeStore::FactHash(uint32_t pred, const ValueId* row,
                                     size_t arity) const {
  size_t h = std::hash<uint32_t>()(pred);
  for (size_t i = 0; i < arity; ++i) {
    h ^= std::hash<int32_t>()(row[i]) + 0x9e3779b97f4a7c15ULL + (h << 6) +
         (h >> 2);
  }
  return h;
}

int DerivationEdgeStore::PredId(std::string_view pred) const {
  auto it = pred_ids_.find(std::string(pred));
  return it == pred_ids_.end() ? -1 : static_cast<int>(it->second);
}

DerivationEdgeStore::FactId DerivationEdgeStore::InternFact(
    std::string_view pred, const ValueId* row, size_t arity) {
  uint32_t pid;
  auto pit = pred_ids_.find(std::string(pred));
  if (pit != pred_ids_.end()) {
    pid = pit->second;
  } else {
    pid = static_cast<uint32_t>(pred_names_.size());
    pred_names_.emplace_back(pred);
    pred_ids_.emplace(pred_names_.back(), pid);
  }
  size_t h = FactHash(pid, row, arity);
  std::vector<FactId>& bucket = fact_index_[h];
  for (FactId f : bucket) {
    const FactNode& n = facts_[f];
    if (n.pred == pid && n.row.size() == arity &&
        std::equal(n.row.begin(), n.row.end(), row)) {
      return f;
    }
  }
  FactId f;
  if (!free_facts_.empty()) {
    f = free_facts_.back();
    free_facts_.pop_back();
  } else {
    f = static_cast<FactId>(facts_.size());
    facts_.emplace_back();
  }
  FactNode& n = facts_[f];
  n.pred = pid;
  n.rank = 0;
  n.row.assign(row, row + arity);
  n.live = true;
  bucket.push_back(f);
  ++num_facts_;
  return f;
}

DerivationEdgeStore::FactId DerivationEdgeStore::FindFact(
    std::string_view pred, const ValueId* row, size_t arity) const {
  auto pit = pred_ids_.find(std::string(pred));
  if (pit == pred_ids_.end()) return kNoFact;
  auto bit = fact_index_.find(FactHash(pit->second, row, arity));
  if (bit == fact_index_.end()) return kNoFact;
  for (FactId f : bit->second) {
    const FactNode& n = facts_[f];
    if (n.pred == pit->second && n.row.size() == arity &&
        std::equal(n.row.begin(), n.row.end(), row)) {
      return f;
    }
  }
  return kNoFact;
}

bool DerivationEdgeStore::AddEdge(FactId head, int rule_index,
                                  const std::vector<FactId>& premises) {
  uint64_t sig = std::hash<int>()(rule_index);
  for (FactId p : premises) {
    sig ^= std::hash<uint32_t>()(p) + 0x9e3779b97f4a7c15ULL + (sig << 6) +
           (sig >> 2);
  }
  for (EdgeId e : facts_[head].derivs) {
    const EdgeNode& n = edges_[e];
    if (n.sig == sig && n.rule == rule_index &&
        n.arity() == premises.size() &&
        std::equal(premises.begin(), premises.end(), n.links.begin())) {
      return false;
    }
  }
  if (num_edges_ >= max_edges_) {
    over_budget_ = true;
    return false;
  }
  EdgeId e;
  if (!free_edges_.empty()) {
    e = free_edges_.back();
    free_edges_.pop_back();
  } else {
    e = static_cast<EdgeId>(edges_.size());
    edges_.emplace_back();
  }
  EdgeNode& n = edges_[e];
  n.head = head;
  n.rule = rule_index;
  n.sig = sig;
  const size_t k = premises.size();
  n.links.resize(2 * k);
  std::copy(premises.begin(), premises.end(), n.links.begin());
  n.live = true;
  std::vector<EdgeId>& derivs = facts_[head].derivs;
  n.deriv_slot = static_cast<uint32_t>(derivs.size());
  derivs.push_back(e);
  for (size_t j = 0; j < k; ++j) {
    std::vector<EdgeId>& uses = facts_[premises[j]].uses;
    n.use_slot(j) = static_cast<uint32_t>(uses.size());
    uses.push_back(e);
  }
  ++num_edges_;
  ++edges_added_;
  return true;
}

DerivationEdgeStore::EdgeId DerivationEdgeStore::AddDerivation(
    std::string_view pred, const std::vector<ValueId>& row, int rule_index,
    const std::vector<FactKey>& premises) {
  FactId head = InternFact(pred, row.data(), row.size());
  premise_ids_.clear();
  for (const FactKey& pk : premises) {
    premise_ids_.push_back(
        InternFact(pk.predicate, pk.row.data(), pk.row.size()));
  }
  if (!AddEdge(head, rule_index, premise_ids_)) return kNoEdge;
  return facts_[head].derivs.back();
}

void DerivationEdgeStore::FreeFactIfOrphaned(FactId f) {
  FactNode& n = facts_[f];
  if (!n.live || !n.derivs.empty() || !n.uses.empty()) return;
  size_t h = FactHash(n.pred, n.row.data(), n.row.size());
  auto bit = fact_index_.find(h);
  if (bit != fact_index_.end()) {
    auto& bucket = bit->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), f), bucket.end());
    if (bucket.empty()) fact_index_.erase(bit);
  }
  n.row.clear();
  n.row.shrink_to_fit();
  n.live = false;
  free_facts_.push_back(f);
  --num_facts_;
}

void DerivationEdgeStore::RemoveEdge(EdgeId e) {
  EdgeNode& n = edges_[e];
  if (!n.live) return;
  // Swap-and-pop at the recorded slot, then repoint the moved edge's slot.
  std::vector<EdgeId>& derivs = facts_[n.head].derivs;
  const uint32_t slot = n.deriv_slot;
  derivs[slot] = derivs.back();
  derivs.pop_back();
  if (slot < derivs.size()) edges_[derivs[slot]].deriv_slot = slot;
  const size_t k = n.arity();
  for (size_t j = 0; j < k; ++j) {
    std::vector<EdgeId>& uses = facts_[n.links[j]].uses;
    const uint32_t use = n.use_slot(j);
    const uint32_t last = static_cast<uint32_t>(uses.size() - 1);
    if (use != last) {
      // The moved entry is the occurrence of this premise whose slot is
      // `last`; it may be another occurrence in this very edge.
      EdgeNode& moved = edges_[uses[last]];
      for (size_t i = 0; i < moved.arity(); ++i) {
        if (moved.links[i] == n.links[j] && moved.use_slot(i) == last) {
          moved.use_slot(i) = use;
          break;
        }
      }
      uses[use] = uses[last];
    }
    uses.pop_back();
  }
  // The head first, then each distinct premise; a premise repeated in the
  // edge must be freed once (the loop above removed one uses entry per
  // occurrence, FreeFactIfOrphaned is idempotent).
  FactId head = n.head;
  std::vector<uint32_t> links = std::move(n.links);
  n.links.clear();
  n.live = false;
  n.head = kNoFact;
  free_edges_.push_back(e);
  --num_edges_;
  ++edges_removed_;
  FreeFactIfOrphaned(head);
  for (size_t j = 0; j < k; ++j) FreeFactIfOrphaned(links[j]);
}

void DerivationEdgeStore::RecomputeRanks() {
  // Knuth's shortest-hyperpath: finalize facts in increasing rank order; an
  // edge's candidate rank for its head is max(premise ranks) + 1, available
  // once every premise occurrence is finalized.
  constexpr uint32_t kInf = 0xffffffffu;
  std::vector<uint32_t> best(facts_.size(), kInf);
  std::vector<bool> done(facts_.size(), false);
  std::vector<uint32_t> unresolved(edges_.size(), 0);
  std::vector<uint32_t> edge_max(edges_.size(), 0);
  using Item = std::pair<uint32_t, FactId>;
  std::priority_queue<Item, std::vector<Item>, std::greater<Item>> queue;
  for (size_t f = 0; f < facts_.size(); ++f) {
    if (!facts_[f].live) continue;
    if (facts_[f].derivs.empty()) {
      best[f] = 0;  // given fact: EDB or maintained outside this store
      queue.emplace(0u, static_cast<FactId>(f));
    }
  }
  for (size_t e = 0; e < edges_.size(); ++e) {
    if (!edges_[e].live) continue;
    unresolved[e] = static_cast<uint32_t>(edges_[e].arity());
    if (unresolved[e] == 0) {  // ground fact rule of a tracked predicate
      FactId h = edges_[e].head;
      if (best[h] > 1) {
        best[h] = 1;
        queue.emplace(1u, h);
      }
    }
  }
  while (!queue.empty()) {
    auto [r, f] = queue.top();
    queue.pop();
    if (done[f] || r != best[f]) continue;
    done[f] = true;
    facts_[f].rank = r;
    for (EdgeId e : facts_[f].uses) {
      edge_max[e] = std::max(edge_max[e], r);
      if (--unresolved[e] == 0) {
        FactId h = edges_[e].head;
        uint32_t candidate = edge_max[e] + 1;
        if (!done[h] && candidate < best[h]) {
          best[h] = candidate;
          queue.emplace(candidate, h);
        }
      }
    }
  }
  // Facts the queue never reached have no grounded derivation (a state the
  // well-founded model never contains); maximum rank marks them unsupported.
  for (size_t f = 0; f < facts_.size(); ++f) {
    if (facts_[f].live && !done[f]) facts_[f].rank = kInf;
  }
}

// ---------------------------------------------------------------- trees ----

size_t DerivationTree::Height() const {
  size_t h = 0;
  for (const DerivationTree& c : children) h = std::max(h, c.Height());
  return h + 1;
}

size_t DerivationTree::NodeCount() const {
  size_t n = 1;
  for (const DerivationTree& c : children) n += c.NodeCount();
  return n;
}

namespace {

using FactId = DerivationEdgeStore::FactId;

DerivationTree BuildFromEdges(const DerivationEdgeStore& store, FactId f,
                              std::unordered_set<FactId>* on_path) {
  DerivationTree tree;
  tree.fact = FactKey{store.pred_of(f), store.row_of(f)};
  const auto& derivs = store.derivations_of(f);
  if (derivs.empty() || on_path->count(f) > 0) return tree;  // leaf / cycle
  // Prefer a derivation that does not loop back into the current path (one
  // always exists for facts with a well-founded derivation; cyclic-support
  // remnants just print their premises as cut leaves).
  DerivationEdgeStore::EdgeId chosen = derivs.front();
  for (DerivationEdgeStore::EdgeId e : derivs) {
    bool loops = false;
    for (FactId p : store.premises_of(e)) {
      if (p == f || on_path->count(p) > 0) {
        loops = true;
        break;
      }
    }
    if (!loops) {
      chosen = e;
      break;
    }
  }
  tree.rule_index = store.rule_of(chosen);
  on_path->insert(f);
  for (FactId p : store.premises_of(chosen)) {
    tree.children.push_back(BuildFromEdges(store, p, on_path));
  }
  on_path->erase(f);
  return tree;
}

}  // namespace

DerivationTree BuildDerivationTree(const DerivationEdgeStore& store,
                                   const FactKey& fact) {
  FactId f = store.FindFact(fact.predicate, fact.row.data(), fact.row.size());
  if (f == DerivationEdgeStore::kNoFact) {
    DerivationTree leaf;
    leaf.fact = fact;
    return leaf;
  }
  std::unordered_set<FactId> on_path;
  return BuildFromEdges(store, f, &on_path);
}

namespace {

void Render(const DerivationTree& t, const ValueStore& values, size_t depth,
            std::string* out) {
  out->append(depth * 2, ' ');
  out->append(t.fact.predicate);
  out->push_back('(');
  for (size_t i = 0; i < t.fact.row.size(); ++i) {
    if (i > 0) out->append(", ");
    out->append(values.ToString(t.fact.row[i]));
  }
  out->push_back(')');
  if (t.rule_index >= 0) {
    out->append("   [rule " + std::to_string(t.rule_index) + "]");
  }
  out->push_back('\n');
  for (const DerivationTree& c : t.children) {
    Render(c, values, depth + 1, out);
  }
}

}  // namespace

std::string DerivationTreeToString(const DerivationTree& tree,
                                   const ValueStore& values) {
  std::string out;
  Render(tree, values, 0, &out);
  return out;
}

}  // namespace factlog::eval
