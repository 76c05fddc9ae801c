// Derivation trees (Definition 2.1 of the paper) over a derivation
// hypergraph.
//
// DerivationEdgeStore keeps derivation edges (head :- premises), each
// recorded once, with per-fact adjacency in both directions. Trees come from
// exec's derivation callback (exec::DerivationCallback): an inline run
// reports every rule instantiation, AddDerivation records it, and
// BuildDerivationTree expands a fact through its first recorded derivation.
// In a from-scratch inline run that is the instantiation that inserted the
// fact, whose premises were derived in earlier rounds. EDB facts are leaves
// (clause (1) of Def. 2.1), rule instantiations internal nodes (clause (2)).
//
// Materialized views keep the *complete* hypergraph of their recursive
// predicates in one store, filled only by that callback: at build, by every
// insertion, and — checkpoints persist rows, not edges — on first need after
// a restore (the first update reaching a recursive SCC, or `why`).
// Deletion then propagates along actual derivation edges instead of
// over-deleting everything reachable, and `why` queries can print a tree
// for any maintained fact. Memory is bounded: fact rows are interned once
// and ref-counted by the edges touching them (nodes free as their last edge
// goes), and a hard edge budget lets the owner drop the store and fall back
// to derivation-free maintenance.

#ifndef FACTLOG_EVAL_PROVENANCE_H_
#define FACTLOG_EVAL_PROVENANCE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "eval/rule_eval.h"

namespace factlog::eval {

/// A derivation hypergraph: of one materialized view's recursive predicates,
/// or of every instantiation an inline run reported. Facts (both heads and
/// premises, EDB or IDB) are interned to dense 32-bit ids; each edge records
/// its rule and premise facts and is linked into the head's derivation list
/// and every premise's uses list (one entry per premise occurrence, so
/// repeated premises stay symmetric with the per-occurrence counters
/// deletion keeps). Each edge also records its position in each of those
/// lists, so RemoveEdge unlinks in O(premises) however many edges share a
/// premise (a 0-ary magic guard is a premise of every recursive edge). Not
/// thread-safe: single writer.
class DerivationEdgeStore {
 public:
  using FactId = uint32_t;
  using EdgeId = uint32_t;
  static constexpr FactId kNoFact = 0xffffffffu;
  static constexpr EdgeId kNoEdge = 0xffffffffu;

  /// An edge's premise facts, in body order: a view into the store, valid
  /// until the next AddEdge, AddDerivation or RemoveEdge.
  class Premises {
   public:
    Premises(const FactId* begin, size_t size)
        : begin_(begin), size_(size) {}
    const FactId* begin() const { return begin_; }
    const FactId* end() const { return begin_ + size_; }
    size_t size() const { return size_; }
    FactId operator[](size_t i) const { return begin_[i]; }

   private:
    const FactId* begin_;
    size_t size_;
  };

  explicit DerivationEdgeStore(uint64_t max_edges) : max_edges_(max_edges) {}

  // -- facts ---------------------------------------------------------------

  /// Interns (predicate, row); returns the existing id when already known.
  FactId InternFact(std::string_view pred, const ValueId* row, size_t arity);
  /// Lookup without interning; kNoFact when the store never saw the fact.
  FactId FindFact(std::string_view pred, const ValueId* row,
                  size_t arity) const;

  const std::string& pred_of(FactId f) const {
    return pred_names_[facts_[f].pred];
  }
  /// Well-founded derivation rank: 0 for given facts (no derivations in the
  /// store), and for derived facts an upper bound on the minimal derivation
  /// height. The owner maintains the invariant that every alive derived fact
  /// has at least one derivation whose premises all have strictly smaller
  /// rank — the "supporting" derivations counting-based deletion counts.
  uint32_t rank_of(FactId f) const { return facts_[f].rank; }
  void set_rank(FactId f, uint32_t r) { facts_[f].rank = r; }
  /// Recomputes every live fact's rank as its exact minimal derivation
  /// height (Knuth's shortest-hyperpath, O(E log V)). Facts with no
  /// grounded derivation — which a well-founded state never holds — get the
  /// maximum rank so they count as unsupported.
  void RecomputeRanks();
  /// Dense predicate id (index into a per-store name table), for cheap
  /// membership tests during slice computation. -1 when never interned.
  int PredId(std::string_view pred) const;
  uint32_t pred_id_of(FactId f) const { return facts_[f].pred; }
  const std::vector<ValueId>& row_of(FactId f) const { return facts_[f].row; }
  /// Edges this fact is the head of. Empty for EDB facts (and freed slots).
  const std::vector<EdgeId>& derivations_of(FactId f) const {
    return facts_[f].derivs;
  }
  /// Edges this fact is a premise of, one entry per occurrence.
  const std::vector<EdgeId>& uses_of(FactId f) const {
    return facts_[f].uses;
  }

  // -- edges ---------------------------------------------------------------

  /// Adds the derivation (head :- premises) via `rule_index`, deduplicated
  /// against the head's existing derivations. Returns true when new.
  bool AddEdge(FactId head, int rule_index,
               const std::vector<FactId>& premises);
  /// Interns the head (`pred`, `row`) and every premise, then adds the edge
  /// as AddEdge does. Returns the new edge, or kNoEdge when the head already
  /// has this derivation or the budget rejected it.
  EdgeId AddDerivation(std::string_view pred, const std::vector<ValueId>& row,
                       int rule_index, const std::vector<FactKey>& premises);
  /// Unlinks the edge from its head and premises and frees any fact node
  /// left with neither derivations nor uses. No-op on already-removed ids.
  void RemoveEdge(EdgeId e);

  FactId head_of(EdgeId e) const { return edges_[e].head; }
  int rule_of(EdgeId e) const { return edges_[e].rule; }
  Premises premises_of(EdgeId e) const {
    const EdgeNode& n = edges_[e];
    return Premises(n.links.data(), n.arity());
  }

  // -- sizing --------------------------------------------------------------

  /// True once the live edge count ever exceeded the construction budget;
  /// the owner is expected to drop the store (it may be missing edges that
  /// were rejected).
  bool over_budget() const { return over_budget_; }
  /// Upper bound (exclusive) on live fact ids — side arrays indexed by
  /// FactId can be sized with this.
  size_t fact_capacity() const { return facts_.size(); }
  uint64_t num_facts() const { return num_facts_; }
  uint64_t num_edges() const { return num_edges_; }
  uint64_t edges_added() const { return edges_added_; }
  uint64_t edges_removed() const { return edges_removed_; }

 private:
  struct FactNode {
    uint32_t pred = 0;
    uint32_t rank = 0;
    std::vector<ValueId> row;
    std::vector<EdgeId> derivs;
    std::vector<EdgeId> uses;
    bool live = false;
  };
  struct EdgeNode {
    FactId head = kNoFact;
    int rule = -1;
    uint64_t sig = 0;  // hash of (rule, premises) for cheap dedup compares
    /// One buffer of 2k entries for k premises: the premise ids, then this
    /// edge's slot in each premise occurrence's `uses`.
    std::vector<uint32_t> links;
    bool live = false;
    /// This edge's slot in the head's `derivs`. It sits in the padding after
    /// `live` rather than in `links`: with 3 premises a 2k + 1 buffer is
    /// 28 bytes, one glibc size class above 24, and under view maintenance's
    /// add/remove churn that class made unrelated small allocations in
    /// other threads slow down over a run (perfbench view_serve's traced
    /// `ast.parse` spans grew from 50 us to ~2 ms).
    uint32_t deriv_slot = 0;

    size_t arity() const { return links.size() / 2; }
    uint32_t& use_slot(size_t j) { return links[arity() + j]; }
  };

  size_t FactHash(uint32_t pred, const ValueId* row, size_t arity) const;
  void FreeFactIfOrphaned(FactId f);

  uint64_t max_edges_;
  bool over_budget_ = false;
  uint64_t num_facts_ = 0;
  uint64_t num_edges_ = 0;
  uint64_t edges_added_ = 0;
  uint64_t edges_removed_ = 0;

  std::vector<std::string> pred_names_;
  std::unordered_map<std::string, uint32_t> pred_ids_;
  std::vector<FactNode> facts_;
  std::vector<FactId> free_facts_;
  std::vector<EdgeNode> edges_;
  std::vector<EdgeId> free_edges_;
  std::vector<FactId> premise_ids_;  // AddDerivation's reused buffer
  /// hash(pred, row) -> candidate fact ids, the same bucketed layout the
  /// Relation dedup table uses.
  std::unordered_map<size_t, std::vector<FactId>> fact_index_;
};

/// A derivation tree per Definition 2.1. `rule_index` is -1 for leaves
/// (EDB facts or program facts with empty bodies).
struct DerivationTree {
  FactKey fact;
  int rule_index = -1;
  std::vector<DerivationTree> children;

  /// Height with single-node trees having height 1 (as in the paper's
  /// induction).
  size_t Height() const;
  size_t NodeCount() const;
};

/// Reconstructs a derivation tree from the edge store, expanding each fact
/// through its first recorded derivation. Facts already on the path from the
/// root (recursive SCCs can hold cyclic support) become leaves, so the tree
/// is always finite even though the hypergraph is not acyclic.
DerivationTree BuildDerivationTree(const DerivationEdgeStore& store,
                                   const FactKey& fact);

/// Renders a tree, one node per line, indented; facts printed via `store`.
std::string DerivationTreeToString(const DerivationTree& tree,
                                   const ValueStore& values);

}  // namespace factlog::eval

#endif  // FACTLOG_EVAL_PROVENANCE_H_
