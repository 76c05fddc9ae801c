// Incremental view maintenance: counting deltas for non-recursive strata, a
// derivation-edge support cascade for recursive ones.
//
// The engine's whole design amortizes one-time work — like the paper's
// multi-prime argument reduction, where a cheap precomputation pays for
// itself across every evaluation. A MaterializedView extends that economy to
// the data: instead of re-running the fixpoint after every EDB change, the
// view keeps the materialized IDB relations of a compiled program correct
// under fact insertions *and deletions* with delta-sized work.
//
// Algorithm, per strongly connected component of the predicate dependency
// graph (processed dependencies-first):
//
//   * Non-recursive predicates use *counting*: every fact carries its number
//     of derivations (Relation support counts). An EDB delta is propagated
//     with the standard occurrence decomposition — for each rule and each
//     body occurrence j of a changed predicate, literal j ranges over the
//     delta, literals before j over the new state, literals after j over the
//     old state — adding (insert) or subtracting (delete) one support per
//     instantiation. A fact dies exactly when its count reaches zero, so
//     deletions never require re-evaluation.
//
//   * Recursive SCCs run on exec's semi-naive engine, over a program of the
//     SCC's own rules. An insertion continues the SCC's fixpoint
//     (exec::EvaluateSeeded): members start at their maintained extent with
//     an empty delta, each lower predicate with a pending delta at its
//     current extent with that delta. The view keeps a *derivation edge
//     store* (the complete derivation hypergraph of the SCC's facts,
//     eval::DerivationEdgeStore), fed one edge per instantiation by the
//     engine's derivation callback. Every fact carries a
//     well-founded *rank* (minimal derivation height), and a derivation is
//     *supporting* when all its premises rank strictly below its head —
//     cyclic support never counts. Deletion is a support cascade: killing an
//     edge decrements its head's supporting count, a head reaching zero is
//     tentatively dead and kills its own uses, so the cascade only touches
//     facts that actually lost a derivation (delta-sized even for random
//     deletes in dense graphs, where a reachability cone would span nearly
//     everything). A final least-fixpoint rescue keeps any tentatively dead
//     fact with a derivation avoiding every seed and dead fact — longer
//     surviving paths are kept in place without row churn, while
//     mutually-supporting ungrounded cycles stay dead. Build records the
//     store through the callback of its one inline evaluation; a restored
//     view (checkpoints persist rows, not edges) re-derives its recursive
//     SCCs inline through the same callback on first need — its first
//     update reaching a recursive SCC, or `why`. Every insertion keeps it
//     exact; if it
//     ever exceeds its edge budget it is dropped for good, and a deletion
//     re-derives each affected SCC from scratch over the (already updated)
//     lower strata with the engine's ordinary entry (exec::EvaluateParallel),
//     then erases the facts that did not come back — one bounded SCC
//     evaluation per affected SCC.
//
// Maintenance runs inline on the calling thread, over flat maintained
// relations, whatever pool or shard count the engine has.
//
// A view is single-writer: Apply* and Answer must be externally serialized
// (api::Engine routes them through its mutation guard). A failed propagation
// (budget exhaustion, join error) poisons the view: the maintained state may
// be inconsistent and every later call fails with kFailedPrecondition.

#ifndef FACTLOG_INC_INCREMENTAL_H_
#define FACTLOG_INC_INCREMENTAL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ast/program.h"
#include "common/status.h"
#include "eval/database.h"
#include "eval/provenance.h"
#include "eval/rule_eval.h"
#include "eval/seminaive.h"
#include "exec/parallel_seminaive.h"
#include "plan/join_plan.h"
#include "storage/meta.h"

namespace factlog::inc {

struct IncrementalOptions {
  /// Budgets shared with the evaluators. `max_facts` bounds the maintained
  /// IDB plus in-flight deltas, `max_iterations` bounds every internal
  /// SCC fixpoint (insertion and fallback re-derivation).
  eval::EvalOptions eval;
  /// Edge budget for the derivation edge store backing slice deletions in
  /// recursive SCCs. When the live hypergraph would exceed it, the store is
  /// dropped permanently and deletion falls back to re-deriving the affected
  /// SCC. 0 disables edge tracking entirely.
  uint64_t max_derivation_edges = uint64_t{1} << 22;
};

/// Maintenance counters. Used both cumulatively (ViewStats below) and as the
/// per-propagation delta of the most recent Apply* call.
struct ViewUpdateStats {
  uint64_t inserts_applied = 0;  // EDB delta rows propagated as insertions
  uint64_t deletes_applied = 0;  // EDB delta rows propagated as deletions
  uint64_t idb_inserted = 0;     // IDB facts added across all predicates
  uint64_t idb_deleted = 0;      // IDB facts removed (net, every path)
  uint64_t support_updates = 0;  // counting: derivation-count adjustments
  uint64_t overdeleted = 0;      // slice: tentative deletions of the cascade
  uint64_t rederived = 0;        // slice: tentative deletions rescued
  uint64_t delta_passes = 0;     // (rule, occurrence) delta passes run
  uint64_t cone_input = 0;       // slice: facts touched by the support cascade
  uint64_t cone_pruned = 0;      // slice: cone facts kept (surviving support)
  uint64_t edges_added = 0;      // derivation edges recorded
  uint64_t edges_removed = 0;    // derivation edges retired

  /// Field-wise difference (this - before), for per-update snapshots.
  ViewUpdateStats Since(const ViewUpdateStats& before) const;
};

/// Cumulative maintenance counters of one view, plus the per-propagation
/// snapshot of the most recent Apply* call and edge-store gauges.
struct ViewStats : ViewUpdateStats {
  /// Counter deltas of the most recent ApplyInsert/ApplyDelete propagation
  /// (zeroed-out no-op calls excluded), so callers can assert cone sizes for
  /// a single delete without diffing cumulative counters themselves.
  ViewUpdateStats last_update;
  /// Live edge-store gauges (sizes, not deltas).
  uint64_t edge_store_facts = 0;
  uint64_t edge_store_edges = 0;
  bool edge_store_active = false;
  /// True once the edge budget was exceeded and the store was dropped;
  /// recursive deletions re-derive the affected SCC from then on.
  bool edge_store_dropped = false;
};

/// The materialized IDB of one compiled program, kept incrementally correct
/// under EDB deltas. Holds a pointer to the engine's database (the EDB it
/// joins deltas against); the database must outlive the view.
class MaterializedView {
 public:
  /// Evaluates `program` against `db` from scratch, inline, and prepares
  /// the maintenance state: SCC strata, and the derivation edge store and
  /// exact support counts the evaluation's derivation callback records.
  static Result<std::unique_ptr<MaterializedView>> Build(
      const ast::Program& program, eval::Database* db,
      const IncrementalOptions& opts);

  /// Rebuilds a view from checkpointed state: compiles the same maintenance
  /// machinery as Build but fills the maintained relations (and their
  /// support counts) from `preds` instead of evaluating; the edge store is
  /// owed until first needed. `db` must hold the EDB state the dump was
  /// taken against, or later deltas will maintain an inconsistent view.
  static Result<std::unique_ptr<MaterializedView>> Restore(
      const ast::Program& program, eval::Database* db,
      const IncrementalOptions& opts,
      const std::vector<storage::ViewPredDump>& preds);

  /// Dumps every maintained relation by value, in a form Restore accepts.
  std::vector<storage::ViewPredDump> DumpState() const;

  MaterializedView(const MaterializedView&) = delete;
  MaterializedView& operator=(const MaterializedView&) = delete;

  /// Propagates the insertion of `delta` rows into EDB predicate `pred`.
  /// Contract: `db` must NOT yet contain the rows (the caller inserts them
  /// after every view has propagated), and `delta` must be disjoint from the
  /// stored relation. Deltas into predicates the program defines by rules
  /// are ignored — the evaluators never read same-named EDB facts either.
  Status ApplyInsert(const std::string& pred, const eval::Relation& delta);

  /// Propagates the deletion of `delta` rows from EDB predicate `pred`.
  /// Contract: the rows must already be erased from `db` (old state =
  /// stored relation ∪ delta).
  Status ApplyDelete(const std::string& pred, const eval::Relation& delta);

  /// Answers a query from the maintained relations (eval::ExtractAnswers
  /// semantics). The query's constants must match the ones the program was
  /// compiled with — api::Engine guarantees this by keying views on the plan
  /// cache key.
  Result<eval::AnswerSet> Answer(const ast::Atom& query);

  /// A frozen copy of the maintained relation that answers this view's query
  /// — the program query's predicate — with the answer-probe index (the
  /// query's ground argument positions) pre-built, for snapshot serving:
  /// readers extract answers from the copy with ExtractAnswersFrom while the
  /// writer keeps mutating the live relation. Cached per relation version,
  /// so calls between deltas share one copy. Must be called from the single
  /// writer, like Apply*. Null when the view is poisoned, has no query, or
  /// the query predicate is not maintained.
  std::shared_ptr<eval::Relation> FrozenAnswer();

  /// The maintained relation for `pred` (nullptr when not an IDB predicate).
  const eval::Relation* Find(const std::string& pred) const {
    return result_.Find(pred);
  }
  const std::map<std::string, std::unique_ptr<eval::Relation>>& idb() const {
    return result_.idb();
  }
  /// Total maintained IDB facts.
  uint64_t total_facts() const;

  const ast::Program& program() const { return program_; }
  const ViewStats& stats() const { return stats_; }
  /// Drains the delta passes' accumulated per-literal probe counters into
  /// planner observations (plan::StatsCatalog::ObserveBatch feedback). The
  /// counters reset, so calls between propagations yield disjoint batches.
  /// Must be called from the single writer, like Apply*.
  std::vector<plan::ProbeObservation> DrainObservations();
  /// True once a failed propagation left the maintained state inconsistent;
  /// every subsequent Apply*/Answer call fails with kFailedPrecondition.
  bool poisoned() const { return poisoned_; }

  /// True while the derivation edge store is live (recursive SCCs present,
  /// edge tracking enabled, budget never exceeded) — i.e. recursive
  /// deletions take the slice path.
  bool edge_guided() const { return edges_ != nullptr; }
  /// True while a restored view owes its edge store: tracked (recursive
  /// SCCs, non-zero budget), never built nor dropped. The first update
  /// reaching a recursive SCC, or Explain, builds it.
  bool edge_store_owed() const;
  /// Renders a derivation tree for `fact` from the edge store: recursive
  /// facts expand through a recorded derivation, EDB and counting-maintained
  /// facts are leaves (the latter annotated with their support count).
  /// Answers "why <fact>" in the CLI. Must be called from the single writer
  /// (interning the atom's constants may mutate the value store).
  Result<std::string> Explain(const ast::Atom& fact);

  /// Replaces eval.max_iterations for later maintenance fixpoints (the
  /// engine re-derives a Counting view's bound before each propagation).
  /// Must be called from the single writer, like Apply*.
  void set_max_iterations(uint64_t n) { opts_.eval.max_iterations = n; }

 private:
  struct PredInfo {
    /// Member of a recursive SCC (edge cascade); false selects counting.
    bool recursive = false;
    /// Rule indices whose head is this predicate.
    std::vector<size_t> rules;
  };

  /// One stratum: a component of the IDB dependency graph. A recursive one
  /// also carries its rules, member by member, as a program of their own
  /// for exec's engine, with their plans.
  struct Scc {
    std::vector<std::string> preds;
    bool recursive = false;
    ast::Program program;
    plan::ProgramPlan plan;
    /// The view's rule index of each rule of `program`.
    std::vector<size_t> rules;
  };

  using DeltaMap = std::map<std::string, const eval::Relation*>;
  /// Counting-pass sinks see each head row, once per instantiation.
  using RowSink = std::function<void(const std::vector<eval::ValueId>&)>;

  MaterializedView(const ast::Program& program, eval::Database* db,
                   const IncrementalOptions& opts)
      : program_(program), db_(db), opts_(opts) {}

  /// Build (null `restore`) and Restore.
  static Result<std::unique_ptr<MaterializedView>> Make(
      const ast::Program& program, eval::Database* db,
      const IncrementalOptions& opts,
      const std::vector<storage::ViewPredDump>* restore);
  /// Non-null `restore` replaces the from-scratch evaluation with the dumped
  /// relations (with exact support counts). A dump that does not fit the
  /// program fails with kInvalidArgument before any of its rows are read.
  Status Init(const std::vector<storage::ViewPredDump>* restore);
  /// Checks one dumped predicate against the program and the value store.
  Status CheckDump(const storage::ViewPredDump& pd) const;
  /// Builds an owed edge store by re-deriving each recursive SCC inline
  /// through the derivation callback, reading every relation at its state
  /// before the propagation in flight (`removed` holds the rows it already
  /// erased). No-op when nothing is owed.
  Status EnsureEdgeStore(const DeltaMap& removed);
  /// Adds one derivation edge (DerivationEdgeStore::AddDerivation) and ranks
  /// a newly derived head. No-op when the store is gone; flips the overflow
  /// flag on budget breach.
  void RecordEdge(const std::string& pred, const std::vector<eval::ValueId>& row,
                  size_t rule_index,
                  const std::vector<eval::FactKey>& premises);
  /// Drops an overflowed store (permanently — it may be missing edges) and
  /// refreshes the edge gauges in stats_.
  void SettleEdgeStore();

  /// The current stored extent of `pred`: maintained IDB relation or EDB
  /// relation from the database (nullptr when the predicate has no facts).
  eval::Relation* CurrentRel(const std::string& pred);
  bool IsIdb(const std::string& pred) const {
    return idb_preds_.count(pred) > 0;
  }
  bool SccAffected(const Scc& scc, const DeltaMap& delta) const;
  /// The occurrence decomposition of `rule` around relation literal `j`,
  /// whose view the pass replaces with the delta: literals before `j` read
  /// current ∪ delta when `delta_before`, literals after `j` read it
  /// otherwise, and the rest read the current extent alone.
  std::vector<eval::RelationView> OccurrenceViews(
      const eval::CompiledRule& rule, size_t j, const DeltaMap& delta,
      bool delta_before);
  /// Evaluates `scc` on exec's engine with the view's plans and budgets:
  /// continued from `seeds` (exec::EvaluateSeeded), or from scratch when
  /// null; recorded while the edge store is live. Relations
  /// outside the SCC are read in place, or as a copy of their old state
  /// when `removed` holds rows erased from them; `owned` are the deltas in
  /// flight.
  Result<eval::EvalResult> EvaluateScc(
      const Scc& scc, const std::map<std::string, exec::SeedExtent>* seeds,
      const std::vector<std::unique_ptr<eval::Relation>>& owned,
      const DeltaMap& removed = {});

  Status PropagateInsert(const std::string& pred,
                         const eval::Relation& delta);
  Status PropagateDelete(const std::string& pred,
                         const eval::Relation& delta);
  Status InsertCounting(const std::string& pred, DeltaMap* delta,
                        std::vector<std::unique_ptr<eval::Relation>>* owned);
  Status DeleteCounting(const std::string& pred, DeltaMap* delta,
                        std::vector<std::unique_ptr<eval::Relation>>* owned);
  Status InsertRecursive(const Scc& scc, DeltaMap* delta,
                         std::vector<std::unique_ptr<eval::Relation>>* owned);
  /// Slice deletion while the edge store is live; otherwise re-derives the
  /// SCC from scratch over the lower strata (exec::EvaluateParallel), erases
  /// what did not come back and emits it as the outward delta.
  Status DeleteRecursive(const Scc& scc, DeltaMap* delta,
                         std::vector<std::unique_ptr<eval::Relation>>* owned);
  /// Slice deletion along derivation edges (requires a live edge store):
  /// forward cone from the deleted facts, least-fixpoint safety pruning,
  /// erase of the unsupported remainder, edge retirement.
  Status DeleteRecursiveSliced(
      const Scc& scc, DeltaMap* delta,
      std::vector<std::unique_ptr<eval::Relation>>* owned);

  /// Runs one counting delta pass of `rules_[rule_index]` with body
  /// occurrence `occ` ranging over `delta`. Every emitted head row reaches
  /// `apply` (multiplicity preserved).
  Status RunPassCollect(size_t rule_index,
                        std::vector<eval::RelationView> views, size_t occ,
                        const eval::Relation* delta, const RowSink& apply);

  ast::Program program_;
  eval::Database* db_;
  IncrementalOptions opts_;

  std::set<std::string> idb_preds_;
  /// The program's join plan (engine-supplied or computed at Build); the
  /// compiled rules_ bodies are laid out in its order.
  plan::ProgramPlan plan_;
  std::vector<eval::CompiledRule> rules_;
  /// Per-rule join counters accumulated across counting passes, and the
  /// probe observations of SCC evaluations; DrainObservations drains both.
  std::vector<eval::JoinStats> rule_join_stats_;
  std::vector<plan::ProbeObservation> scc_observations_;
  std::map<std::string, PredInfo> pred_info_;
  /// SCCs of the IDB dependency graph, dependencies first.
  std::vector<Scc> sccs_;

  eval::EvalResult result_;
  /// Derivation hypergraph of the recursive SCCs; null when the program has
  /// none, tracking is disabled, it is owed, or the budget was exceeded
  /// (then stats_.edge_store_dropped is set and deletions re-derive the SCC).
  std::unique_ptr<eval::DerivationEdgeStore> edges_;
  /// Set when a RecordEdge hit the budget mid-pass; SettleEdgeStore drops
  /// the (now incomplete) store at the end of the propagation.
  bool edges_overflowed_ = false;
  ViewStats stats_;
  bool poisoned_ = false;
  /// FrozenAnswer cache: the frozen copy and the relation version it froze.
  std::shared_ptr<eval::Relation> frozen_answer_;
  uint64_t frozen_answer_version_ = 0;
};

}  // namespace factlog::inc

#endif  // FACTLOG_INC_INCREMENTAL_H_
