// Naive and semi-naive bottom-up fixpoint evaluation.
//
// Computes the least fixpoint of the T_P operator (van Emden & Kowalski, as
// used in §2 of the paper) seeded with the EDB. The semi-naive strategy is
// the one the paper assumes throughout ("the semi-naive bottom-up evaluation
// of the new program constructs the answer to the query", §1); it runs the
// shard-partitioned engine of exec/parallel_seminaive.h without a pool. The
// naive strategy is a separate, deliberately plain loop kept as the oracle
// the semi-naive engine is tested against.

#ifndef FACTLOG_EVAL_SEMINAIVE_H_
#define FACTLOG_EVAL_SEMINAIVE_H_

#include <cstddef>
#include <iterator>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "common/status.h"
#include "eval/database.h"
#include "eval/rule_eval.h"
#include "plan/join_plan.h"
#include "plan/stats_catalog.h"

namespace factlog::eval {

/// Evaluation strategy selector.
enum class Strategy {
  kNaive,      // recompute every rule against the full extent each round
  kSemiNaive,  // delta-driven (default)
};

/// Which join order the engines evaluate rule bodies in.
enum class JoinOrder {
  /// The per-rule plan::JoinPlan order (default): the caller-supplied
  /// program_plan when compatible, else a plan computed on the fly from the
  /// database's extent sizes.
  kPlanned,
  /// Source body order — the pre-planner baseline the equivalence tests and
  /// benches compare against.
  kLeftToRight,
};

struct EvalOptions {
  Strategy strategy = Strategy::kSemiNaive;
  /// Abort with kResourceExhausted when total IDB facts exceed this. Guards
  /// against genuinely diverging programs (function symbols, Counting index
  /// fields; see §6.4).
  uint64_t max_facts = 10'000'000;
  /// Abort with kResourceExhausted after this many fixpoint iterations.
  uint64_t max_iterations = 1'000'000;
  /// The database's base relations are shared read-only with concurrent
  /// evaluations (api::Engine's serving reads): never build
  /// indices on them lazily — probe pre-built ones (plan::BaseIndexNeeds
  /// names them) and otherwise scan. The
  /// ValueStore itself is always safe to share; this flag only governs the
  /// relations.
  bool shared_edb = false;
  /// Join-order policy (see JoinOrder). kLeftToRight ignores program_plan.
  JoinOrder join_order = JoinOrder::kPlanned;
  /// The compile-time join plan for the program being evaluated (normally
  /// core::CompiledQuery::plans, non-owning — must outlive the evaluation).
  /// Ignored when null or structurally incompatible with the program; the
  /// engines then plan for themselves.
  const plan::ProgramPlan* program_plan = nullptr;
  /// Mid-fixpoint adaptivity: before each semi-naive iteration the engines
  /// compare every planned relation literal's extent estimate against the
  /// observed extent (current delta size for IDB occurrences, live size for
  /// base relations, +1 smoothing both directions) and re-plan the rule —
  /// join order, index columns, partitioning driver — from the measured
  /// sizes when any ratio exceeds this factor. Re-planning changes only the
  /// enumeration order; fact sets stay oracle-identical. 0 disables; the
  /// default matches the engine cache's stale-plan drift guard. Ignored
  /// under kLeftToRight (the baseline must stay the baseline).
  double replan_threshold = 4.0;
};

/// Resolves the plan an evaluation of `program` against `db` should use:
/// `opts.program_plan` when compatible, an identity (source-order) plan
/// under kLeftToRight, else a fresh plan seeded with the database's actual
/// base-relation sizes. Shared by the naive loop, the semi-naive engine
/// (exec), and incremental maintenance (inc).
plan::ProgramPlan PlanForEvaluation(const ast::Program& program,
                                    const Database& db,
                                    const EvalOptions& opts);

struct EvalStats {
  uint64_t iterations = 0;
  /// Distinct IDB facts at fixpoint.
  uint64_t total_facts = 0;
  /// Successful rule-head instantiations, including duplicates. This is the
  /// "number of inferences" cost measure.
  uint64_t instantiations = 0;
  /// Rows matched during joins (index probe successes).
  uint64_t rows_matched = 0;
  /// IDB facts per storage shard at fixpoint, summed over predicates (one
  /// entry for the flat layout). Shows how evenly the hash partitioning
  /// spread the derived rows. Entries always sum to total_facts; relations
  /// with fewer shards than the widest one (e.g. arity-0 predicates, which
  /// are never sharded) count toward their own low shard indices, so entry
  /// 0 can include rows of unsharded relations.
  std::vector<uint64_t> shard_facts;
  /// Per-rule join counters, index-aligned with the program's rules. The
  /// entries sum to `instantiations` / `rows_matched`; the scaling bench
  /// reports them per rule to make join-plan effects visible.
  std::vector<uint64_t> rule_instantiations;
  std::vector<uint64_t> rule_rows_matched;
  /// Rules re-planned mid-fixpoint (EvalOptions::replan_threshold).
  uint64_t replans = 0;
  /// (rule, body occurrence) passes run over a non-empty delta.
  uint64_t delta_passes = 0;
  /// Planner feedback (plan::StatsCatalog::ObserveBatch / ObserveExtent /
  /// ObserveDelta consume these): per-literal probe totals keyed by
  /// predicate + bound columns, IDB extents at fixpoint, and mean
  /// per-iteration delta sizes.
  std::vector<plan::ProbeObservation> probe_observations;
  std::map<std::string, uint64_t> observed_extents;
  std::map<std::string, double> observed_delta_mean;
};

/// Sums each shard's row count of `rel` into `shard_facts` (index-aligned by
/// shard, growing the vector as needed). Shared by the evaluators' stats
/// reporting.
void AccumulateShardFacts(const Relation& rel,
                          std::vector<uint64_t>* shard_facts);

/// Folds per-rule join counters into `stats`: fills rule_instantiations /
/// rule_rows_matched (index-aligned with `rule_stats`) and adds their sums
/// to the instantiations / rows_matched totals. Shared by the evaluators'
/// Finish paths.
void FoldRuleStats(const std::vector<JoinStats>& rule_stats, EvalStats* stats);

/// The +1-smoothed symmetric ratio test all drift guards share: true when
/// est and actual disagree by more than `threshold` in either direction.
bool ExtentDrifted(uint64_t est, uint64_t actual, double threshold);

/// Drains `stats`' per-literal probe counters into `out` as planner
/// observations — relation literals only, adorned with the plan's index
/// columns — zeroing the drained counters so the same JoinStats can keep
/// accumulating under a different (re-planned) literal order afterwards.
/// Shared by the evaluators' feedback paths.
void DrainProbeObservations(const CompiledRule& rule,
                            const plan::JoinPlan& rule_plan, JoinStats* stats,
                            std::vector<plan::ProbeObservation>* out);

/// Result of a bottom-up evaluation: the IDB relations plus statistics.
class EvalResult {
 public:
  const Relation* Find(const std::string& pred) const {
    auto it = idb_.find(pred);
    return it == idb_.end() ? nullptr : it->second.get();
  }
  Relation* Find(const std::string& pred) {
    auto it = idb_.find(pred);
    return it == idb_.end() ? nullptr : it->second.get();
  }
  const std::map<std::string, std::unique_ptr<Relation>>& idb() const {
    return idb_;
  }
  std::map<std::string, std::unique_ptr<Relation>>* mutable_idb() {
    return &idb_;
  }

  /// Number of facts for `pred` (0 when absent).
  size_t SizeOf(const std::string& pred) const {
    const Relation* r = Find(pred);
    return r == nullptr ? 0 : r->size();
  }

  const EvalStats& stats() const { return stats_; }
  EvalStats* mutable_stats() { return &stats_; }

 private:
  std::map<std::string, std::unique_ptr<Relation>> idb_;
  EvalStats stats_;
};

/// Evaluates `program` bottom-up against `db`. EDB relations in `db` are
/// read-only; the value store grows as new compound values are built.
Result<EvalResult> Evaluate(const ast::Program& program, Database* db,
                            const EvalOptions& opts = EvalOptions());

/// One row of a RowTable: `size()` ids read in place from the table's
/// buffer. Valid while its table is alive and unmodified.
class RowView {
 public:
  using value_type = ValueId;
  using const_iterator = const ValueId*;
  using iterator = const_iterator;

  RowView(const ValueId* ids, size_t width) : ids_(ids), width_(width) {}

  size_t size() const { return width_; }
  bool empty() const { return width_ == 0; }
  ValueId operator[](size_t i) const { return ids_[i]; }
  const ValueId* begin() const { return ids_; }
  const ValueId* end() const { return ids_ + width_; }

 private:
  const ValueId* ids_;
  size_t width_;
};

/// Answer rows stored flat: `size()` rows of `width()` ids each, back to
/// back in one buffer (row r is cells()[r * width(), (r + 1) * width())).
/// The row count is kept apart from the buffer because width-0 rows take no
/// cells: a matched 0-ary query has one empty row. Indexing and iteration
/// yield RowViews into the buffer, valid while the table is alive and
/// unmodified. Two tables are equal when they hold the same rows in the
/// same order, so empty tables are equal whatever their widths.
class RowTable {
 public:
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = RowView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = RowView;

    const_iterator(const ValueId* ids, size_t width, size_t row)
        : ids_(ids), width_(width), row_(row) {}
    RowView operator*() const { return RowView(ids_ + row_ * width_, width_); }
    const_iterator& operator++() {
      ++row_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++row_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return row_ == o.row_; }
    bool operator!=(const const_iterator& o) const { return row_ != o.row_; }

   private:
    const ValueId* ids_;
    size_t width_;
    size_t row_;
  };
  using iterator = const_iterator;
  using value_type = RowView;

  RowTable() = default;
  /// `cells` holds `rows` rows of `width` ids (rows * width ids in all).
  RowTable(std::vector<ValueId> cells, size_t width, size_t rows)
      : cells_(std::move(cells)), width_(width), rows_(rows) {}

  size_t size() const { return rows_; }
  bool empty() const { return rows_ == 0; }
  size_t width() const { return width_; }
  const std::vector<ValueId>& cells() const { return cells_; }

  RowView operator[](size_t r) const {
    return RowView(cells_.data() + r * width_, width_);
  }
  const_iterator begin() const { return {cells_.data(), width_, 0}; }
  const_iterator end() const { return {cells_.data(), width_, rows_}; }

  bool operator==(const RowTable& o) const {
    return rows_ == o.rows_ &&
           (rows_ == 0 || (width_ == o.width_ && cells_ == o.cells_));
  }
  bool operator!=(const RowTable& o) const { return !(*this == o); }

 private:
  std::vector<ValueId> cells_;
  size_t width_ = 0;
  size_t rows_ = 0;
};

/// A set of answers to a query: one row per binding of the query's distinct
/// variables (in first-occurrence order), so every row has vars.size() ids.
/// Rows are unique and sorted lexicographically over signed ValueId (the
/// SortedUniqueRows order), stored flat in one RowTable buffer.
struct AnswerSet {
  std::vector<std::string> vars;
  RowTable rows;

  bool operator==(const AnswerSet& o) const { return rows == o.rows; }
  bool operator!=(const AnswerSet& o) const { return !(*this == o); }
  size_t size() const { return rows.size(); }

  std::string ToString(const ValueStore& values) const;
};

/// Extracts the answers to `query` from an evaluation result. The query may
/// contain constants and compound patterns; rows are the bindings of its
/// distinct variables. `shared_edb` as in EvalOptions (it matters when the
/// query predicate is a base relation).
Result<AnswerSet> ExtractAnswers(const ast::Atom& query, EvalResult* result,
                                 Database* db, bool shared_edb = false);

/// Core of ExtractAnswers against one explicit relation: enumerates the
/// bindings of `query`'s distinct variables over `rel` (nullptr = no facts,
/// empty answers). `shared` marks `rel` read-only-shared across threads
/// (probe pre-built indices or scan; never build). The serving subsystem
/// answers snapshot and view-hit queries through this entry point.
///
/// Rows come out duplicate-free in SortedUniqueRows order. When every query
/// argument is a variable, none repeats, and the argument count equals
/// `rel`'s arity (`t(X, Y)`), the rows are copied straight out of `rel`;
/// any other query (constants, repeated variables, compound patterns) runs
/// as a one-literal join.
Result<AnswerSet> ExtractAnswersFrom(const ast::Atom& query, Relation* rel,
                                     ValueStore* store, bool shared);

/// The one definition of answer order: sorts the `n` rows of `width` ids
/// stored back to back in `cells` lexicographically over signed ValueId
/// (std::vector<ValueId>::operator<), drops duplicates, and returns them as
/// AnswerSet rows, gathered into one buffer. Width 0 gives one empty row
/// when n > 0. An LSD radix sort over the id bytes that vary between rows.
RowTable SortedUniqueRows(const std::vector<ValueId>& cells, size_t width,
                          size_t n);

/// Convenience: Evaluate + ExtractAnswers. When `stats_out` is non-null the
/// evaluation statistics are copied there.
Result<AnswerSet> EvaluateQuery(const ast::Program& program,
                                const ast::Atom& query, Database* db,
                                const EvalOptions& opts = EvalOptions(),
                                EvalStats* stats_out = nullptr);

}  // namespace factlog::eval

#endif  // FACTLOG_EVAL_SEMINAIVE_H_
