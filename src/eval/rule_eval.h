// Compiled rules and the join loop shared by the bottom-up engines.
//
// A rule is compiled once: variables become dense indices, argument terms
// become patterns, and — when the caller provides a plan::JoinPlan — the body
// is laid out in the planned join order, so enumeration simply walks the
// compiled body front to back. Without a plan the source (left-to-right)
// order is kept, the same sideways-information-passing order the paper's
// adornments assume. Joins use per-relation hash indices on the argument
// positions that are ground under the current partial binding.

#ifndef FACTLOG_EVAL_RULE_EVAL_H_
#define FACTLOG_EVAL_RULE_EVAL_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ast/rule.h"
#include "common/status.h"
#include "eval/database.h"
#include "plan/join_plan.h"

namespace factlog::eval {

/// Compiled argument pattern: a term with variables as dense indices.
struct Pat {
  enum class Kind { kConst, kVar, kApp };
  Kind kind = Kind::kConst;
  ValueId const_id = kInvalidValue;  // kConst
  int var = -1;                      // kVar
  std::string functor;               // kApp
  std::vector<Pat> children;         // kApp
};

/// Kind of a compiled body literal.
enum class LitKind {
  kRelation,     // stored predicate (EDB or IDB)
  kEqual,        // builtin equal/2
  kAffine,       // builtin affine/4: affine(X, A, B, Z) <=> Z = A*X + B
  kGeq,          // builtin geq/2: X >= C over integers
};

/// A compiled atom: predicate plus argument patterns.
struct CompiledAtom {
  std::string predicate;
  LitKind kind = LitKind::kRelation;
  std::vector<Pat> args;
};

/// A rule compiled against a ValueStore (constants are pre-interned). When a
/// JoinPlan is supplied the compiled body is permuted into plan order; the
/// source rule and the source position of every compiled literal are kept so
/// derivation premises can be reported in source order regardless of the
/// plan.
class CompiledRule {
 public:
  /// Compiles `rule`, interning its constants into `store`. With `plan` the
  /// body is laid out in plan order (ignored when the plan does not
  /// structurally match the rule).
  static Result<CompiledRule> Compile(const ast::Rule& rule, ValueStore* store,
                                      const plan::JoinPlan* plan = nullptr);

  int num_vars() const { return static_cast<int>(var_names_.size()); }
  const std::vector<std::string>& var_names() const { return var_names_; }
  const CompiledAtom& head() const { return head_; }
  const std::vector<CompiledAtom>& body() const { return body_; }
  const ast::Rule& source() const { return source_; }
  /// Source body position of compiled literal k (identity without a plan).
  const std::vector<size_t>& source_positions() const { return source_pos_; }
  /// Compiled indices of the relation literals, sorted by source position —
  /// the order premises are reported in.
  const std::vector<size_t>& premise_order() const { return premise_order_; }

 private:
  ast::Rule source_;
  CompiledAtom head_;
  std::vector<CompiledAtom> body_;
  std::vector<std::string> var_names_;
  std::vector<size_t> source_pos_;
  std::vector<size_t> premise_order_;
};

/// The extent of one predicate during a join: the union of up to three
/// relations. Semi-naive evaluation unions "full" and "delta"; incremental
/// maintenance (src/inc) additionally needs the three-way union of a
/// maintained relation, the facts accumulated this propagation, and the
/// current delta. Any member may be null; the relations must be pairwise
/// disjoint (the engines guarantee this). A view may also wrap a single
/// storage shard (Relation::shard), which is a self-contained Relation with
/// shard-local row ids — the parallel fixpoint uses delta shards as its work
/// partitions.
struct RelationView {
  Relation* first = nullptr;
  Relation* second = nullptr;
  /// The relations are shared read-only with concurrent threads: the join
  /// must not build indices lazily (it probes already-built indices via
  /// Relation::FindIndexed and otherwise scans). Pre-build the probe indices
  /// with Relation::EnsureIndex (combined) / Relation::EnsureShardIndexes
  /// (shard views) on the StaticIndexCols keys before the parallel region.
  bool shared = false;
  /// Third union member. Declared after `shared` so the established
  /// two-relation aggregate initializations keep compiling unchanged.
  Relation* third = nullptr;

  bool IsEmpty() const {
    return (first == nullptr || first->empty()) &&
           (second == nullptr || second->empty()) &&
           (third == nullptr || third->empty());
  }
};

/// A ground fact reference: a derivation premise or a derivation tree node.
struct FactKey {
  std::string predicate;
  std::vector<ValueId> row;

  bool operator==(const FactKey& o) const {
    return predicate == o.predicate && row == o.row;
  }
  bool operator<(const FactKey& o) const {
    if (predicate != o.predicate) return predicate < o.predicate;
    return row < o.row;
  }
};

/// Receives each ground head row produced by a rule instantiation. `premises`
/// is non-null only when premise tracking is enabled; it lists the body facts
/// (relation literals only) of this instantiation in source body order, even
/// when the rule was compiled with a reordering plan. Return false to stop
/// enumeration.
using HeadSink = std::function<bool(const std::vector<ValueId>& head_row,
                                    const std::vector<FactKey>* premises)>;

/// Join statistics, accumulated across Enumerate calls.
struct JoinStats {
  uint64_t rows_matched = 0;
  uint64_t instantiations = 0;
  /// Per-compiled-literal observation counters, indexed by compiled body
  /// position (plan order when the rule was plan-compiled). Sized lazily by
  /// EnumerateRule; relation literals only — builtin slots stay zero.
  /// `lit_probes[k]` counts the times the join reached literal k with some
  /// binding (one index probe or scan per reach); `lit_matched[k]` counts
  /// the rows that matched there. matched/probes is the literal's observed
  /// selectivity under its adornment — the planner feedback signal
  /// (plan::StatsCatalog).
  std::vector<uint64_t> lit_probes;
  std::vector<uint64_t> lit_matched;

  /// Adds `other`'s counters to these (per-literal vectors grow as needed).
  void Add(const JoinStats& other);
};

/// Enumerates all instantiations of `rule` where body literal i ranges over
/// `views[i]` (ignored for builtin literals), calling `sink` with each ground
/// head. Returns kInvalidArgument when a builtin cannot run (e.g. `equal`
/// with both sides unbound).
Status EnumerateRule(const CompiledRule& rule, ValueStore* store,
                     const std::vector<RelationView>& views,
                     bool track_premises, JoinStats* stats,
                     const HeadSink& sink);

/// For each compiled body literal (in the rule's compiled order), the
/// argument positions that are ground when the join reaches it — i.e. the
/// index key EnumerateRule will probe that literal's relation with (empty
/// for builtins and for literals probed with no bound columns). Groundness
/// is static per rule: a variable is bound at literal i exactly when an
/// earlier relation literal mentions it or an earlier builtin computes it.
///
/// The engines pre-build indices from the plan's declared index_cols
/// instead of calling this; it is kept as the independent ground-truth
/// oracle for what the join loop actually probes — plan::PlanRule's
/// AST-level groundness analysis must agree with it on every plan-compiled
/// rule (plan_test asserts the equivalence over the sweep corpus).
std::vector<std::vector<int>> StaticIndexCols(const CompiledRule& rule);

}  // namespace factlog::eval

#endif  // FACTLOG_EVAL_RULE_EVAL_H_
