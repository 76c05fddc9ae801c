// Compile-time join planning: one cost-based JoinPlan IR shared by every
// evaluator.
//
// The paper's thesis is that evaluation work should be decided at compile
// time — factoring rewrites a program once so every later evaluation touches
// fewer arguments. The runtime side of that economy is the join order: which
// body literal drives each rule, which index each literal is probed with,
// and which literal's extent the parallel fixpoint partitions. This module
// decides all three once per compiled rule:
//
//   * `PlanRule` runs a deterministic greedy cost model over the rule body.
//     At each step it schedules the cheapest remaining relation literal,
//     where cost is the literal's estimated extent (an exact size hint when
//     the caller has one, a default otherwise; literals of delta-driven
//     predicates — the semi-naive IDB — are assumed delta-sized) shrunk by a
//     fixed selectivity per argument position already ground under the
//     bindings accumulated so far. Ties break toward source order, so the
//     plan deviates from left-to-right only when the model clearly prefers
//     it. Builtins are scheduled eagerly as soon as they are ready, under
//     the binding model lint and adornment share (ast/binding.h).
//
//   * The per-literal `index_cols` — the argument positions ground when the
//     planned join reaches the literal — are the rule's complete index
//     requirement: engines pre-build exactly these indices before sharing
//     relations read-only across threads (`BaseIndexNeeds`, the parallel
//     fixpoint's prewarm step).
//
//   * The `driver` is the first relation literal in plan order: the literal
//     whose extent the parallel fixpoint partitions into per-shard tasks
//     (delta shards when the driver is the delta occurrence itself, the
//     driver's frozen extent otherwise — which removes the duplicated
//     rule-prefix re-enumeration for right-linear rules).
//
// A builtin written before the literals that bind its inputs (e.g.
// `equal(X, Y)` ahead of `e(X)`) therefore runs once they have: every rule
// lint accepts gets an order that runs. Builtins that no order makes ready
// (lint's L002) come last, where the engines reject them. Planning is pure
// and deterministic: same rule, same options, same plan.
//
// Layering: this module depends only on ast/ and common/. eval/, exec/,
// inc/, and core/ all sit above it.

#ifndef FACTLOG_PLAN_JOIN_PLAN_H_
#define FACTLOG_PLAN_JOIN_PLAN_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "ast/rule.h"

namespace factlog::plan {

class StatsCatalog;

struct PlanOptions {
  /// Known extent sizes (rows) by predicate — e.g. a snapshot of the base
  /// relations. Missing predicates fall back to a fixed default.
  std::map<std::string, uint64_t> extent_hints;
  /// Predicates whose body occurrences range over fixpoint deltas rather
  /// than full extents (the semi-naive IDB): estimated at a small fixed
  /// delta size (or the measured `delta_hints` value) regardless of extent
  /// hints, so delta-driven literals plan toward the front. PlanProgram
  /// additionally unions in the program's own IDB predicates.
  std::set<std::string> delta_preds;
  /// Observed mean per-iteration delta sizes by predicate (StatsCatalog
  /// feedback) — preferred over the fixed delta size for delta-driven
  /// literals.
  std::map<std::string, double> delta_hints;
  /// Observed rows matched per probe, keyed by predicate then adornment
  /// pattern ("bf" = first column bound; see plan::AdornmentPattern).
  /// An exact-pattern match replaces the per-bound-column shift model for
  /// non-delta literals.
  std::map<std::string, std::map<std::string, double>> probe_hints;
  /// When false the plan keeps the source body order exactly (the
  /// left-to-right baseline); index_cols and the driver are still computed.
  bool reorder = true;
};

/// One body literal's slot in the planned evaluation order.
struct LiteralPlan {
  /// The literal's position in the rule's source body.
  size_t body_index = 0;
  /// Stored predicate (EDB or IDB) as opposed to a builtin.
  bool is_relation = false;
  /// Argument positions ground when the planned join reaches this literal —
  /// the index key its relation is probed with (empty: full scan / builtin).
  std::vector<int> index_cols;
  /// The cost model's extent estimate when the literal was scheduled.
  uint64_t est_rows = 0;
};

/// The per-rule plan: evaluation order, index requirements, driver.
struct JoinPlan {
  /// Body literals in evaluation order.
  std::vector<LiteralPlan> order;
  /// Source body index of the first relation literal in plan order (the
  /// partitioning driver for delta/seed fan-out), or -1 for all-builtin
  /// bodies.
  int driver = -1;
  /// True when `order` deviates from the source body order.
  bool reordered = false;

  /// "order [1, 0] driver t index cols [[] [1]]" — one-line summary.
  std::string Summary() const;
};

/// Plans one rule. Deterministic; never fails (builtins that never become
/// ready are planned last, in source order).
JoinPlan PlanRule(const ast::Rule& rule, const PlanOptions& opts = {});

/// Plans for every rule of a program, index-aligned with program.rules().
struct ProgramPlan {
  std::vector<JoinPlan> rules;

  /// True when the plan structurally matches `program` (rule count and body
  /// sizes), i.e. it was built from this program.
  bool Compatible(const ast::Program& program) const;
  /// Number of rules whose planned order deviates from source order.
  size_t reordered_rules() const;
};

/// Plans every rule. `opts.delta_preds` is unioned with the program's IDB
/// predicates (their occurrences range over deltas in semi-naive fixpoints).
ProgramPlan PlanProgram(const ast::Program& program, PlanOptions opts = {});

/// The base-relation indices, as (predicate, key columns) pairs, that an
/// evaluation of `program` under `program_plan` probes: every relation
/// literal's planned `index_cols` on a non-IDB predicate, plus the
/// answer-extraction probe of `query` (its ground argument positions) when
/// the query predicate is a base relation. These are the indices to build
/// before sharing the base relations read-only. Empty when the plan does not
/// match the program.
std::vector<std::pair<std::string, std::vector<int>>> BaseIndexNeeds(
    const ast::Program& program, const ProgramPlan& program_plan,
    const ast::Atom& query);

/// Multi-line human-readable rendering: one block per rule with the source
/// rule, join order, per-literal index columns, and driver literal. When an
/// `observed` catalog is supplied, each relation literal also shows the
/// measured cardinality for its adornment next to the estimate.
std::string Explain(const ast::Program& program, const ProgramPlan& plan,
                    const StatsCatalog* observed = nullptr);

}  // namespace factlog::plan

#endif  // FACTLOG_PLAN_JOIN_PLAN_H_
