// The semi-naive fixpoint: one shard-partitioned engine, run inline or on a
// thread pool.
//
// The paper's argument-reduction theorems shrink a recursive relation from
// O(n^k) to O(n) facts; this module consumes those relations on every core.
// Rules are compiled against their plan::JoinPlan (the per-rule join order,
// index requirements, and partitioning driver chosen at compile time — see
// plan/join_plan.h), and storage is shard-native (eval::StorageOptions): on
// a pool every IDB relation is hash-partitioned on the plan's join-key
// columns of its first recursive occurrence (else column 0). Work is
// partitioned along the plan's driver literal — nothing is re-partitioned
// or copied per iteration:
//
//   1. Iteration 0 (EDB-only rules) partitions the plan's first relation
//      literal's extent by the base relation's shards, so even the seed fans
//      out across the pool instead of running on the control thread.
//   2. For a (rule, recursive-occurrence) pass of a later iteration whose
//      occurrence IS the plan's driver, the occurrence ranges over the
//      delta's shards in place, each shard indexed on the probe columns
//      (Relation::EnsureShardIndexes). When the driver is an earlier
//      literal, the pass partitions the driver's frozen extent instead (one
//      task per member relation x shard, every task probing the whole
//      indexed delta) — so the rule prefix is enumerated exactly once
//      across the pass instead of once per delta shard, the duplication
//      right-linear rules used to pay. Every other probe index is pre-built
//      on the frozen full/delta/base relations (Relation::EnsureIndex), so
//      workers only touch the const read path (RelationView::shared).
//      Under EvalOptions::shared_edb base relations are never indexed:
//      workers probe what the caller pre-built (plan::BaseIndexNeeds) or
//      scan.
//   3. Workers evaluate one slice each into a thread-local Relation buffer
//      sharded exactly like the head relation, deduplicating against the
//      frozen full/delta extents.
//   4. Merges are shard-to-shard (Relation::MergeShard) under one lock per
//      (head predicate, shard) — same-key shards never contend — then the
//      control thread syncs the next relations (Relation::SyncShards) and
//      rotates full/delta/next.
//
// Without a pool (or on a width-0 one) the same engine runs inline: one
// pass per (rule, recursive occurrence) on the calling thread, inserting
// straight into next, with IDB indices built lazily by the join, the exact
// fact budget checked per insert, and every rule instantiation reported to
// the derivation callback when one is given (derivation trees are built
// from it; eval/provenance.h). eval::Evaluate's semi-naive strategy is this
// inline run. Shards only partition pooled work, so an inline run keeps its
// IDB relations flat (one shard) whatever num_shards says; base relations
// keep their layout.
//
// Every round, rules whose literal estimates drifted from the observed
// extents are re-planned (EvalOptions::replan_threshold). Only rules that
// run a delta pass that round are checked; an idle rule keeps its plan and
// estimates until its next active round.
//
// EvaluateSeeded enters the same fixpoint mid-way (incremental maintenance,
// src/inc): each seeded predicate's stored extent joins its views as the
// third union member and both sinks' known-row checks, so round 1 is the
// occurrence decomposition of the seed deltas.
//
// Fact sets, iteration counts and head instantiation counts are identical
// with and without a pool at any thread and shard count and at any join
// order (set semantics make the fixpoint confluent; a complete body match
// is order-invariant). The tests check them against eval::Evaluate's naive
// strategy and top-down SLD, independent fixpoints. EvalOptions::join_order
// = kLeftToRight selects the pre-planner baseline (source-order joins,
// delta-shard partitioning only).

#ifndef FACTLOG_EXEC_PARALLEL_SEMINAIVE_H_
#define FACTLOG_EXEC_PARALLEL_SEMINAIVE_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "ast/program.h"
#include "common/status.h"
#include "eval/database.h"
#include "eval/rule_eval.h"
#include "eval/seminaive.h"
#include "exec/thread_pool.h"

namespace factlog::exec {

struct ParallelEvalOptions {
  /// Budgets and flags shared with eval::Evaluate. `strategy` kNaive runs
  /// eval::Evaluate's naive loop (the pool is unused).
  eval::EvalOptions eval;
  /// Shards per IDB relation of a pooled run. 0 inherits the database's
  /// storage options, so IDB and EDB partitioning stay uniform by default.
  /// Shards partition pooled work only: an inline run keeps its IDB
  /// relations flat whatever this says.
  size_t num_shards = 0;
  /// Extents (delta, or the seed pass's first-literal base relation) with
  /// fewer rows than this run as a single task even when sharded; fanning a
  /// tiny extent across the pool costs more than it buys.
  size_t min_rows_to_partition = 64;
};

/// Receives every rule instantiation of an inline run, before the engine
/// checks whether its head is new: the rule's index in the program, the head
/// row, and the body facts in source order.
using DerivationCallback =
    std::function<void(size_t rule, const std::vector<eval::ValueId>& head,
                       const std::vector<eval::FactKey>& premises)>;

/// Evaluates `program` bottom-up against `db` on `pool` (nullptr = inline,
/// which is what eval::Evaluate runs). `on_derivation` needs an inline
/// semi-naive run: with a pool of width >= 1 or under kNaive the call fails
/// with kInvalidArgument.
Result<eval::EvalResult> EvaluateParallel(
    const ast::Program& program, eval::Database* db, ThreadPool* pool,
    const ParallelEvalOptions& opts = ParallelEvalOptions(),
    const DerivationCallback& on_derivation = nullptr);

/// Where one predicate of a seeded evaluation starts: the rows it already
/// holds (read, and inline maybe indexed, never written; null = none) and
/// its round-1 delta (copied in; null = empty; disjoint from `stored`).
struct SeedExtent {
  eval::Relation* stored = nullptr;
  const eval::Relation* delta = nullptr;
};

/// Continues the semi-naive fixpoint of `program` from `seeds`: the EDB-only
/// rules do not run, other head predicates start empty, and predicates
/// neither seeded nor heads are read from `db`. The result holds, per head
/// predicate, the rows derived beyond its stored extent; seeded predicates
/// no rule defines are input, neither counted against `max_facts` nor
/// returned. `on_derivation` needs an inline run (null or width-0 `pool`),
/// else the call fails with kInvalidArgument.
Result<eval::EvalResult> EvaluateSeeded(
    const ast::Program& program, eval::Database* db, ThreadPool* pool,
    const ParallelEvalOptions& opts,
    const std::map<std::string, SeedExtent>& seeds,
    const DerivationCallback& on_derivation = nullptr);

}  // namespace factlog::exec

#endif  // FACTLOG_EXEC_PARALLEL_SEMINAIVE_H_
