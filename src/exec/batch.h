// Concurrent batch execution against an immutable database snapshot.
//
// Serving-side counterpart of the parallel fixpoint: many queries evaluated
// at once over one frozen EDB, sharing compiled plans. The flow is the
// precomputation-then-cheap-per-call split the plan cache already implements,
// extended across threads:
//
//   1. Compile phase (on the pool): every query is compiled through the
//      caller-supplied compile callback — in practice api::Engine::Compile,
//      whose plan cache is mutex-guarded, so concurrent workers share plans.
//   2. Prewarm phase (control thread): PrewarmIndexes builds every hash
//      index the compiled programs will probe on the base relations.
//   3. Execute phase (on the pool): each query runs the semi-naive engine
//      inline (eval::Evaluate) with EvalOptions::shared_edb set — private IDB
//      state per query, strictly read-only base relations, and a ValueStore
//      whose interning is thread-safe.
//
// Per-query ExecStats and a wall-clock BatchSummary come back index-aligned
// with the requests.

#ifndef FACTLOG_EXEC_BATCH_H_
#define FACTLOG_EXEC_BATCH_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "ast/program.h"
#include "common/status.h"
#include "core/transform_pass.h"
#include "eval/database.h"
#include "eval/seminaive.h"
#include "exec/thread_pool.h"

namespace factlog::exec {

/// Per-query outcome of a batch execution.
struct ExecStats {
  Status status = Status::OK();
  bool cache_hit = false;
  /// Microseconds compiling (0 on a cache hit) and executing this query.
  int64_t compile_us = 0;
  int64_t execute_us = 0;
  /// Fixpoint counters of the query's evaluation.
  uint64_t iterations = 0;
  uint64_t total_facts = 0;
  size_t num_answers = 0;
  /// Derived facts per storage shard (one entry for flat storage); shows how
  /// evenly the hash partitioning spread this query's IDB rows.
  std::vector<uint64_t> shard_facts;
};

/// Wall-clock summary of one ExecuteBatch call.
struct BatchSummary {
  int64_t wall_us = 0;         // whole batch, end to end
  int64_t sum_execute_us = 0;  // total per-query execute time (cpu-ish)
  size_t queries = 0;
  size_t succeeded = 0;
  size_t failed = 0;
  size_t threads = 0;  // pool width the batch ran on
};

/// Result of a batch: answers and stats are index-aligned with the requests
/// (a failed query has an empty AnswerSet and its status in stats).
struct BatchResult {
  std::vector<eval::AnswerSet> answers;
  std::vector<ExecStats> stats;
  BatchSummary summary;
};

/// Pre-builds exactly the hash indices the compiled query's join plan
/// declares on the database's base relations, plus the index answer
/// extraction probes for the plan's query — no more (a plan-ordered join
/// never touches indices a left-to-right walk would have predicted), no
/// less. Call before sharing `db` read-only across threads; workers then
/// stay on the const lookup path.
Status PrewarmIndexes(const core::CompiledQuery& plan, eval::Database* db);

/// Convenience overload for callers without a CompiledQuery: plans `program`
/// on the spot (the same plan evaluation will compute for this database) and
/// prewarms from it. `query` may be null.
Status PrewarmIndexes(const ast::Program& program, const ast::Atom* query,
                      eval::Database* db);

/// Compiles query `index`, filling cache_hit/compile_us of the stats. Must
/// be thread-safe (api::Engine::Compile is).
using BatchCompileFn =
    std::function<Result<std::shared_ptr<const core::CompiledQuery>>(
        size_t index, ExecStats* stats)>;

/// Runs `num_queries` queries concurrently on `pool` (nullptr = inline)
/// against `db`, whose base relations must not be mutated for the duration.
/// Evaluation is bottom-up semi-naive under `eval_options` (shared_edb is
/// forced on). Individual query failures land in the per-query stats; the
/// batch itself only fails on infrastructure errors.
Result<BatchResult> RunBatch(ThreadPool* pool, eval::Database* db,
                             size_t num_queries, const BatchCompileFn& compile,
                             const eval::EvalOptions& eval_options);

}  // namespace factlog::exec

#endif  // FACTLOG_EXEC_BATCH_H_
