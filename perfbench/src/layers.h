// Per-layer accounting for the traced pass.
//
// A traced read calls the public function of each layer in the engine's own
// order, from the benchmark, with a span around each call:
//
//   request                     root span of one decomposed read
//     ast.parse                 ast::ParseProgram
//     api.compile               api::Engine::Compile (plan cache lookup; on
//                               a miss the pass trace splits the compile
//                               into analysis / core / transform / plan)
//     eval.fixpoint             eval::Evaluate (every workload's engine
//                               evaluates reads sequentially)
//     eval.extract              eval::ExtractAnswers
//   exec.fixpoint               exec::EvaluateParallel on the same plan and a
//                               bench-owned pool, for the parallel speedup
//                               (when the workload measures it)
//   api.query                   api::Engine::Query on the same text, for the
//                               facade's own overhead and the answer check
//
// Workloads that serve or update add their own spans and counters (serve.*,
// inc.*, storage.*) to the same totals. EmitLayerMetrics turns the totals
// into the per-layer metrics; a layer a workload never enters reports 0.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <map>
#include <string>

#include "api/engine.h"
#include "exec/thread_pool.h"
#include "harness.h"

namespace perfbench {

struct LayerTotals {
  // Reads: decomposed by TracedRead, and served through the request queue.
  uint64_t decomposed_reads = 0;
  uint64_t served_reads = 0;
  uint64_t view_hits = 0;
  uint64_t cache_lookups = 0;  // reads that looked up the plan cache
  uint64_t cache_hits = 0;
  // Compilation, summed over decomposed reads (cache hits add 0).
  double compile_us = 0;       // QueryStats::compile_us
  std::map<std::string, double> pass_us;
  uint64_t lint_warnings = 0;
  uint64_t factored_reads = 0;  // reads whose plan applied factoring
  uint64_t rules_out = 0;       // rules of the executed program
  // Evaluation, summed over decomposed reads.
  uint64_t iterations = 0;
  uint64_t derived_facts = 0;
  uint64_t instantiations = 0;
  uint64_t rows_matched = 0;
  uint64_t answers = 0;
  uint64_t replans = 0;
  double extract_us = 0;  // answer extraction not covered by a span
  double shard_skew = 0;  // summed max/mean shard_facts of parallel runs
  uint64_t parallel_reads = 0;
  uint64_t exec_tasks = 0;   // ThreadPool::Stats deltas of parallel runs
  uint64_t exec_steals = 0;
  // The facade: Engine::Query wall minus compile and execute time.
  double api_overhead_us = 0;
  uint64_t api_queries = 0;
  uint64_t plans_recosted = 0;
  // Serving (QueryResponse / ServerStats).
  double serve_queue_us = 0;
  double serve_execute_us = 0;
  uint64_t served_updates = 0;
  uint64_t epochs = 0;
  uint64_t serve_rejected = 0;
  uint64_t serve_submitted = 0;
  // Incremental maintenance (UpdateResponse::apply_us, ViewStats).
  Samples insert_apply_us;
  Samples delete_apply_us;
  uint64_t delta_passes = 0;
  uint64_t cone_input = 0;
  uint64_t overdeleted = 0;
  uint64_t rederived = 0;
  uint64_t edge_store_edges = 0;
  // Storage (PersistenceStats), over the traced updates.
  uint64_t wal_bytes = 0;
  uint64_t wal_records = 0;
  double pool_hit_rate = 0;
  double checkpoint_s = 0;
  double reopen_s = 0;
  // Tracing overhead: read time of the untraced engine path, and of the
  // traced read (the decomposed request, or the served read when serving).
  Samples untraced_read_us;
  Samples traced_read_us;
};

struct ReadContext {
  factlog::api::Engine* engine = nullptr;
  /// When set, each read also runs exec::EvaluateParallel on the same plan
  /// on this bench-owned pool, into `num_shards` shards (the exec.*
  /// metrics).
  factlog::exec::ThreadPool* pool = nullptr;
  size_t num_shards = 1;
  /// Evaluate against read-only shared relations (the engine is serving).
  bool shared_edb = false;
  /// Also run Engine::Query on the text (api.overhead_us); not while
  /// serving, where the served read stands in for it.
  bool engine_query = true;
};

/// One decomposed, traced read of `text` (a program with a `?-` query).
/// Returns the answer count, or -1 after recording a failure in `report`.
int64_t TracedRead(const std::string& text, const ReadContext& ctx,
                   Tracer* tracer, LayerTotals* totals, Report* report);

/// Compile-side time (ast + analysis + core + transform + plan) over the
/// request time of the decomposed reads.
double CompileFraction(const Tracer& tracer, const LayerTotals& totals);
/// Plan-cache hits over plan-cache lookups.
double CacheHitFraction(const LayerTotals& totals);

/// Emits every per-layer metric from the spans and totals.
void EmitLayerMetrics(const Tracer& tracer, const LayerTotals& totals,
                      Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
