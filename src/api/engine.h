// factlog::api::Engine — the unified compile-and-execute facade.
//
// The engine owns an extensional database, compiles queries through the
// pass-manager pipeline (core/pipeline.h) under a selectable strategy, caches
// the resulting CompiledQuery plans, and executes them bottom-up (semi-naive)
// to return AnswerSets:
//
//   api::Engine engine;
//   engine.AddPair("e", 1, 2);
//   engine.AddPair("e", 2, 3);
//   auto answers = engine.Query(
//       "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y). ?- t(1, Y).");
//
// Plans are cached under (strategy, query adornment, canonicalized program +
// query), so re-asking a query — or asking it with renamed variables or
// reordered rules — reuses the compiled plan. Like Johansson's multi-prime
// argument reduction, the expensive precomputation (classification and the
// NP-hard factorability containments) is paid once and amortized over every
// subsequent execution. Every compilation ends with the join-plan pass
// (plan/join_plan.h), seeded with the engine's base-relation sizes; the
// stored plan::ProgramPlan drives body order, index prewarming, and
// parallel partitioning in all execution paths.
//
// Parallelism: with EngineOptions::num_threads > 0 the engine owns a
// work-stealing exec::ThreadPool. Single queries then run the partitioned
// parallel fixpoint (exec/parallel_seminaive.h); many concurrent queries go
// through the serving queue (StartServing + SubmitQuery), which shares the
// plan cache. The plan cache and counters are mutex-guarded, so Compile may
// be called from concurrent workers; concurrent misses on one key collapse
// into a single compilation (single-flight).
//
// Incremental maintenance: Materialize compiles a (program, query) and keeps
// its full IDB as a live view (inc::MaterializedView) that AddFact/RemoveFact
// update with delta-sized work — counting for non-recursive strata, a
// derivation-edge support cascade for recursive ones — instead of re-running
// the fixpoint. Query answers from a matching view directly. Mutations and
// queries must still be externally serialized; as a safety net an
// evaluation-epoch guard detects the common misuse, failing a mutation with
// kFailedPrecondition when a query is already executing (a query that
// *starts* during a mutation is still a race — the guard is detection, not
// mutual exclusion).
//
// Serving (StartServing): the engine switches to MVCC — reads pin an
// immutable snapshot of copy-on-write shards (serve/snapshot.h) while a
// single writer thread applies updates through the views and publishes a new
// epoch per batch (serve/server.h). On this path mutations never fail the
// evaluation-epoch guard: readers and the writer genuinely run concurrently,
// and SubmitQuery/SubmitUpdate provide the async request-queue front end
// (sessions, bounded admission, backpressure by rejection). The synchronous
// AddFact/RemoveFact/Query entry points transparently route through the
// serving machinery while it is active; the stop-the-world guard remains the
// contract only for non-serving engines.

#ifndef FACTLOG_API_ENGINE_H_
#define FACTLOG_API_ENGINE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <future>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/lint.h"
#include "ast/program.h"
#include "common/status.h"
#include "core/pipeline.h"
#include "core/transform_pass.h"
#include "eval/database.h"
#include "eval/seminaive.h"
#include "exec/thread_pool.h"
#include "inc/incremental.h"
#include "plan/stats_catalog.h"
#include "serve/server.h"
#include "serve/snapshot.h"
#include "storage/storage_manager.h"

namespace factlog::api {

using core::CompiledQuery;
using core::Strategy;

struct EngineOptions {
  /// Bottom-up evaluation budgets / strategy.
  eval::EvalOptions eval;
  /// Maximum cached plans; least recently used plans are evicted. 0 caches
  /// nothing: every query recompiles.
  size_t plan_cache_capacity = 128;
  /// Worker threads for the parallel fixpoint and serving. 0 keeps the
  /// engine fully sequential (no pool is created). The pool is built lazily
  /// on first use and reused for the engine's lifetime.
  size_t num_threads = 0;
  /// Storage shards per base relation, and per derived relation of a
  /// fixpoint on the pool: rows are hash-partitioned so the parallel
  /// fixpoint consumes delta shards in place and merges under per-shard
  /// locks. Shards partition pooled work only; inline runs (num_threads 0,
  /// serving reads) and materialized views, which maintain inline on the
  /// calling thread, keep their derived relations flat. 0 and 1 both keep the
  /// flat single-shard layout. A few shards per worker thread (e.g. 2x
  /// num_threads) balances stealing granularity against per-shard overhead;
  /// answers are identical at any value.
  size_t num_shards = 1;
  /// Incremental maintenance: derivation-edge budget per view for
  /// slice-guided deletion in recursive SCCs (see
  /// inc::IncrementalOptions::max_derivation_edges). Views whose hypergraph
  /// would exceed it re-derive the affected SCC on deletion instead; 0
  /// disables edge tracking.
  uint64_t inc_max_derivation_edges = uint64_t{1} << 22;
  /// Database directory for disk-backed persistence. Filled in by
  /// Engine::Open — constructing an Engine directly leaves the engine fully
  /// in-memory regardless of this field.
  std::string db_path;
  /// Buffer-pool frames (4 KiB pages held in RAM) backing the paged row
  /// stores of a persistent engine. Datasets larger than the budget evaluate
  /// correctly through clock eviction; the budget only bounds residency.
  size_t storage_frame_budget = 1024;
};

/// Cumulative engine counters.
struct EngineStats {
  uint64_t compiles = 0;       // plans built (cache misses included)
  uint64_t cache_hits = 0;     // compiles avoided by the plan cache
  uint64_t executions = 0;     // plans evaluated (serving reads included)
  uint64_t view_hits = 0;      // queries answered from a materialized view
  uint64_t view_updates = 0;   // AddFact/RemoveFact deltas propagated to views
  uint64_t plans_recosted = 0;     // stale-plan guard firings: a cached
                                   // plan's costed extents drifted past 4x
                                   // and it was re-planned in place from
                                   // measured cardinalities (no recompile)
  uint64_t replans = 0;            // mid-fixpoint driver switches (summed
                                   // eval::EvalStats::replans)
};

/// Counters of a persistent engine (Engine::Open); zero-valued otherwise.
struct PersistenceStats {
  storage::StorageStats storage;
  uint64_t facts_replayed = 0;       // WAL records applied on the last Open
  uint64_t views_restored = 0;       // materialized views rebuilt from meta
  uint64_t plans_restored = 0;       // cached plans warm-recompiled on Open
  uint64_t plans_dropped = 0;        // persisted plans that failed to parse
                                     // or compile on Open
};

/// Per-query statistics (optional out-param of Query/Execute).
struct QueryStats {
  bool cache_hit = false;
  /// The answer came from a materialized view (no execution ran).
  bool view_hit = false;
  /// Lint warnings the mandatory lint pass reported for the source program
  /// (CompiledQuery::diagnostics; lint *errors* fail compilation instead).
  /// Filled on cache hits too — the warnings are a property of the plan.
  uint64_t lint_warnings = 0;
  /// Join-plan summary of the executed plan (filled by Execute from
  /// CompiledQuery::plans): rules carrying a plan, and how many of them the
  /// cost model ordered differently from their source body.
  uint64_t plan_rules = 0;
  uint64_t plan_reordered = 0;
  /// Microseconds spent compiling (0 on a cache hit) and executing.
  int64_t compile_us = 0;
  int64_t execute_us = 0;
  /// Semi-naive evaluation counters.
  eval::EvalStats eval;
};

/// Handle to a materialized view registered with an Engine. Views are keyed
/// by the plan-cache key of the (program, query, strategy) they materialize,
/// so a later Query with the same key answers from the view.
struct ViewHandle {
  std::string key;
};

class Engine {
 public:
  explicit Engine(EngineOptions options = {})
      : options_(std::move(options)),
        db_(eval::StorageOptions{options_.num_shards, {}}) {}

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Stops serving (draining in-flight requests) before tearing down.
  ~Engine();

  // ---- Persistence --------------------------------------------------------

  /// Opens (creating when absent) a disk-backed engine on database directory
  /// `path`: restores the last checkpoint — value store, base relations onto
  /// their checkpointed page chains, materialized views, cached plans — and
  /// replays the WAL's committed suffix through the normal mutation paths,
  /// so views stay consistent without re-evaluation. Mutations are logged to
  /// the WAL before they apply and committed once per epoch (per mutation
  /// synchronously; per installed snapshot while serving).
  static Result<std::unique_ptr<Engine>> Open(const std::string& path,
                                              EngineOptions options = {});

  /// Writes a checkpoint: pages every base relation into the table space,
  /// flushes dirty pages, persists the full catalog (values, relations,
  /// views, plans) atomically, and truncates the WAL. Requires a persistent
  /// engine, not serving, and no executing query.
  Status Checkpoint();

  /// Whether this engine came from Open (mutations are WAL-logged).
  bool persistent() const { return storage_ != nullptr; }
  PersistenceStats persistence_stats() const;

  /// The engine's extensional database. Mutating base relations does NOT
  /// invalidate cached plans (plans depend only on the program and query),
  /// but must not race with concurrently executing queries — prefer the
  /// AddFact/RemoveFact/LoadFacts entry points, which enforce that contract
  /// (kFailedPrecondition on a racing mutation) and keep materialized views
  /// maintained. Direct db() writes silently bypass both.
  eval::Database& db() { return db_; }
  const eval::Database& db() const { return db_; }

  // ---- EDB mutation -------------------------------------------------------

  /// Interns and inserts a ground fact `p(c1, ..., ck)`, propagating the
  /// delta into every live materialized view first. Fails with
  /// kFailedPrecondition while a query is executing. Duplicate facts are
  /// accepted no-ops.
  Status AddFact(const ast::Atom& fact);
  /// Removes a ground fact, propagating the deletion into every live view
  /// (support cascade, or SCC re-derivation without an edge store, for
  /// recursive predicates). Absent facts are accepted no-ops.
  Status RemoveFact(const ast::Atom& fact);
  /// Adds `rel(a, b)` for an integer pair (graph edges). Asserts (debug)
  /// that the mutation was legal; prefer AddFact where failure matters.
  void AddPair(const std::string& rel, int64_t a, int64_t b);
  /// Adds `rel(a)` for an integer.
  void AddUnit(const std::string& rel, int64_t a);
  /// Parses `text` (ground facts only, e.g. "e(1, 2). e(2, 3).") and adds
  /// every fact to the database (through AddFact, so views stay maintained).
  Status LoadFacts(const std::string& text);

  // ---- Static analysis ----------------------------------------------------

  /// Runs the static linter (analysis/lint.h) over `program` — and its query
  /// when set — under this engine's configuration: the database schema feeds
  /// the arity/reachability checks. Pure: nothing is compiled or cached. The
  /// same analysis runs as the mandatory opening pass of every compilation,
  /// where errors reject the program.
  analysis::LintReport Lint(const ast::Program& program) const;
  /// Parses `program_text` (query line optional) and lints it.
  Result<analysis::LintReport> Lint(const std::string& program_text) const;

  // ---- Compile ------------------------------------------------------------

  /// Compiles (program, query) under `strategy`, consulting the plan cache.
  /// The returned plan is shared with the cache; it is immutable. Thread-safe:
  /// concurrent misses on the same key collapse into one compilation
  /// (single-flight) — the first caller compiles, the rest block on the
  /// result and count as cache hits, so the NP-hard factorability containment
  /// checks are paid exactly once per key.
  Result<std::shared_ptr<const CompiledQuery>> Compile(
      const ast::Program& program, const ast::Atom& query,
      Strategy strategy = Strategy::kAuto, QueryStats* stats = nullptr);

  // ---- Query (compile + execute) ------------------------------------------

  /// Compiles and executes. Answers are the bindings of the query's distinct
  /// variables, named by *this* call's query — on a cache hit against a plan
  /// compiled from renamed variables, the columns are renamed back to the
  /// caller's names. When a materialized view matches the plan key, answers
  /// come from the view without executing anything.
  Result<eval::AnswerSet> Query(const ast::Program& program,
                                const ast::Atom& query,
                                Strategy strategy = Strategy::kAuto,
                                QueryStats* stats = nullptr);

  /// Parses `program_text` (which must contain a `?- query.` line), then
  /// compiles and executes it.
  Result<eval::AnswerSet> Query(const std::string& program_text,
                                Strategy strategy = Strategy::kAuto,
                                QueryStats* stats = nullptr);

  /// Executes an already-compiled plan against the engine's database on the
  /// semi-naive engine (on the pool when num_threads > 0; the naive loop when
  /// EvalOptions asks for it), under the plan's compile-time join plan.
  Result<eval::AnswerSet> Execute(const CompiledQuery& plan,
                                  QueryStats* stats = nullptr);

  // ---- Materialized views -------------------------------------------------

  /// Compiles (program, query), evaluates it once, and keeps the full IDB as
  /// a live view that AddFact/RemoveFact maintain incrementally. Later
  /// Query calls with the same plan key answer from the view. Idempotent:
  /// materializing an already-live key returns the existing handle.
  Result<ViewHandle> Materialize(const ast::Program& program,
                                 const ast::Atom& query,
                                 Strategy strategy = Strategy::kAuto,
                                 QueryStats* stats = nullptr);
  /// Parses `program_text` (must contain a `?- query.` line) and
  /// materializes it.
  Result<ViewHandle> Materialize(const std::string& program_text,
                                 Strategy strategy = Strategy::kAuto);
  /// Answers directly from a materialized view.
  Result<eval::AnswerSet> AnswerFromView(const ViewHandle& handle);
  /// Maintenance counters of a view (cumulative plus the `last_update`
  /// snapshot of the most recent propagation).
  Result<inc::ViewStats> ViewStatsFor(const ViewHandle& handle) const;
  /// Renders the derivation tree of a ground fact from the view's edge
  /// store ("why <fact>"): recursive facts expand through a recorded
  /// derivation, EDB and counting-maintained facts print as leaves.
  Result<std::string> ExplainFromView(const ViewHandle& handle,
                                      const ast::Atom& fact);
  /// The live view for `handle` (nullptr when dropped). Read-only
  /// introspection; answering queries should go through Query/AnswerFromView
  /// so the evaluation-epoch guard applies.
  const inc::MaterializedView* view(const ViewHandle& handle) const;
  /// Drops a view (its plan stays cached). Unknown handles are no-ops.
  void DropView(const ViewHandle& handle);
  size_t num_views() const;

  // ---- Async serving ------------------------------------------------------

  /// Switches the engine into serving mode: installs the first MVCC snapshot
  /// epoch and starts the request-queue front end on the engine's pool.
  /// Requires num_threads > 0. Idempotent while already serving. While
  /// serving:
  ///   * SubmitQuery executes against a pinned snapshot on a pool worker —
  ///     concurrent with updates, never failed by the epoch guard;
  ///   * SubmitUpdate is serialized through the single writer thread, which
  ///     applies it via incremental view maintenance and publishes a new
  ///     epoch per drained batch;
  ///   * the synchronous entry points reroute: Query evaluates inline against
  ///     the current snapshot, AddFact/RemoveFact submit-and-wait through the
  ///     writer; Materialize fails with kFailedPrecondition (materialize
  ///     views before serving).
  Status StartServing(const serve::ServeOptions& serve_options = {});
  /// Drains in-flight requests, stops the writer, and returns the engine to
  /// stop-the-world mode. Idempotent.
  Status StopServing();
  bool serving() const {
    return serving_active_.load(std::memory_order_acquire);
  }

  /// Sessions scope per-client in-flight budgets. Requires serving.
  /// OpenSession returns 0 when the engine is not serving.
  uint64_t OpenSession();
  Status CloseSession(uint64_t session);

  /// Async query against the current snapshot epoch; see serve::Server for
  /// the callback/backpressure contract.
  Status SubmitQuery(uint64_t session, ast::Program program, ast::Atom query,
                     Strategy strategy, serve::QueryCallback done);
  std::future<serve::QueryResponse> SubmitQuery(
      uint64_t session, ast::Program program, ast::Atom query,
      Strategy strategy = Strategy::kAuto);
  /// Async update (insert = true adds `fact`, false removes it), applied in
  /// submission order by the writer. The response's epoch is the first epoch
  /// containing the update.
  Status SubmitUpdate(uint64_t session, bool insert, ast::Atom fact,
                      serve::UpdateCallback done);
  std::future<serve::UpdateResponse> SubmitUpdate(uint64_t session,
                                                  bool insert,
                                                  ast::Atom fact);

  /// Serving counters (zero-valued when not serving).
  serve::ServerStats serving_stats() const;
  /// The currently installed snapshot epoch (0 when not serving).
  uint64_t serving_epoch() const;

  // ---- Introspection ------------------------------------------------------

  /// Number of queries currently executing (evaluation-epoch guard).
  /// Mutations fail with kFailedPrecondition while this is nonzero.
  int64_t running_queries() const {
    return active_queries_.load(std::memory_order_acquire);
  }

  const EngineOptions& options() const { return options_; }
  /// Snapshot of the cumulative counters (thread-safe).
  EngineStats stats() const;
  size_t plan_cache_size() const;
  void ClearPlanCache();

  /// The runtime statistics catalog: per-(predicate, adornment) cardinalities
  /// observed by every execution path, decayed across runs. Seeds the cost
  /// model of each compilation and of in-place plan re-costs; persisted in
  /// checkpoints. Thread-safe (own internal lock).
  const plan::StatsCatalog& stats_catalog() const { return stats_catalog_; }

  /// The cache key for (program, query, strategy): the requested strategy,
  /// the query's adornment pattern, and the canonicalized program + query.
  /// Exposed for tests.
  static std::string PlanCacheKey(const ast::Program& program,
                                  const ast::Atom& query, Strategy strategy);

 private:
  struct CacheEntry {
    std::shared_ptr<const CompiledQuery> plan;
    std::list<std::string>::iterator lru_pos;
  };

  /// One in-flight compilation (single-flight): the first cache miss on a
  /// key owns it, later misses block on `cv` and share the outcome.
  struct InFlightCompile {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;  // guarded by mu
    Status status;
    std::shared_ptr<const CompiledQuery> plan;
  };

  /// RAII evaluation-epoch guard: while alive, mutations fail with
  /// kFailedPrecondition instead of racing the evaluation.
  class QueryScope {
   public:
    explicit QueryScope(const Engine* engine) : engine_(engine) {
      engine_->active_queries_.fetch_add(1, std::memory_order_acq_rel);
    }
    ~QueryScope() {
      engine_->active_queries_.fetch_sub(1, std::memory_order_acq_rel);
    }
    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

   private:
    const Engine* engine_;
  };

  /// Per-engine serving state: the snapshot publication side of the server.
  struct ServingState {
    serve::SnapshotBuilder builder;
    serve::SnapshotManager snapshots;
    serve::IndexVocabulary vocab;
  };

  /// The engine's thread pool, created on first use (nullptr when
  /// num_threads == 0).
  exec::ThreadPool* EnsurePool();
  /// The default pipeline options with the join planner's extent hints
  /// seeded from the current base-relation sizes (compile-time planning sees
  /// the data the paper's compile-time factoring sees: the EDB at hand).
  /// With `hint_db` the hints come from that database instead — serving
  /// compiles pass the pinned snapshot, so planning neither reads the live
  /// relations map mid-mutation nor takes the epoch guard.
  core::PipelineOptions PipelineOptionsForCompile(
      const eval::Database* hint_db = nullptr) const;
  /// Cache-enabled compilation against a precomputed plan key (so callers
  /// that already derived the key for a view lookup don't canonicalize the
  /// program a second time). `hint_db` as in PipelineOptionsForCompile.
  Result<std::shared_ptr<const CompiledQuery>> CompileWithKey(
      const ast::Program& program, const ast::Atom& query, Strategy strategy,
      QueryStats* stats, const std::string& key,
      const eval::Database* hint_db = nullptr);
  /// AddFact/RemoveFact bodies without the epoch guard: the serving writer
  /// thread is the only mutator, so the guard is unnecessary there.
  Status AddFactImpl(const ast::Atom& fact);
  Status RemoveFactImpl(const ast::Atom& fact);
  /// Propagates the insertion (`insert`) or deletion of `row` into base
  /// relation `pred` through every view, as a one-row delta laid out like
  /// `rel`. A failing view poisons itself and the others still propagate;
  /// the first error is returned. Drained view observations feed the
  /// statistics catalog. The caller orders it against the database write:
  /// insertions propagate before it, deletions after.
  Status PropagateToViews(const std::string& pred, const eval::Relation& rel,
                          const std::vector<eval::ValueId>& row, bool insert);
  /// Writer-side install: builds the adaptive indices readers registered,
  /// snapshots the database and every view's answer relation, and publishes
  /// the epoch. Returns the new epoch.
  uint64_t InstallServingSnapshot();
  /// Reader-side execution against the pinned snapshot (the serve::Server
  /// read hook, also the inline Query path while serving): answers from the
  /// epoch's frozen view copy, or compiles and evaluates sequentially with
  /// the snapshot's base relations shared read-only, feeding the statistics
  /// catalog and counting the execution.
  void ServingRead(const ast::Program& program, const ast::Atom& query,
                   Strategy strategy, serve::QueryResponse* resp);
  /// kFailedPrecondition when a query is executing (mutations must not race).
  Status CheckMutable(const char* op) const;
  /// Open()'s body: attaches the table space, restores the checkpoint, and
  /// replays the WAL (under replaying_, so replay is not re-logged).
  Status InitStorage();
  Status RestoreFromCheckpoint();
  Status ReplayWal();
  /// Commits the open WAL epoch (one fsync); no-op when nothing was logged,
  /// when the engine is in-memory, or during replay.
  Status CommitStorage();
  /// Folds one evaluation's measured cardinalities (per-literal probe
  /// selectivities, per-iteration delta means, fixpoint IDB extents) into
  /// the statistics catalog and accumulates the replan counter.
  void RecordEvalObservations(const eval::EvalStats& es);
  /// Re-plans a drifted cache entry's join orders in place against current
  /// extents and the statistics catalog — the transform pipeline's output is
  /// kept, zero recompiles. Refreshes planner_hints (re-arming the drift
  /// guard) and recomputes the L104 cartesian-join verdict against the
  /// re-costed plan. Caller holds mu_.
  void RecostCacheEntry(CacheEntry* entry, const eval::Database& cost_db);
  /// The view matching `key`, or nullptr.
  inc::MaterializedView* FindView(const std::string& key);
  inc::IncrementalOptions MakeIncOptions() const;
  /// Renames answer columns to the caller's query variables (the cached
  /// plan's query may use different names).
  static void RenameAnswerVars(const ast::Atom& query,
                               eval::AnswerSet* answers);

  EngineOptions options_;
  /// Persistence coordinator (null for in-memory engines). Declared before
  /// db_ so relations can release their paged stores while the manager's
  /// shared TableSpace is still reachable through them.
  std::unique_ptr<storage::StorageManager> storage_;
  /// True while Open replays the WAL: mutations then skip re-logging and
  /// per-mutation commits.
  bool replaying_ = false;
  /// Last epoch handed to CommitEpoch (monotone; seeded from the checkpoint).
  uint64_t storage_epoch_ = 0;
  /// Open-time restore counters (written single-threaded during Open).
  uint64_t facts_replayed_ = 0;
  uint64_t views_restored_ = 0;
  uint64_t plans_restored_ = 0;
  uint64_t plans_dropped_ = 0;
  eval::Database db_;

  /// Runtime statistics catalog (internally locked; safe to touch while
  /// holding mu_ or view_mu_ — it never takes either).
  plan::StatsCatalog stats_catalog_;

  /// Guards stats_, lru_, cache_, inflight_, and pool_ creation.
  mutable std::mutex mu_;
  EngineStats stats_;
  /// Most recently used key at the front.
  std::list<std::string> lru_;
  std::map<std::string, CacheEntry> cache_;
  std::map<std::string, std::shared_ptr<InFlightCompile>> inflight_;
  /// Materialized views by plan-cache key, guarded — map structure and view
  /// contents alike — by view_mu_. The unique_ptrs are stable, so a view
  /// located under the lock stays valid after it drops (views are only
  /// erased by DropView, which requires the usual external serialization
  /// against in-flight queries).
  std::map<std::string, std::unique_ptr<inc::MaterializedView>> views_;
  /// The plans of Counting views, by view key, also guarded by view_mu_:
  /// each propagation re-derives a view's iteration bound from its plan and
  /// the current base relations. A restored view gets its plan back when
  /// the checkpoint's plan cache held it.
  std::map<std::string, std::shared_ptr<const CompiledQuery>> counting_plans_;
  /// Guards views_ and serializes view access: map registration/lookup,
  /// delta propagation, and answering (Answer may build indices lazily).
  /// Never nested with mu_ — every section takes exactly one of the two.
  mutable std::mutex view_mu_;
  std::unique_ptr<exec::ThreadPool> pool_;
  mutable std::atomic<int64_t> active_queries_{0};
  /// Serving members are declared after pool_ so the server (whose in-flight
  /// tasks run on the pool) is destroyed first. serving_active_ gates the
  /// synchronous entry points' rerouting.
  std::atomic<bool> serving_active_{false};
  std::unique_ptr<ServingState> serving_;
  std::unique_ptr<serve::Server> server_;
  /// The server session the synchronous AddFact/RemoveFact reroute uses.
  uint64_t engine_session_ = 0;
};

}  // namespace factlog::api

#endif  // FACTLOG_API_ENGINE_H_
