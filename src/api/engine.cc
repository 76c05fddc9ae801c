#include "api/engine.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "ast/parser.h"
#include "ast/special_predicates.h"
#include "common/dcheck.h"
#include "core/canonical.h"
#include "exec/parallel_seminaive.h"
#include "plan/join_plan.h"
#include "storage/log_records.h"
#include "storage/paged_store.h"

namespace factlog::api {

namespace {

int64_t MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Stale-plan threshold: a cached plan whose costed extents drifted beyond
/// this factor (either direction) is re-costed in place rather than trusted.
/// eval::ExtentDrifted's +1 smooth keeps empty relations comparable (0 vs 3
/// rows is not 4x drift worth acting on; 0 vs 1000 is).
constexpr double kStaleDriftFactor = 4.0;

bool ExtentsDrifted(const std::map<std::string, uint64_t>& hints,
                    const eval::Database& db) {
  for (const auto& [pred, hinted] : hints) {
    const eval::Relation* rel = db.Find(pred);
    // Hints for predicates the database doesn't hold are measured IDB
    // extents from the statistics catalog — there is no live size to
    // compare them against, so they can't drift.
    if (rel != nullptr &&
        eval::ExtentDrifted(hinted, rel->size(), kStaleDriftFactor)) {
      return true;
    }
  }
  return false;
}

/// What compilation knows of the base relations: each one's arity for the
/// linter (the L003 arity check; L106 treats it as defined) and, when
/// `planner` is set, its row count as a join-planner extent hint.
void SeedFromSchema(const eval::Database& db, analysis::LintOptions* lint,
                    plan::PlanOptions* planner) {
  for (const auto& [name, rel] : db.relations()) {
    lint->edb_arities.emplace(name, rel->arity());
    if (planner != nullptr) planner->extent_hints[name] = rel->size();
  }
}

/// Counting (§6.4) keeps the goal depth in an index field, so on cyclic
/// data its fixpoint never ends: every round derives a deeper index. On
/// acyclic data the depth stays below the number of distinct goal tuples,
/// at most D^k for the D distinct constants of the base relations the
/// program reads (plus the query's own) and the k bound query arguments.
/// The answer phase descends the same indices once more, and the other
/// rules add a round each at most. Returns that iteration bound, capped at
/// `cap`; `cap` itself for other strategies and for programs that compute
/// values (builtins, function terms), which no constant count bounds.
/// `incoming` counts the values of a row about to join the base relations.
uint64_t CountingIterationBound(const core::CompiledQuery& plan,
                                const eval::Database& db, uint64_t cap,
                                uint64_t incoming = 0) {
  if (plan.strategy != core::Strategy::kCounting) return cap;
  auto computes = [](const ast::Atom& atom) {
    if (ast::IsBuiltinPredicate(atom.predicate()) ||
        ast::IsStructuralPredicate(atom.predicate())) {
      return true;
    }
    for (const ast::Term& t : atom.args()) {
      if (t.IsCompound()) return true;
    }
    return false;
  };
  if (computes(plan.source_query)) return cap;
  for (const ast::Rule& rule : plan.source.rules()) {
    if (computes(rule.head())) return cap;
    for (const ast::Atom& lit : rule.body()) {
      if (computes(lit)) return cap;
    }
  }
  std::unordered_set<eval::ValueId> constants;
  for (const auto& [pred, arity] : plan.program.EdbPredicates()) {
    const eval::Relation* rel = db.Find(pred);
    if (rel == nullptr) continue;
    for (size_t r = 0; r < rel->size(); ++r) {
      const eval::ValueId* row = rel->row(r);
      constants.insert(row, row + rel->arity());
    }
  }
  uint64_t bound_args = 0;
  for (const ast::Term& t : plan.source_query.args()) {
    if (t.IsConstant()) ++bound_args;
  }
  const uint64_t d =
      std::max<uint64_t>(1, constants.size() + incoming + bound_args);
  const uint64_t slack = 4 + plan.program.rules().size();
  uint64_t goals = 1;  // saturates at cap
  for (uint64_t i = 0; i < bound_args && goals < cap; ++i) {
    goals = goals > cap / d ? cap : goals * d;
  }
  if (goals >= (cap - std::min(cap, slack)) / 2) return cap;
  return 2 * goals + slack;
}

/// Names §6.4 on a budget failure of a Counting plan: Counting diverges on
/// cyclic data, which is what an exhausted budget almost always means.
Status NoteCountingDivergence(const core::CompiledQuery& plan,
                              uint64_t iteration_bound, Status st) {
  if (plan.strategy != core::Strategy::kCounting ||
      st.code() != StatusCode::kResourceExhausted) {
    return st;
  }
  return Status::ResourceExhausted(
      "Counting diverges on cyclic data (§6.4); on acyclic data this query "
      "would finish within " +
      std::to_string(iteration_bound) + " iterations (" + st.message() +
      ")");
}

}  // namespace

// ---- EDB mutation -----------------------------------------------------------

Status Engine::CheckMutable(const char* op) const {
  if (active_queries_.load(std::memory_order_acquire) != 0) {
    return Status::FailedPrecondition(
        std::string(op) +
        " while a query is executing; engine mutations must be serialized "
        "against evaluations");
  }
  return Status::OK();
}

Status Engine::AddFact(const ast::Atom& fact) {
  if (serving_active_.load(std::memory_order_acquire)) {
    // Route through the writer thread: the update is serialized with every
    // other serving update and published as a snapshot epoch. Never fails
    // the evaluation-epoch guard — serving readers don't hold it.
    return SubmitUpdate(engine_session_, /*insert=*/true, fact).get().status;
  }
  FACTLOG_RETURN_IF_ERROR(CheckMutable("AddFact"));
  FACTLOG_RETURN_IF_ERROR(AddFactImpl(fact));
  return CommitStorage();
}

Status Engine::AddFactImpl(const ast::Atom& fact) {
  FACTLOG_ASSIGN_OR_RETURN(std::vector<eval::ValueId> row,
                           db_.InternRow(fact));
  eval::Relation& rel = db_.GetOrCreate(fact.predicate(), fact.arity());
  if (rel.arity() != fact.arity()) {
    return Status::Invalid("arity mismatch for '" + fact.predicate() +
                           "': relation has arity " +
                           std::to_string(rel.arity()));
  }
  if (rel.Contains(row.data())) return Status::OK();  // duplicate: no-op
  // Log-before-apply, and only after the duplicate check: the WAL carries
  // exactly the mutations that change state, so replay is idempotent and
  // bounded by live traffic.
  if (storage_ != nullptr && !replaying_) {
    FACTLOG_RETURN_IF_ERROR(storage_->LogFact(/*insert=*/true, fact));
  }
  // Views propagate against the pre-insertion EDB (new state = stored ∪
  // delta), so the database row is inserted only after they are done. The
  // row is inserted even when a view failed, so every non-poisoned view
  // stays consistent with the database.
  Status result = PropagateToViews(fact.predicate(), rel, row, /*insert=*/true);
  rel.Insert(row);
  return result;
}

Status Engine::RemoveFact(const ast::Atom& fact) {
  if (serving_active_.load(std::memory_order_acquire)) {
    return SubmitUpdate(engine_session_, /*insert=*/false, fact).get().status;
  }
  FACTLOG_RETURN_IF_ERROR(CheckMutable("RemoveFact"));
  FACTLOG_RETURN_IF_ERROR(RemoveFactImpl(fact));
  return CommitStorage();
}

Status Engine::RemoveFactImpl(const ast::Atom& fact) {
  // The interned row is needed for the view delta; presence and the erase
  // itself are Database::RemoveFact's job. Deletions erase from the database
  // first: the views' old state is then stored ∪ delta, matching
  // ApplyDelete's contract.
  FACTLOG_ASSIGN_OR_RETURN(std::vector<eval::ValueId> row,
                           db_.InternRow(fact));
  // Log-before-apply needs the presence check pulled ahead of the erase;
  // absent facts are no-ops and never reach the WAL.
  if (storage_ != nullptr && !replaying_) {
    const eval::Relation* pre = db_.Find(fact.predicate());
    if (pre == nullptr || pre->arity() != fact.arity() ||
        !pre->Contains(row.data())) {
      return Status::OK();
    }
    FACTLOG_RETURN_IF_ERROR(storage_->LogFact(/*insert=*/false, fact));
  }
  FACTLOG_ASSIGN_OR_RETURN(bool removed, db_.RemoveFact(fact));
  if (!removed) return Status::OK();  // absent: no-op
  return PropagateToViews(fact.predicate(), *db_.Find(fact.predicate()), row,
                          /*insert=*/false);
}

Status Engine::PropagateToViews(const std::string& pred,
                                const eval::Relation& rel,
                                const std::vector<eval::ValueId>& row,
                                bool insert) {
  Status result = Status::OK();
  std::vector<plan::ProbeObservation> view_obs;
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    if (views_.empty()) return result;
    eval::Relation delta(rel.arity(), rel.storage_options());
    delta.Insert(row);
    for (auto& [key, view] : views_) {
      // A Counting view's maintenance fixpoints are bounded like its build,
      // over the base relations as they stand once this delta applies.
      auto counting = counting_plans_.find(key);
      uint64_t bound = 0;
      if (counting != counting_plans_.end()) {
        bound = CountingIterationBound(*counting->second, db_,
                                       options_.eval.max_iterations,
                                       insert ? row.size() : 0);
        view->set_max_iterations(bound);
      }
      Status st = insert ? view->ApplyInsert(pred, delta)
                         : view->ApplyDelete(pred, delta);
      if (counting != counting_plans_.end()) {
        st = NoteCountingDivergence(*counting->second, bound, st);
      }
      if (!st.ok() && result.ok()) result = st;
      std::vector<plan::ProbeObservation> obs = view->DrainObservations();
      view_obs.insert(view_obs.end(), obs.begin(), obs.end());
    }
  }
  stats_catalog_.ObserveBatch(view_obs);
  std::lock_guard<std::mutex> lock(mu_);
  ++stats_.view_updates;
  return result;
}

void Engine::AddPair(const std::string& rel, int64_t a, int64_t b) {
  Status st =
      AddFact(ast::Atom(rel, {ast::Term::Int(a), ast::Term::Int(b)}));
  FACTLOG_DCHECK(st.ok() && "AddPair must not race queries");
  (void)st;
}

void Engine::AddUnit(const std::string& rel, int64_t a) {
  Status st = AddFact(ast::Atom(rel, {ast::Term::Int(a)}));
  FACTLOG_DCHECK(st.ok() && "AddUnit must not race queries");
  (void)st;
}

Status Engine::LoadFacts(const std::string& text) {
  FACTLOG_ASSIGN_OR_RETURN(ast::Program facts, ast::ParseProgram(text));
  if (serving_active_.load(std::memory_order_acquire)) {
    for (const ast::Rule& rule : facts.rules()) {
      if (!rule.IsFact()) {
        return Status::Invalid("LoadFacts input contains a non-fact rule: " +
                               rule.ToString());
      }
      FACTLOG_RETURN_IF_ERROR(AddFact(rule.head()));
    }
    return Status::OK();
  }
  FACTLOG_RETURN_IF_ERROR(CheckMutable("LoadFacts"));
  for (const ast::Rule& rule : facts.rules()) {
    if (!rule.IsFact()) {
      return Status::Invalid("LoadFacts input contains a non-fact rule: " +
                             rule.ToString());
    }
    FACTLOG_RETURN_IF_ERROR(AddFactImpl(rule.head()));
  }
  // One WAL epoch for the whole batch: a single fsync makes the load atomic
  // and keeps bulk ingest off the per-fact commit path.
  return CommitStorage();
}

// ---- Compilation ------------------------------------------------------------

std::string Engine::PlanCacheKey(const ast::Program& program,
                                 const ast::Atom& query, Strategy strategy) {
  // Canonicalization makes the key invariant under rule reordering, body
  // reordering, and variable renaming; the query's constants (and hence its
  // adornment) stay, so differently-bound queries get distinct plans.
  ast::Program keyed = program;
  keyed.set_query(query);
  std::string key = StrategyToString(strategy);
  key += '|';
  key += analysis::Adornment::ForQuery(query).pattern();
  key += '|';
  key += core::CanonicalString(keyed);
  return key;
}

core::PipelineOptions Engine::PipelineOptionsForCompile(
    const eval::Database* hint_db) const {
  core::PipelineOptions opts;
  if (hint_db != nullptr) {
    // A serving compile seeds the planner from the pinned snapshot:
    // immutable, so no guard is needed and no mutation can race the
    // iteration.
    SeedFromSchema(*hint_db, &opts.lint, &opts.planner);
  } else {
    // Seed the join planner with the actual base-relation sizes. Reading the
    // database makes this snapshot subject to the same contract as
    // evaluation (mutations must not race it), so it runs under the
    // evaluation-epoch guard: a concurrent AddFact/RemoveFact fails with
    // kFailedPrecondition instead of mutating the relations map
    // mid-iteration. Same best-effort detection level as Execute — see the
    // header's epoch-guard caveat.
    QueryScope scope(this);
    SeedFromSchema(db_, &opts.lint, &opts.planner);
  }
  // Measured feedback: observed delta means and probe selectivities (plus
  // extents for predicates the live database doesn't know — derived IDB).
  stats_catalog_.SeedPlanOptions(&opts.planner);
  return opts;
}

analysis::LintReport Engine::Lint(const ast::Program& program) const {
  // Same read contract as compilation: mutations must not race.
  analysis::LintOptions opts;
  SeedFromSchema(db_, &opts, /*planner=*/nullptr);
  return analysis::LintProgram(program, opts);
}

Result<analysis::LintReport> Engine::Lint(
    const std::string& program_text) const {
  FACTLOG_ASSIGN_OR_RETURN(ast::Program program,
                           ast::ParseProgram(program_text));
  return Lint(program);
}

Result<std::shared_ptr<const CompiledQuery>> Engine::Compile(
    const ast::Program& program, const ast::Atom& query, Strategy strategy,
    QueryStats* stats) {
  return CompileWithKey(program, query, strategy, stats,
                        PlanCacheKey(program, query, strategy));
}

Result<std::shared_ptr<const CompiledQuery>> Engine::CompileWithKey(
    const ast::Program& program, const ast::Atom& query, Strategy strategy,
    QueryStats* stats, const std::string& key,
    const eval::Database* hint_db) {
  const auto start = std::chrono::steady_clock::now();
  std::shared_ptr<InFlightCompile> flight;
  bool owner = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      // Stale-plan guard: the plan was costed against the extents recorded
      // in planner_hints. If the database has since drifted past the
      // threshold, the cached body orders may be badly wrong — but the
      // transform pipeline's output (the expensive part: classification,
      // the NP-hard containments, magic/factoring) is still valid. Re-plan
      // the join orders in place against current sizes and the statistics
      // catalog instead of recompiling.
      const eval::Database* cost_db = hint_db != nullptr ? hint_db : &db_;
      if (!it->second.plan->planner_hints.empty() &&
          ExtentsDrifted(it->second.plan->planner_hints, *cost_db)) {
        RecostCacheEntry(&it->second, *cost_db);
        ++stats_.plans_recosted;
      }
      ++stats_.cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      if (stats != nullptr) {
        stats->cache_hit = true;
        stats->lint_warnings = it->second.plan->diagnostics.size();
      }
      return it->second.plan;
    }
    auto [fit, inserted] = inflight_.try_emplace(key);
    if (inserted) {
      fit->second = std::make_shared<InFlightCompile>();
      owner = true;
    }
    flight = fit->second;
  }

  if (!owner) {
    // Another caller is compiling this key; wait for its outcome instead of
    // repeating the (NP-hard) containment checks. Counts as a cache hit.
    std::unique_lock<std::mutex> fl(flight->mu);
    flight->cv.wait(fl, [&] { return flight->done; });
    if (!flight->status.ok()) return flight->status;
    if (stats != nullptr) {
      stats->cache_hit = true;
      stats->lint_warnings = flight->plan->diagnostics.size();
    }
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.cache_hits;
    return flight->plan;
  }

  // Single-flight owner: compile outside every lock — the pipeline is pure
  // and may be slow.
  auto compiled = core::CompileQuery(program, query, strategy,
                                     PipelineOptionsForCompile(hint_db));
  std::shared_ptr<const CompiledQuery> plan;
  if (compiled.ok()) {
    plan = std::make_shared<const CompiledQuery>(std::move(compiled).value());
    if (stats != nullptr) {
      stats->compile_us = MicrosSince(start);
      stats->lint_warnings = plan->diagnostics.size();
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (compiled.ok()) {
      ++stats_.compiles;
      if (options_.plan_cache_capacity > 0) {
        while (cache_.size() >= options_.plan_cache_capacity) {
          cache_.erase(lru_.back());
          lru_.pop_back();
        }
        lru_.push_front(key);
        cache_[key] = CacheEntry{plan, lru_.begin()};
      }
    }
    inflight_.erase(key);
  }
  {
    std::lock_guard<std::mutex> fl(flight->mu);
    flight->done = true;
    flight->status = compiled.ok() ? Status::OK() : compiled.status();
    flight->plan = plan;
  }
  flight->cv.notify_all();
  if (!compiled.ok()) return compiled.status();
  return plan;
}

void Engine::RecostCacheEntry(CacheEntry* entry,
                              const eval::Database& cost_db) {
  // Measured plan options: live base-relation sizes first (they always win),
  // then the catalog's decayed delta means and probe selectivities.
  plan::PlanOptions popts;
  for (const auto& [name, rel] : cost_db.relations()) {
    popts.extent_hints[name] = rel->size();
  }
  stats_catalog_.SeedPlanOptions(&popts);

  auto recosted = std::make_shared<CompiledQuery>(*entry->plan);
  recosted->plans = plan::PlanProgram(recosted->program, popts);
  // The drift guard re-arms against the sizes this re-cost saw.
  core::RecordPlannerHints(popts, recosted.get());
  // The L104 cartesian-join verdict is a property of the plan that executes:
  // recompute it against the re-costed orders.
  std::vector<Diagnostic> diags;
  for (Diagnostic& d : recosted->diagnostics) {
    if (d.code != "L104") diags.push_back(std::move(d));
  }
  for (Diagnostic& d :
       analysis::LintCartesianJoins(recosted->program, recosted->plans)) {
    diags.push_back(std::move(d));
  }
  recosted->diagnostics = std::move(diags);
  entry->plan = std::move(recosted);
}

void Engine::RecordEvalObservations(const eval::EvalStats& es) {
  for (const auto& [pred, rows] : es.observed_extents) {
    stats_catalog_.ObserveExtent(pred, rows);
  }
  for (const auto& [pred, mean] : es.observed_delta_mean) {
    stats_catalog_.ObserveDelta(pred, mean);
  }
  stats_catalog_.ObserveBatch(es.probe_observations);
  if (es.replans > 0) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.replans += es.replans;
  }
}

exec::ThreadPool* Engine::EnsurePool() {
  if (options_.num_threads == 0) return nullptr;
  std::lock_guard<std::mutex> lock(mu_);
  if (pool_ == nullptr) {
    pool_ = std::make_unique<exec::ThreadPool>(options_.num_threads);
  }
  return pool_.get();
}

// ---- Execution --------------------------------------------------------------

Result<eval::AnswerSet> Engine::Execute(const CompiledQuery& plan,
                                        QueryStats* stats) {
  const auto start = std::chrono::steady_clock::now();
  QueryScope scope(this);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.executions;
  }
  if (stats != nullptr) {
    stats->plan_rules = plan.plans.rules.size();
    stats->plan_reordered = plan.plans.reordered_rules();
  }
  // Evaluate under the compile-time join plan (`plan` outlives the call) on
  // the one semi-naive engine, on the pool when the engine has one.
  // Evaluation counters are always collected — the measured cardinalities
  // feed the statistics catalog even when the caller didn't ask for stats.
  exec::ParallelEvalOptions popts;
  popts.eval = options_.eval;
  popts.eval.program_plan = &plan.plans;
  popts.num_shards = options_.num_shards;
  popts.eval.max_iterations =
      CountingIterationBound(plan, db_, popts.eval.max_iterations);
  Result<eval::EvalResult> result =
      exec::EvaluateParallel(plan.program, &db_, EnsurePool(), popts);
  Result<eval::AnswerSet> answers =
      result.ok() ? eval::ExtractAnswers(plan.query, &*result, &db_,
                                         popts.eval.shared_edb)
                  : Result<eval::AnswerSet>(NoteCountingDivergence(
                        plan, popts.eval.max_iterations, result.status()));
  if (result.ok()) {
    if (stats != nullptr) stats->eval = result->stats();
    if (answers.ok()) RecordEvalObservations(result->stats());
  }
  if (stats != nullptr) stats->execute_us = MicrosSince(start);
  return answers;
}

void Engine::RenameAnswerVars(const ast::Atom& query,
                              eval::AnswerSet* answers) {
  // A cache or view hit executes a plan compiled from a possibly-renamed
  // query. The keys only collide for canonically identical atoms, so the
  // i-th distinct variable of the plan's query is the i-th distinct variable
  // of the caller's: rename positionally.
  std::vector<std::string> vars = query.DistinctVars();
  if (vars.size() == answers->vars.size()) answers->vars = std::move(vars);
}

Result<eval::AnswerSet> Engine::Query(const ast::Program& program,
                                      const ast::Atom& query,
                                      Strategy strategy, QueryStats* stats) {
  if (serving_active_.load(std::memory_order_acquire)) {
    // Inline snapshot read: same execution as a SubmitQuery, minus the
    // queue. Runs concurrently with the writer, no epoch guard involved.
    serve::QueryResponse resp;
    const auto start = std::chrono::steady_clock::now();
    ServingRead(program, query, strategy, &resp);
    if (stats != nullptr) {
      stats->view_hit = resp.view_hit;
      stats->cache_hit = resp.cache_hit;
      stats->execute_us = MicrosSince(start);
    }
    if (!resp.status.ok()) return resp.status;
    return std::move(resp.answers);
  }
  // A materialized view with this plan key answers without executing. The
  // key doubles as the compile key below, so it is derived once.
  const std::string key = PlanCacheKey(program, query, strategy);
  if (FindView(key) != nullptr) {
    // The view materializes the *transformed* program and answers with its
    // query; rename the columns to the caller's variables.
    if (stats != nullptr) stats->view_hit = true;
    FACTLOG_ASSIGN_OR_RETURN(eval::AnswerSet answers,
                             AnswerFromView(ViewHandle{key}));
    RenameAnswerVars(query, &answers);
    return answers;
  }

  // One evaluation epoch from compile through Execute: the compile's planner
  // seeding and Execute take nested scopes, and without this outer one a
  // mutation could land in the gap between them.
  QueryScope scope(this);
  FACTLOG_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledQuery> plan,
      CompileWithKey(program, query, strategy, stats, key));
  FACTLOG_ASSIGN_OR_RETURN(eval::AnswerSet answers, Execute(*plan, stats));
  RenameAnswerVars(query, &answers);
  return answers;
}

Result<eval::AnswerSet> Engine::Query(const std::string& program_text,
                                      Strategy strategy, QueryStats* stats) {
  FACTLOG_ASSIGN_OR_RETURN(ast::Program program,
                           ast::ParseProgram(program_text));
  if (!program.query().has_value()) {
    return Status::Invalid("program text has no '?-' query");
  }
  ast::Atom query = *program.query();
  return Query(program, query, strategy, stats);
}

// ---- Materialized views -----------------------------------------------------

inc::IncrementalOptions Engine::MakeIncOptions() const {
  inc::IncrementalOptions iopts;
  iopts.eval = options_.eval;
  iopts.max_derivation_edges = options_.inc_max_derivation_edges;
  return iopts;
}

Result<ViewHandle> Engine::Materialize(const ast::Program& program,
                                       const ast::Atom& query,
                                       Strategy strategy, QueryStats* stats) {
  if (serving_active_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "Materialize while serving; materialize views before StartServing");
  }
  const std::string key = PlanCacheKey(program, query, strategy);
  FACTLOG_ASSIGN_OR_RETURN(
      std::shared_ptr<const CompiledQuery> plan,
      CompileWithKey(program, query, strategy, stats, key));
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    if (views_.count(key) > 0) return ViewHandle{key};
  }
  std::unique_ptr<inc::MaterializedView> view;
  {
    // The initial evaluation is a query for the epoch guard's purposes.
    QueryScope scope(this);
    const auto start = std::chrono::steady_clock::now();
    inc::IncrementalOptions iopts = MakeIncOptions();
    // The view copies the plan during Build and drops the pointer after.
    iopts.eval.program_plan = &plan->plans;
    iopts.eval.max_iterations =
        CountingIterationBound(*plan, db_, iopts.eval.max_iterations);
    auto built = inc::MaterializedView::Build(plan->program, &db_, iopts);
    FACTLOG_RETURN_IF_ERROR(NoteCountingDivergence(
        *plan, iopts.eval.max_iterations, built.status()));
    view = std::move(built).value();
    stats_catalog_.ObserveBatch(view->DrainObservations());
    if (stats != nullptr) stats->execute_us = MicrosSince(start);
  }
  std::lock_guard<std::mutex> lock(view_mu_);
  views_.emplace(key, std::move(view));
  if (plan->strategy == Strategy::kCounting) counting_plans_[key] = plan;
  return ViewHandle{key};
}

Result<ViewHandle> Engine::Materialize(const std::string& program_text,
                                       Strategy strategy) {
  FACTLOG_ASSIGN_OR_RETURN(ast::Program program,
                           ast::ParseProgram(program_text));
  if (!program.query().has_value()) {
    return Status::Invalid("program text has no '?-' query");
  }
  ast::Atom query = *program.query();
  return Materialize(program, query, strategy);
}

inc::MaterializedView* Engine::FindView(const std::string& key) {
  std::lock_guard<std::mutex> lock(view_mu_);
  auto it = views_.find(key);
  return it == views_.end() ? nullptr : it->second.get();
}

Result<eval::AnswerSet> Engine::AnswerFromView(const ViewHandle& handle) {
  inc::MaterializedView* view = FindView(handle.key);
  if (view == nullptr) {
    return Status::NotFound("no materialized view for handle");
  }
  if (!view->program().query().has_value()) {
    return Status::Internal("materialized view's plan carries no query");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.view_hits;
  }
  QueryScope scope(this);
  std::lock_guard<std::mutex> lock(view_mu_);
  return view->Answer(*view->program().query());
}

const inc::MaterializedView* Engine::view(const ViewHandle& handle) const {
  std::lock_guard<std::mutex> lock(view_mu_);
  auto it = views_.find(handle.key);
  return it == views_.end() ? nullptr : it->second.get();
}

Result<inc::ViewStats> Engine::ViewStatsFor(const ViewHandle& handle) const {
  std::lock_guard<std::mutex> lock(view_mu_);
  auto it = views_.find(handle.key);
  if (it == views_.end()) {
    return Status::NotFound("no materialized view for handle");
  }
  return it->second->stats();
}

Result<std::string> Engine::ExplainFromView(const ViewHandle& handle,
                                            const ast::Atom& fact) {
  // Explain interns the fact's constants (thread-safe store) and reads the
  // maintained state; serialize against propagation like every view access.
  std::lock_guard<std::mutex> lock(view_mu_);
  auto it = views_.find(handle.key);
  if (it == views_.end()) {
    return Status::NotFound("no materialized view for handle");
  }
  return it->second->Explain(fact);
}

void Engine::DropView(const ViewHandle& handle) {
  // While serving, the writer thread reads views at every install; dropping
  // one from another thread would race it. Refuse (views are engine-lifetime
  // fixtures in serving mode).
  if (serving_active_.load(std::memory_order_acquire)) return;
  std::lock_guard<std::mutex> lock(view_mu_);
  views_.erase(handle.key);
  counting_plans_.erase(handle.key);
}

size_t Engine::num_views() const {
  std::lock_guard<std::mutex> lock(view_mu_);
  return views_.size();
}

// ---- Async serving ----------------------------------------------------------

Engine::~Engine() { StopServing(); }

Status Engine::StartServing(const serve::ServeOptions& serve_options) {
  exec::ThreadPool* pool = EnsurePool();
  if (pool == nullptr) {
    return Status::FailedPrecondition(
        "serving requires num_threads > 0 (the request queue runs on the "
        "engine's pool)");
  }
  if (server_ != nullptr) return Status::OK();  // already serving
  serving_ = std::make_unique<ServingState>();
  // Epoch 1: the pre-serving state. Installed before the server exists, so
  // the first reader always finds a snapshot.
  InstallServingSnapshot();
  serve::Server::Hooks hooks;
  hooks.read = [this](const ast::Program& program, const ast::Atom& query,
                      Strategy strategy, serve::QueryResponse* resp) {
    ServingRead(program, query, strategy, resp);
  };
  hooks.apply = [this](bool insert, const ast::Atom& fact) {
    return insert ? AddFactImpl(fact) : RemoveFactImpl(fact);
  };
  hooks.install = [this] {
    uint64_t epoch = InstallServingSnapshot();
    // One WAL commit per installed epoch: the whole drained update batch
    // becomes durable together (the shard seam's batching unit).
    Status st = CommitStorage();
    if (!st.ok()) {
      std::fprintf(stderr, "factlog: WAL commit at serving epoch %llu: %s\n",
                   static_cast<unsigned long long>(epoch),
                   st.ToString().c_str());
    }
    return epoch;
  };
  server_ =
      std::make_unique<serve::Server>(pool, std::move(hooks), serve_options);
  engine_session_ = server_->OpenSession();
  serving_active_.store(true, std::memory_order_release);
  return Status::OK();
}

Status Engine::StopServing() {
  if (server_ == nullptr) return Status::OK();
  // Stop before flipping the flag: late synchronous mutations still route to
  // the (now rejecting) server instead of racing the writer's final batches.
  server_->Stop();
  serving_active_.store(false, std::memory_order_release);
  server_.reset();
  serving_.reset();
  engine_session_ = 0;
  return Status::OK();
}

uint64_t Engine::OpenSession() {
  return server_ == nullptr ? 0 : server_->OpenSession();
}

Status Engine::CloseSession(uint64_t session) {
  if (server_ == nullptr) {
    return Status::FailedPrecondition("engine is not serving");
  }
  return server_->CloseSession(session);
}

Status Engine::SubmitQuery(uint64_t session, ast::Program program,
                           ast::Atom query, Strategy strategy,
                           serve::QueryCallback done) {
  if (server_ == nullptr) {
    return Status::FailedPrecondition("engine is not serving");
  }
  return server_->SubmitQuery(session, std::move(program), std::move(query),
                              strategy, std::move(done));
}

std::future<serve::QueryResponse> Engine::SubmitQuery(uint64_t session,
                                                      ast::Program program,
                                                      ast::Atom query,
                                                      Strategy strategy) {
  if (server_ == nullptr) {
    std::promise<serve::QueryResponse> promise;
    serve::QueryResponse resp;
    resp.status = Status::FailedPrecondition("engine is not serving");
    promise.set_value(std::move(resp));
    return promise.get_future();
  }
  return server_->SubmitQuery(session, std::move(program), std::move(query),
                              strategy);
}

Status Engine::SubmitUpdate(uint64_t session, bool insert, ast::Atom fact,
                            serve::UpdateCallback done) {
  if (server_ == nullptr) {
    return Status::FailedPrecondition("engine is not serving");
  }
  return server_->SubmitUpdate(session, insert, std::move(fact),
                               std::move(done));
}

std::future<serve::UpdateResponse> Engine::SubmitUpdate(uint64_t session,
                                                        bool insert,
                                                        ast::Atom fact) {
  if (server_ == nullptr) {
    std::promise<serve::UpdateResponse> promise;
    serve::UpdateResponse resp;
    resp.status = Status::FailedPrecondition("engine is not serving");
    promise.set_value(std::move(resp));
    return promise.get_future();
  }
  return server_->SubmitUpdate(session, insert, std::move(fact));
}

serve::ServerStats Engine::serving_stats() const {
  return server_ == nullptr ? serve::ServerStats{} : server_->stats();
}

uint64_t Engine::serving_epoch() const {
  return serving_ == nullptr ? 0 : serving_->snapshots.current_epoch();
}

uint64_t Engine::InstallServingSnapshot() {
  // Adaptive indexing: build the access paths serving plans asked for on the
  // *live* relations — snapshots are immutable, so readers can't. The frozen
  // copies taken below inherit them; the requesting query's epoch scanned,
  // the next one probes.
  for (const auto& [name, cols_set] : serving_->vocab.Drain()) {
    eval::Relation* rel = db_.Find(name);
    if (rel == nullptr) continue;
    for (const std::vector<int>& cols : cols_set) rel->EnsureIndex(cols);
  }
  std::shared_ptr<serve::Snapshot> snap = serving_->builder.Build(&db_);
  {
    // Freeze every view's answer relation into the epoch. FrozenAnswer runs
    // on the installing thread — the single writer — as Apply* does.
    std::lock_guard<std::mutex> lock(view_mu_);
    for (auto& [key, view] : views_) {
      if (!view->program().query().has_value()) continue;
      std::shared_ptr<eval::Relation> rel = view->FrozenAnswer();
      if (rel == nullptr) continue;  // poisoned: readers fall back to eval
      snap->views.emplace(
          key, serve::ViewSnapshot{*view->program().query(), std::move(rel)});
    }
  }
  uint64_t epoch = snap->epoch;
  serving_->snapshots.Install(std::move(snap));
  return epoch;
}

void Engine::ServingRead(const ast::Program& program, const ast::Atom& query,
                         Strategy strategy, serve::QueryResponse* resp) {
  std::shared_ptr<const serve::Snapshot> snap = serving_->snapshots.Pin();
  if (snap == nullptr || snap->db == nullptr) {
    resp->status = Status::Internal("no serving snapshot installed");
    return;
  }
  resp->epoch = snap->epoch;
  const std::string key = PlanCacheKey(program, query, strategy);

  // A frozen materialized view answers without executing, exactly like the
  // synchronous view-hit path — but from the epoch's frozen copy, so the
  // writer's concurrent maintenance never shows through.
  auto vit = snap->views.find(key);
  if (vit != snap->views.end()) {
    resp->view_hit = true;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.view_hits;
    }
    Result<eval::AnswerSet> answers = eval::ExtractAnswersFrom(
        vit->second.query, vit->second.rel.get(), &snap->db->store(),
        /*shared=*/true);
    if (!answers.ok()) {
      resp->status = answers.status();
      return;
    }
    resp->answers = std::move(answers).value();
    RenameAnswerVars(query, &resp->answers);
    return;
  }

  // Compile (planner hints from the snapshot — no live-database read, no
  // epoch guard) and evaluate sequentially against the snapshot. The
  // parallel fixpoint is wrong here: serving already runs many queries
  // concurrently, one worker per query.
  QueryStats qs;
  Result<std::shared_ptr<const CompiledQuery>> plan =
      CompileWithKey(program, query, strategy, &qs, key, snap->db.get());
  if (!plan.ok()) {
    resp->status = plan.status();
    return;
  }
  resp->cache_hit = qs.cache_hit;
  // Register the probe columns of the plan the evaluation runs (under
  // kLeftToRight the source-order plan, not the compiled one); the writer
  // builds them at the next install (adaptive indexing — see
  // serve::IndexVocabulary).
  if (options_.eval.join_order == eval::JoinOrder::kLeftToRight) {
    serving_->vocab.RegisterFromPlan(
        **plan, eval::PlanForEvaluation((*plan)->program, *snap->db,
                                        options_.eval));
  } else {
    serving_->vocab.RegisterFromPlan(**plan, (*plan)->plans);
  }
  // The snapshot's base relations are shared read-only with every other
  // reader: the evaluation probes the indices built at install and scans
  // otherwise, never building one lazily.
  eval::EvalOptions eopts = options_.eval;
  eopts.program_plan = &(*plan)->plans;
  eopts.shared_edb = true;
  eopts.max_iterations =
      CountingIterationBound(**plan, *snap->db, eopts.max_iterations);
  Result<eval::AnswerSet> answers = eval::EvaluateQuery(
      (*plan)->program, (*plan)->query, snap->db.get(), eopts, &qs.eval);
  if (answers.ok()) RecordEvalObservations(qs.eval);
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++stats_.executions;
  }
  if (!answers.ok()) {
    resp->status = NoteCountingDivergence(**plan, eopts.max_iterations,
                                          answers.status());
    return;
  }
  resp->answers = std::move(answers).value();
  RenameAnswerVars(query, &resp->answers);
}

// ---- Persistence ------------------------------------------------------------

Result<std::unique_ptr<Engine>> Engine::Open(const std::string& path,
                                             EngineOptions options) {
  options.db_path = path;
  auto engine = std::make_unique<Engine>(std::move(options));
  FACTLOG_RETURN_IF_ERROR(engine->InitStorage());
  return engine;
}

Status Engine::InitStorage() {
  storage::StorageManager::Options sopts;
  sopts.dir = options_.db_path;
  sopts.frame_budget = options_.storage_frame_budget;
  FACTLOG_ASSIGN_OR_RETURN(storage_, storage::StorageManager::Open(sopts));
  db_.AttachTableSpace(storage_->tablespace());
  storage_epoch_ = storage_->last_committed_epoch();
  replaying_ = true;
  Status st = RestoreFromCheckpoint();
  if (st.ok()) st = ReplayWal();
  replaying_ = false;
  FACTLOG_RETURN_IF_ERROR(st);
  storage_->DiscardRecoveryState();
  return Status::OK();
}

Status Engine::RestoreFromCheckpoint() {
  if (!storage_->has_checkpoint()) return Status::OK();
  const storage::CheckpointMeta& meta = storage_->recovered_meta();
  storage_epoch_ = std::max(storage_epoch_, meta.epoch);

  // Values first: re-interning dump entries in id order reproduces the exact
  // id assignment (children of a compound always have smaller ids), which
  // every persisted row and view depends on.
  eval::ValueStore& store = db_.store();
  for (const storage::ValueDumpEntry& v : meta.values) {
    switch (v.kind) {
      case 0:
        store.InternInt(v.int_value);
        break;
      case 1:
        store.InternSym(v.symbol);
        break;
      default: {
        std::vector<eval::ValueId> kids(v.children.begin(), v.children.end());
        store.InternApp(v.symbol, std::move(kids));
        break;
      }
    }
  }
  if (store.size() != meta.values.size()) {
    return Status::Internal(
        "value store restore drifted: checkpoint holds duplicate entries");
  }

  // Base relations: paged shards adopt their checkpointed chains (no row
  // I/O beyond the dedup-rebuild scan); unpageable shards reload inline rows.
  for (const storage::RelationDump& rd : meta.relations) {
    eval::StorageOptions so;
    so.num_shards = rd.num_shards;
    so.partition_cols.assign(rd.part_cols.begin(), rd.part_cols.end());
    auto rel = std::make_shared<eval::Relation>(rd.arity, so);
    if (rd.shards.size() != rel->shard_count()) {
      return Status::Internal("relation '" + rd.name +
                              "': checkpoint shard count mismatch");
    }
    const bool pageable =
        rd.arity > 0 && storage::PagedRowStore::RowFits(
                            rd.arity * sizeof(eval::ValueId));
    if (pageable) {
      std::vector<std::vector<storage::PageId>> chains;
      std::vector<uint64_t> rows;
      chains.reserve(rd.shards.size());
      rows.reserve(rd.shards.size());
      for (const storage::ShardDump& sh : rd.shards) {
        chains.push_back(sh.chain);
        rows.push_back(sh.num_rows);
      }
      FACTLOG_RETURN_IF_ERROR(
          rel->AdoptPagedChains(storage_->tablespace(), chains, rows));
    } else {
      for (const storage::ShardDump& sh : rd.shards) {
        if (rd.arity == 0) {
          if (sh.num_rows > 0) rel->Insert(std::vector<eval::ValueId>{});
          continue;
        }
        for (uint64_t r = 0; r < sh.num_rows; ++r) {
          rel->Insert(sh.inline_rows.data() + r * rd.arity);
        }
      }
    }
    db_.PutRelation(rd.name, std::move(rel));
  }

  // Materialized views: recompile the maintenance machinery, fill the
  // maintained relations (and exact support counts) from the dump — no
  // from-scratch evaluation.
  for (const storage::ViewDumpRec& vd : meta.views) {
    FACTLOG_ASSIGN_OR_RETURN(ast::Program vprog,
                             ast::ParseProgram(vd.program_text));
    if (!vprog.query().has_value() && !vd.query_text.empty()) {
      FACTLOG_ASSIGN_OR_RETURN(
          ast::Program qprog, ast::ParseProgram("?- " + vd.query_text + "."));
      if (qprog.query().has_value()) vprog.set_query(*qprog.query());
    }
    FACTLOG_ASSIGN_OR_RETURN(
        std::unique_ptr<inc::MaterializedView> view,
        inc::MaterializedView::Restore(vprog, &db_, MakeIncOptions(),
                                       vd.preds));
    {
      std::lock_guard<std::mutex> lock(view_mu_);
      views_.emplace(vd.key, std::move(view));
    }
    ++views_restored_;
  }

  // Statistics catalog, before the plan warm-recompiles: restored plans are
  // costed from the measured cardinalities the previous incarnation learned.
  if (!meta.stats.empty()) {
    std::map<std::string, plan::PredicateStats> entries;
    for (const storage::PredicateStatsDump& sd : meta.stats) {
      plan::PredicateStats ps;
      ps.extent = sd.extent;
      ps.extent_runs = sd.extent_runs;
      ps.delta_mean = sd.delta_mean;
      ps.delta_runs = sd.delta_runs;
      for (const storage::ProbeStatDump& pb : sd.probes) {
        plan::ProbeStats st;
        st.probes = pb.probes;
        st.matched = pb.matched;
        st.runs = pb.runs;
        ps.probes[pb.pattern] = st;
      }
      entries[sd.pred] = std::move(ps);
    }
    stats_catalog_.Restore(std::move(entries));
  }

  // Cached plans: warm-recompile every entry under its original cache key.
  // The compile costs against live sizes and the restored catalog, so a plan
  // whose extents drifted since the checkpoint comes back re-costed.
  for (const storage::PlanDescriptor& pd : meta.plans) {
    std::optional<Strategy> strat = core::StrategyFromString(pd.strategy);
    Result<ast::Program> prog = ast::ParseProgram(pd.program_text);
    Result<ast::Program> qprog =
        ast::ParseProgram("?- " + pd.query_text + ".");
    if (!strat.has_value() || !prog.ok() || !qprog.ok() ||
        !qprog->query().has_value()) {
      ++plans_dropped_;
      continue;
    }
    Result<std::shared_ptr<const CompiledQuery>> plan = CompileWithKey(
        *prog, *qprog->query(), *strat, nullptr, pd.cache_key);
    if (plan.ok()) {
      ++plans_restored_;
      // A restored Counting view takes its maintenance bound from its plan.
      if ((*plan)->strategy == Strategy::kCounting) {
        std::lock_guard<std::mutex> lock(view_mu_);
        if (views_.count(pd.cache_key) > 0) {
          counting_plans_[pd.cache_key] = *plan;
        }
      }
    } else {
      ++plans_dropped_;
    }
  }
  return Status::OK();
}

Status Engine::ReplayWal() {
  for (const storage::WalRecord& rec : storage_->recovered_records()) {
    switch (rec.type) {
      case storage::WalRecordType::kAddFact:
      case storage::WalRecordType::kRemoveFact: {
        ast::Atom fact;
        if (!storage::DecodeFactRecord(rec.payload.data(),
                                       rec.payload.size(), &fact)) {
          return Status::Internal("WAL replay: malformed fact record");
        }
        const bool insert = rec.type == storage::WalRecordType::kAddFact;
        FACTLOG_RETURN_IF_ERROR(insert ? AddFactImpl(fact)
                                       : RemoveFactImpl(fact));
        ++facts_replayed_;
        break;
      }
      case storage::WalRecordType::kCommit: {
        uint64_t epoch = 0;
        if (!storage::DecodeCommitRecord(rec.payload.data(),
                                         rec.payload.size(), &epoch)) {
          return Status::Internal("WAL replay: malformed commit record");
        }
        storage_epoch_ = std::max(storage_epoch_, epoch);
        break;
      }
    }
  }
  return Status::OK();
}

Status Engine::CommitStorage() {
  if (storage_ == nullptr || replaying_) return Status::OK();
  if (storage_->pending_records() == 0) return Status::OK();
  return storage_->CommitEpoch(++storage_epoch_);
}

Status Engine::Checkpoint() {
  if (storage_ == nullptr) {
    return Status::FailedPrecondition(
        "Checkpoint on an in-memory engine; open one with Engine::Open");
  }
  if (serving_active_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition(
        "Checkpoint while serving; StopServing first (the writer owns the "
        "relations)");
  }
  FACTLOG_RETURN_IF_ERROR(CheckMutable("Checkpoint"));

  storage::CheckpointMeta meta;
  meta.epoch = storage_epoch_;

  // Values, in id order.
  const eval::ValueStore& store = db_.store();
  meta.values.reserve(store.size());
  for (size_t i = 0; i < store.size(); ++i) {
    const auto id = static_cast<eval::ValueId>(i);
    storage::ValueDumpEntry v;
    switch (store.kind(id)) {
      case eval::ValueStore::Kind::kInt:
        v.kind = 0;
        v.int_value = store.int_value(id);
        break;
      case eval::ValueStore::Kind::kSymbol:
        v.kind = 1;
        v.symbol = store.symbol(id);
        break;
      case eval::ValueStore::Kind::kCompound:
        v.kind = 2;
        v.symbol = store.symbol(id);
        v.children.reserve(store.NumChildren(id));
        for (size_t c = 0; c < store.NumChildren(id); ++c) {
          v.children.push_back(store.Child(id, c));
        }
        break;
    }
    meta.values.push_back(std::move(v));
  }

  // Base relations: page everything pageable (idempotent for already-paged
  // shards), then record each shard's chain — or its rows inline when the
  // shard cannot live on pages.
  for (const auto& [name, rel] : db_.relations()) {
    rel->SyncShards();
    rel->AttachPagedStore(db_.tablespace());
    storage::RelationDump rd;
    rd.name = name;
    rd.arity = static_cast<uint32_t>(rel->arity());
    rd.num_shards = static_cast<uint32_t>(rel->shard_count());
    rd.part_cols.assign(rel->partition_cols().begin(),
                        rel->partition_cols().end());
    std::vector<std::vector<storage::PageId>> chains;
    std::vector<uint64_t> rows;
    rel->DumpPagedChains(&chains, &rows);
    rd.shards.reserve(chains.size());
    for (size_t s = 0; s < chains.size(); ++s) {
      storage::ShardDump sd;
      sd.num_rows = rows[s];
      sd.chain = std::move(chains[s]);
      if (sd.chain.empty() && rel->arity() > 0 && rows[s] > 0) {
        const eval::Relation& sh = rel->shard(s);
        sd.inline_rows.reserve(sh.size() * rel->arity());
        for (size_t r = 0; r < sh.size(); ++r) {
          const eval::ValueId* rp = sh.row(r);
          sd.inline_rows.insert(sd.inline_rows.end(), rp, rp + rel->arity());
        }
      }
      rd.shards.push_back(std::move(sd));
    }
    meta.relations.push_back(std::move(rd));
  }

  // Materialized views, by value (poisoned views are dropped: their state is
  // not worth persisting).
  {
    std::lock_guard<std::mutex> lock(view_mu_);
    for (auto& [key, view] : views_) {
      if (view->poisoned()) continue;
      storage::ViewDumpRec vd;
      vd.key = key;
      vd.program_text = view->program().ToString();
      if (view->program().query().has_value()) {
        vd.query_text = view->program().query()->ToString();
      }
      vd.strategy = key.substr(0, key.find('|'));
      vd.preds = view->DumpState();
      meta.views.push_back(std::move(vd));
    }
  }

  // Cached plans: source texts plus the extents they were costed against.
  // Open recompiles against live sizes and ignores the hints; they stay in
  // the meta format so checkpoints keep one layout.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [key, entry] : cache_) {
      storage::PlanDescriptor pd;
      pd.cache_key = key;
      pd.strategy = key.substr(0, key.find('|'));
      pd.program_text = entry.plan->source.ToString();
      pd.query_text = entry.plan->source_query.ToString();
      pd.extent_hints = entry.plan->planner_hints;
      meta.plans.push_back(std::move(pd));
    }
  }

  // Statistics catalog: the decayed measured cardinalities, so a reopened
  // engine plans from observations instead of re-learning them.
  for (const auto& [pred, ps] : stats_catalog_.Snapshot()) {
    storage::PredicateStatsDump sd;
    sd.pred = pred;
    sd.extent = ps.extent;
    sd.extent_runs = ps.extent_runs;
    sd.delta_mean = ps.delta_mean;
    sd.delta_runs = ps.delta_runs;
    for (const auto& [pattern, st] : ps.probes) {
      storage::ProbeStatDump pb;
      pb.pattern = pattern;
      pb.probes = st.probes;
      pb.matched = st.matched;
      pb.runs = st.runs;
      sd.probes.push_back(std::move(pb));
    }
    meta.stats.push_back(std::move(sd));
  }

  FACTLOG_RETURN_IF_ERROR(storage_->Checkpoint(std::move(meta)));
  // The meta file now references these pages: seal them so the next write
  // relocates copy-on-write instead of dirtying checkpointed state.
  for (const auto& [name, rel] : db_.relations()) rel->SealPages();
  return Status::OK();
}

PersistenceStats Engine::persistence_stats() const {
  PersistenceStats ps;
  if (storage_ != nullptr) ps.storage = storage_->stats();
  ps.facts_replayed = facts_replayed_;
  ps.views_restored = views_restored_;
  ps.plans_restored = plans_restored_;
  ps.plans_dropped = plans_dropped_;
  return ps;
}

// ---- Introspection ----------------------------------------------------------

EngineStats Engine::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t Engine::plan_cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

void Engine::ClearPlanCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.clear();
  lru_.clear();
}

}  // namespace factlog::api
