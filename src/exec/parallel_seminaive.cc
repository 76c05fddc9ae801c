#include "exec/parallel_seminaive.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "eval/rule_eval.h"

namespace factlog::exec {

namespace {

using eval::CompiledAtom;
using eval::CompiledRule;
using eval::Database;
using eval::EvalResult;
using eval::JoinStats;
using eval::LitKind;
using eval::Relation;
using eval::RelationView;
using eval::StorageOptions;
using eval::ValueId;

class ParallelEngine {
 public:
  ParallelEngine(const ast::Program& program, Database* db, ThreadPool* pool,
                 const ParallelEvalOptions& opts)
      : program_(program), db_(db), pool_(pool), opts_(opts) {}

  Result<EvalResult> Run() {
    if (opts_.eval.track_provenance) {
      return Status::Invalid(
          "parallel evaluation does not record provenance; use the "
          "sequential evaluator (eval::Evaluate) for derivation trees");
    }
    FACTLOG_RETURN_IF_ERROR(Prepare());
    FACTLOG_RETURN_IF_ERROR(SeedBaseRules());
    FACTLOG_RETURN_IF_ERROR(RunFixpoint());
    return Finish();
  }

 private:
  struct PredState {
    std::unique_ptr<Relation> full;
    std::unique_ptr<Relation> delta;
    std::unique_ptr<Relation> next;
    // One lock per storage shard: workers merging different shards of the
    // same head predicate never contend.
    std::unique_ptr<std::mutex[]> shard_locks;
    size_t num_shards = 1;
  };

  // One (rule, recursive-occurrence) delta pass of the current iteration.
  // Partitioning follows the rule's join plan:
  //   * when the occurrence IS the plan's driver literal, the delta's shards
  //     are the work partitions (by_shard; one task per shard), or one task
  //     aliases the whole delta when it is too small to fan out;
  //   * when the driver is a different literal (the delta occurrence sits
  //     deeper in the plan), the pass partitions the driver literal's frozen
  //     extent instead (by_driver; one task per (member relation, shard)) and
  //     every task probes the whole delta — without this, each delta-shard
  //     task would re-enumerate the rule prefix, duplicating the outer scan
  //     once per shard.
  struct Pass {
    size_t rule = 0;
    size_t occ = 0;
    const Relation* delta_rel = nullptr;
    bool by_shard = false;
    bool by_driver = false;
    size_t driver_pos = 0;  // compiled body position of the plan's driver
    // Driver partitions: (member relation of the driver's union view, shard
    // index within it or -1 for the whole member).
    std::vector<std::pair<const Relation*, int>> driver_parts;
    PredState* head_state = nullptr;
  };

  struct TaskRef {
    size_t pass = 0;
    size_t part = 0;  // shard / driver-part index when the pass fans out
  };

  // Iteration-0 task: rule `rule` with relation literal `lit` restricted to
  // shard `shard` of its base relation's extent.
  struct SeedTask {
    size_t rule = 0;
    size_t lit = 0;
    size_t shard = 0;
  };

  struct TaskResult {
    JoinStats stats;
    size_t rule = 0;  // for per-rule stats folding
    Status status = Status::OK();
  };

  size_t PoolWidth() const {
    return pool_ == nullptr ? 0 : pool_->num_threads();
  }

  Status Prepare() {
    FACTLOG_RETURN_IF_ERROR(program_.Validate());
    idb_preds_ = program_.IdbPredicates();
    plan_ = eval::PlanForEvaluation(program_, *db_, opts_.eval);
    rules_.reserve(program_.rules().size());
    for (size_t i = 0; i < program_.rules().size(); ++i) {
      FACTLOG_ASSIGN_OR_RETURN(
          CompiledRule cr,
          CompiledRule::Compile(program_.rules()[i], &db_->store(),
                                &plan_.rules[i]));
      // The compiled body is in plan order, so the plan's declared index
      // requirements line up with the compiled literals: cols_[i][k] is the
      // key literal k is probed with — no re-walk of StaticIndexCols.
      std::vector<std::vector<int>> cols;
      int driver = -1;
      for (size_t k = 0; k < plan_.rules[i].order.size(); ++k) {
        const plan::LiteralPlan& lp = plan_.rules[i].order[k];
        cols.push_back(lp.index_cols);
        if (driver < 0 && lp.is_relation) driver = static_cast<int>(k);
      }
      cols_.push_back(std::move(cols));
      driver_pos_.push_back(driver);
      rules_.push_back(std::move(cr));
    }
    rule_stats_.resize(rules_.size());

    size_t shards = opts_.num_shards > 0 ? opts_.num_shards
                                         : db_->storage_options().num_shards;
    shards = std::max<size_t>(1, shards);
    auto arities = program_.PredicateArities();
    for (const std::string& p : idb_preds_) {
      // Partition each IDB relation on the plan's probe columns of its first
      // recursive occurrence, so delta shards line up with the key the join
      // probes them with; column 0 when every occurrence is probed unbound.
      StorageOptions storage;
      storage.num_shards = shards;
      for (size_t i = 0;
           i < rules_.size() && storage.partition_cols.empty(); ++i) {
        for (size_t j = 0; j < rules_[i].body().size(); ++j) {
          const CompiledAtom& lit = rules_[i].body()[j];
          if (lit.kind == LitKind::kRelation && lit.predicate == p &&
              !cols_[i][j].empty()) {
            storage.partition_cols = cols_[i][j];
            break;
          }
        }
      }
      size_t arity = arities.at(p);
      PredState st;
      st.full = std::make_unique<Relation>(arity, storage);
      st.delta = std::make_unique<Relation>(arity, storage);
      st.next = std::make_unique<Relation>(arity, storage);
      st.num_shards = st.next->shard_count();
      st.shard_locks = std::make_unique<std::mutex[]>(st.num_shards);
      preds_.emplace(p, std::move(st));
    }
    // Saturating 2x slack over the fact budget: cross-task duplicates make
    // the in-flight counter an overestimate, so the hard mid-iteration trip
    // wire sits above the exact post-iteration check.
    uint64_t max = opts_.eval.max_facts;
    budget_trip_ = max > (UINT64_MAX - 1024) / 2 ? UINT64_MAX : 2 * max + 1024;
    return Status::OK();
  }

  bool IsIdb(const std::string& pred) const {
    return idb_preds_.count(pred) > 0;
  }

  uint64_t TotalIdbFacts() const {
    uint64_t n = 0;
    for (const auto& [name, st] : preds_) {
      n += st.full->size() + st.delta->size() + st.next->size();
    }
    return n;
  }

  // The frozen extent of body literal k for one fixpoint task (every view is
  // shared: workers never mutate relations during the parallel region).
  // `occ_rows` is the occurrence's extent: one delta shard or the whole
  // delta.
  RelationView ViewFor(const Pass& pass, size_t k, const Relation* occ_rows) {
    const CompiledAtom& lit = rules_[pass.rule].body()[k];
    if (lit.kind != LitKind::kRelation) return RelationView{};
    if (!IsIdb(lit.predicate)) {
      return RelationView{db_->Find(lit.predicate), nullptr, /*shared=*/true};
    }
    PredState& st = preds_.at(lit.predicate);
    if (k == pass.occ) {
      // The join never mutates a shared view, so the const_cast only bridges
      // RelationView's (sequential-engine) mutable pointers.
      return RelationView{const_cast<Relation*>(occ_rows), nullptr,
                          /*shared=*/true};
    }
    if (k < pass.occ) {
      // This round's view of F_i: full union delta.
      return RelationView{st.full.get(), st.delta.get(), /*shared=*/true};
    }
    return RelationView{st.full.get(), nullptr, /*shared=*/true};
  }

  // Merges a worker's thread-local buffer into `target` under the head
  // predicate's per-shard locks (see MergeBufferLocked).
  void MergeBuffer(PredState* st, Relation* target, const Relation& buffer) {
    MergeBufferLocked(target, buffer, st->shard_locks.get());
  }

  // True when `row` being buffered pushed the in-flight fact estimate past
  // the trip wire (sets the cancellation flags).
  bool BudgetTripped() {
    uint64_t inflight = iteration_base_ +
                        new_rows_.fetch_add(1, std::memory_order_relaxed) + 1;
    if (inflight <= budget_trip_) return false;
    budget_tripped_.store(true, std::memory_order_relaxed);
    cancelled_.store(true, std::memory_order_release);
    return true;
  }

  Status BudgetExceeded() const {
    return Status::ResourceExhausted(
        "fact budget exceeded (" + std::to_string(opts_.eval.max_facts) +
        "); program may not terminate");
  }

  // Folds the per-task results into the per-rule stats, failing on the first
  // task error or a tripped budget, and re-arms the cancellation flag.
  Status DrainTaskResults(std::vector<TaskResult>* results) {
    for (TaskResult& r : *results) {
      FACTLOG_RETURN_IF_ERROR(r.status);
      JoinStats& js = rule_stats_[r.rule];
      js.rows_matched += r.stats.rows_matched;
      js.instantiations += r.stats.instantiations;
      if (js.lit_probes.size() < r.stats.lit_probes.size()) {
        js.lit_probes.resize(r.stats.lit_probes.size(), 0);
        js.lit_matched.resize(r.stats.lit_probes.size(), 0);
      }
      for (size_t k = 0; k < r.stats.lit_probes.size(); ++k) {
        js.lit_probes[k] += r.stats.lit_probes[k];
        js.lit_matched[k] += r.stats.lit_matched[k];
      }
    }
    if (budget_tripped_.load(std::memory_order_acquire)) {
      return BudgetExceeded();
    }
    cancelled_.store(false, std::memory_order_release);
    return Status::OK();
  }

  // Iteration 0: rules without IDB body literals seed the deltas. The first
  // relation literal's extent is partitioned by its storage shards and the
  // tasks fan out across the pool; rules whose extent is small (or
  // unsharded, or when there is no pool) run inline on the control thread.
  Status SeedBaseRules() {
    std::vector<SeedTask> tasks;
    const size_t width = PoolWidth();
    for (size_t i = 0; i < rules_.size(); ++i) {
      const CompiledRule& rule = rules_[i];
      bool has_idb = false;
      int first_rel = -1;
      for (size_t k = 0; k < rule.body().size(); ++k) {
        const CompiledAtom& lit = rule.body()[k];
        if (lit.kind != LitKind::kRelation) continue;
        if (first_rel < 0) first_rel = static_cast<int>(k);
        if (IsIdb(lit.predicate)) {
          has_idb = true;
          break;
        }
      }
      if (has_idb) continue;

      const Relation* extent =
          first_rel >= 0 ? db_->Find(rule.body()[first_rel].predicate)
                         : nullptr;
      bool fan_out = width > 0 && extent != nullptr &&
                     extent->shard_count() > 1 &&
                     extent->size() >= opts_.min_rows_to_partition;
      if (!fan_out) {
        FACTLOG_RETURN_IF_ERROR(SeedRuleInline(i));
        continue;
      }
      // Pre-build every index a seed worker could probe: shard-local on the
      // partitioned literal, combined on the rest. Skipped when the EDB is
      // shared read-only (workers then fall back to filtered scans).
      if (!opts_.eval.shared_edb) {
        for (size_t k = 0; k < rule.body().size(); ++k) {
          const CompiledAtom& lit = rule.body()[k];
          const std::vector<int>& cols = cols_[i][k];
          if (lit.kind != LitKind::kRelation || cols.empty()) continue;
          Relation* rel = db_->Find(lit.predicate);
          if (rel == nullptr) continue;
          if (static_cast<int>(k) == first_rel) {
            rel->EnsureShardIndexes(cols);
          } else {
            rel->EnsureIndex(cols);
          }
        }
      }
      for (size_t s = 0; s < extent->shard_count(); ++s) {
        tasks.push_back(SeedTask{i, static_cast<size_t>(first_rel), s});
      }
    }
    if (tasks.empty()) return Status::OK();

    std::vector<TaskResult> results(tasks.size());
    iteration_base_ = TotalIdbFacts();
    new_rows_.store(0, std::memory_order_relaxed);
    pool_->ParallelFor(tasks.size(), [&](size_t t) {
      RunSeedTask(tasks[t], &results[t]);
    });
    FACTLOG_RETURN_IF_ERROR(DrainTaskResults(&results));
    for (auto& [name, st] : preds_) st.delta->SyncShards();
    if (TotalIdbFacts() > opts_.eval.max_facts) return BudgetExceeded();
    return Status::OK();
  }

  // The control-thread seed path (exact budget accounting, lazy indices).
  Status SeedRuleInline(size_t rule_index) {
    const CompiledRule& rule = rules_[rule_index];
    std::vector<RelationView> views;
    views.reserve(rule.body().size());
    for (const CompiledAtom& lit : rule.body()) {
      if (lit.kind != LitKind::kRelation) {
        views.push_back(RelationView{});
      } else {
        views.push_back(RelationView{db_->Find(lit.predicate), nullptr,
                                     opts_.eval.shared_edb});
      }
    }
    Relation* delta = preds_.at(rule.head().predicate).delta.get();
    Status overflow = Status::OK();
    FACTLOG_RETURN_IF_ERROR(EnumerateRule(
        rule, &db_->store(), views, /*track_premises=*/false,
        &rule_stats_[rule_index],
        [&](const std::vector<ValueId>& row,
            const std::vector<eval::FactKey>*) {
          delta->Insert(row);
          if (TotalIdbFacts() > opts_.eval.max_facts) {
            overflow = BudgetExceeded();
            return false;
          }
          return true;
        }));
    return overflow;
  }

  // One seed worker task: evaluate rule `task.rule` with literal `task.lit`
  // restricted to shard `task.shard` of its base relation, buffer the head
  // rows thread-locally, then merge into the head's delta shard-to-shard.
  void RunSeedTask(const SeedTask& task, TaskResult* result) {
    result->rule = task.rule;
    if (cancelled_.load(std::memory_order_acquire)) return;
    const CompiledRule& rule = rules_[task.rule];
    const Relation* extent = db_->Find(rule.body()[task.lit].predicate);
    const Relation& shard_rows = extent->shard(task.shard);
    if (shard_rows.empty()) return;

    std::vector<RelationView> views;
    views.reserve(rule.body().size());
    for (size_t k = 0; k < rule.body().size(); ++k) {
      const CompiledAtom& lit = rule.body()[k];
      if (lit.kind != LitKind::kRelation) {
        views.push_back(RelationView{});
      } else if (k == task.lit) {
        views.push_back(RelationView{const_cast<Relation*>(&shard_rows),
                                     nullptr, /*shared=*/true});
      } else {
        views.push_back(RelationView{db_->Find(lit.predicate), nullptr,
                                     /*shared=*/true});
      }
    }

    PredState& head_st = preds_.at(rule.head().predicate);
    Relation buffer(rule.head().args.size(),
                    head_st.delta->storage_options());
    result->status = EnumerateRule(
        rule, &db_->store(), views, /*track_premises=*/false, &result->stats,
        [&](const std::vector<ValueId>& row,
            const std::vector<eval::FactKey>*) {
          if (cancelled_.load(std::memory_order_relaxed)) return false;
          if (buffer.Insert(row) && BudgetTripped()) return false;
          return true;
        });
    if (!result->status.ok()) {
      cancelled_.store(true, std::memory_order_release);
      return;
    }
    if (buffer.empty()) return;
    MergeBuffer(&head_st, head_st.delta.get(), buffer);
  }

  // One fixpoint worker task: evaluate rule `pass.rule` with occurrence
  // `pass.occ` restricted to its delta extent (one shard, or the whole delta
  // for driver-partitioned and single-task passes), buffer the new head rows
  // thread-locally, then merge into the global next shard-to-shard. For a
  // by_driver pass the task's slice is one (member, shard) of the driver
  // literal's extent instead — the union over tasks covers the driver's
  // extent exactly once, so nothing is re-enumerated.
  void RunTask(const std::vector<Pass>& passes, const TaskRef& ref,
               TaskResult* result) {
    result->rule = passes[ref.pass].rule;
    if (cancelled_.load(std::memory_order_acquire)) return;
    const Pass& pass = passes[ref.pass];
    const Relation* driver_rows = nullptr;
    if (pass.by_driver) {
      const auto& [member, shard] = pass.driver_parts[ref.part];
      driver_rows = shard >= 0 ? &member->shard(static_cast<size_t>(shard))
                               : member;
      if (driver_rows->empty()) return;
    }
    const Relation& occ_rows = pass.by_shard
                                   ? pass.delta_rel->shard(ref.part)
                                   : *pass.delta_rel;
    if (occ_rows.empty()) return;
    const CompiledRule& rule = rules_[pass.rule];

    std::vector<RelationView> views;
    views.reserve(rule.body().size());
    for (size_t k = 0; k < rule.body().size(); ++k) {
      if (driver_rows != nullptr && k == pass.driver_pos) {
        views.push_back(RelationView{const_cast<Relation*>(driver_rows),
                                     nullptr, /*shared=*/true});
      } else {
        views.push_back(ViewFor(pass, k, &occ_rows));
      }
    }

    PredState& head_st = *pass.head_state;
    Relation buffer(rule.head().args.size(),
                    head_st.next->storage_options());
    result->status = EnumerateRule(
        rule, &db_->store(), views, /*track_premises=*/false, &result->stats,
        [&](const std::vector<ValueId>& row,
            const std::vector<eval::FactKey>*) {
          if (cancelled_.load(std::memory_order_relaxed)) return false;
          if (head_st.full->Contains(row.data()) ||
              head_st.delta->Contains(row.data())) {
            return true;
          }
          if (buffer.Insert(row) && BudgetTripped()) return false;
          return true;
        });
    if (!result->status.ok()) {
      cancelled_.store(true, std::memory_order_release);
      return;
    }
    if (buffer.empty()) return;
    MergeBuffer(&head_st, head_st.next.get(), buffer);
  }

  // The observed extent a body occurrence of `pred` ranges over this round:
  // the current delta for IDB predicates (their estimates are delta-based),
  // the live relation size for base predicates.
  uint64_t CurrentExtent(const std::string& pred) const {
    if (IsIdb(pred)) return preds_.at(pred).delta->size();
    const Relation* rel = db_->Find(pred);
    return rel == nullptr ? 0 : rel->size();
  }

  // Re-routes an IDB relation's rows onto new partition columns (Absorb
  // re-hashes when layouts differ). Shard count is unchanged, so the
  // per-shard lock array stays valid; worker buffers copy next's storage
  // options per task, so shard-to-shard merges stay aligned.
  void Repartition(PredState* st, const std::vector<int>& cols) {
    StorageOptions storage = st->next->storage_options();
    if (storage.partition_cols == cols) return;
    storage.partition_cols = cols;
    for (std::unique_ptr<Relation>* rel :
         {&st->full, &st->delta, &st->next}) {
      auto fresh = std::make_unique<Relation>((*rel)->arity(), storage);
      fresh->Absorb(**rel);
      *rel = std::move(fresh);
    }
  }

  // Mid-fixpoint adaptivity (control thread, between parallel regions):
  // re-plan rules whose literal estimates drifted past the threshold against
  // the observed extents, recompile just those rules, refresh their probe
  // columns / driver position, and re-partition IDB extents whose first
  // recursive occurrence is now probed on different columns. Plans only
  // direct enumeration and partitioning, so the fact set is unchanged.
  void MaybeReplan() {
    if (opts_.eval.replan_threshold <= 0 ||
        opts_.eval.join_order != eval::JoinOrder::kPlanned) {
      return;
    }
    plan::PlanOptions popts;
    bool popts_ready = false;
    bool replanned = false;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const plan::JoinPlan& jp = plan_.rules[i];
      size_t relation_lits = 0;
      bool drifted = false;
      for (const plan::LiteralPlan& lp : jp.order) {
        if (!lp.is_relation) continue;
        ++relation_lits;
        const ast::Atom& lit = program_.rules()[i].body()[lp.body_index];
        if (eval::ExtentDrifted(lp.est_rows, CurrentExtent(lit.predicate()),
                                opts_.eval.replan_threshold)) {
          drifted = true;
        }
      }
      if (!drifted || relation_lits < 2) continue;
      if (!popts_ready) {
        for (const auto& [name, rel] : db_->relations()) {
          popts.extent_hints[name] = rel->size();
        }
        for (const auto& [name, st] : preds_) {
          popts.delta_preds.insert(name);
          popts.delta_hints[name] = static_cast<double>(st.delta->size());
          popts.extent_hints[name] = st.full->size() + st.delta->size();
        }
        popts_ready = true;
      }
      plan::JoinPlan fresh = plan::PlanRule(program_.rules()[i], popts);
      bool same_order = fresh.order.size() == jp.order.size();
      if (same_order) {
        for (size_t k = 0; k < fresh.order.size(); ++k) {
          if (fresh.order[k].body_index != jp.order[k].body_index) {
            same_order = false;
            break;
          }
        }
      }
      if (same_order) {
        plan_.rules[i] = std::move(fresh);  // refreshed estimates only
        continue;
      }
      // Flush observation counters under the old literal order, then swap in
      // the re-planned rule and its derived pass-planning state.
      eval::DrainProbeObservations(rules_[i], plan_.rules[i], &rule_stats_[i],
                                   &probe_obs_);
      Result<CompiledRule> cr =
          CompiledRule::Compile(program_.rules()[i], &db_->store(), &fresh);
      if (!cr.ok()) continue;  // keep the old plan; never fail the fixpoint
      plan_.rules[i] = std::move(fresh);
      rules_[i] = std::move(*cr);
      std::vector<std::vector<int>> cols;
      int driver = -1;
      for (size_t k = 0; k < plan_.rules[i].order.size(); ++k) {
        const plan::LiteralPlan& lp = plan_.rules[i].order[k];
        cols.push_back(lp.index_cols);
        if (driver < 0 && lp.is_relation) driver = static_cast<int>(k);
      }
      cols_[i] = std::move(cols);
      driver_pos_[i] = driver;
      ++result_.mutable_stats()->replans;
      replanned = true;
    }
    if (!replanned) return;
    // Shard routing follows the new plans: re-derive each IDB predicate's
    // partition columns exactly as Prepare did and re-route where changed.
    for (const std::string& p : idb_preds_) {
      std::vector<int> want;
      for (size_t i = 0; i < rules_.size() && want.empty(); ++i) {
        for (size_t j = 0; j < rules_[i].body().size(); ++j) {
          const CompiledAtom& lit = rules_[i].body()[j];
          if (lit.kind == LitKind::kRelation && lit.predicate == p &&
              !cols_[i][j].empty()) {
            want = cols_[i][j];
            break;
          }
        }
      }
      if (!want.empty()) Repartition(&preds_.at(p), want);
    }
  }

  Status RunFixpoint() {
    const size_t width = PoolWidth();
    while (true) {
      ++result_.mutable_stats()->iterations;
      if (result_.stats().iterations > opts_.eval.max_iterations) {
        return Status::ResourceExhausted("iteration budget exceeded");
      }
      bool any_delta = false;
      for (const auto& [name, st] : preds_) {
        if (!st.delta->empty()) {
          any_delta = true;
          break;
        }
      }
      if (!any_delta) break;

      // Feedback: record this round's frontier sizes, then re-plan drifted
      // rules before pass planning — the pass planner below reads cols_ /
      // driver_pos_ fresh each iteration, so a new driver takes effect (and
      // repartitioned extents follow) without any further wiring.
      for (const auto& [name, st] : preds_) {
        if (!st.delta->empty()) {
          delta_sum_[name] += st.delta->size();
          ++delta_rounds_[name];
        }
      }
      MaybeReplan();

      // Plan the passes. Partitioning follows each rule's join plan: when
      // the occurrence is the plan's driver literal the delta shards are the
      // work partitions (no per-iteration re-partition copy); when the
      // driver is an earlier literal the pass fans out over the driver's
      // frozen extent instead, so the rule prefix is scanned exactly once
      // across the tasks. Small extents collapse to one task.
      std::vector<Pass> passes;
      for (size_t i = 0; i < rules_.size(); ++i) {
        const CompiledRule& rule = rules_[i];
        for (size_t j = 0; j < rule.body().size(); ++j) {
          const CompiledAtom& lit = rule.body()[j];
          if (lit.kind != LitKind::kRelation || !IsIdb(lit.predicate)) {
            continue;
          }
          Relation* delta = preds_.at(lit.predicate).delta.get();
          if (delta->empty()) continue;

          Pass pass;
          pass.rule = i;
          pass.occ = j;
          pass.delta_rel = delta;
          const std::vector<int>& probe_cols = cols_[i][j];
          const int driver = driver_pos_[i];
          if (width > 0 && driver >= 0 && static_cast<size_t>(driver) != j &&
              opts_.eval.join_order == eval::JoinOrder::kPlanned) {
            // The delta occurrence sits behind the driver. Partition the
            // driver's extent: one task per (member, shard); each task
            // probes the whole delta.
            pass.driver_pos = static_cast<size_t>(driver);
            RelationView dview =
                ViewFor(pass, pass.driver_pos, /*occ_rows=*/nullptr);
            Relation* members[2] = {dview.first, dview.second};
            size_t total = 0;
            for (Relation* m : members) {
              if (m != nullptr) total += m->size();
            }
            if (total >= opts_.min_rows_to_partition) {
              const std::vector<int>& dcols = cols_[i][pass.driver_pos];
              for (Relation* m : members) {
                if (m == nullptr || m->empty()) continue;
                if (m->shard_count() > 1) {
                  if (!dcols.empty()) m->EnsureShardIndexes(dcols);
                  for (size_t s = 0; s < m->shard_count(); ++s) {
                    pass.driver_parts.emplace_back(m, static_cast<int>(s));
                  }
                } else {
                  if (!dcols.empty()) m->EnsureIndex(dcols);
                  pass.driver_parts.emplace_back(m, -1);
                }
              }
              pass.by_driver = pass.driver_parts.size() > 1;
            }
          }
          if (!pass.by_driver) {
            pass.by_shard = width > 0 && delta->shard_count() > 1 &&
                            delta->size() >= opts_.min_rows_to_partition;
          }
          if (!probe_cols.empty()) {
            // Index the occurrence's extent on the key the join probes it
            // with: inside each shard, or combined when the whole delta is
            // probed (driver-partitioned and single-task passes).
            if (pass.by_shard) {
              delta->EnsureShardIndexes(probe_cols);
            } else {
              delta->EnsureIndex(probe_cols);
            }
          }
          pass.head_state = &preds_.at(rule.head().predicate);
          passes.push_back(std::move(pass));
        }
      }

      // Pre-build every combined index a worker could probe on the frozen
      // relations; inside the parallel region only the const read path runs.
      for (const Pass& pass : passes) {
        const CompiledRule& rule = rules_[pass.rule];
        for (size_t k = 0; k < rule.body().size(); ++k) {
          if (k == pass.occ) continue;  // the occurrence was indexed above
          if (pass.by_driver && k == pass.driver_pos) continue;  // per shard
          const std::vector<int>& cols = cols_[pass.rule][k];
          if (cols.empty()) continue;
          RelationView view = ViewFor(pass, k, nullptr);
          if (view.first != nullptr) view.first->EnsureIndex(cols);
          if (view.second != nullptr) view.second->EnsureIndex(cols);
        }
      }

      std::vector<TaskRef> tasks;
      for (size_t p = 0; p < passes.size(); ++p) {
        size_t parts = passes[p].by_driver ? passes[p].driver_parts.size()
                       : passes[p].by_shard
                           ? passes[p].delta_rel->shard_count()
                           : 1;
        for (size_t part = 0; part < parts; ++part) {
          tasks.push_back(TaskRef{p, part});
        }
      }
      std::vector<TaskResult> results(tasks.size());
      iteration_base_ = TotalIdbFacts();
      new_rows_.store(0, std::memory_order_relaxed);

      auto body = [&](size_t t) { RunTask(passes, tasks[t], &results[t]); };
      if (pool_ != nullptr) {
        pool_->ParallelFor(tasks.size(), body);
      } else {
        for (size_t t = 0; t < tasks.size(); ++t) body(t);
      }
      FACTLOG_RETURN_IF_ERROR(DrainTaskResults(&results));

      // Merge: sync the shard-merged next relations, then full += delta;
      // delta = next; next = the old delta, cleared (its shards keep their
      // dedup capacity for next round's merges).
      for (auto& [name, st] : preds_) {
        st.next->SyncShards();
        st.full->Absorb(*st.delta);
        std::swap(st.delta, st.next);
        st.next->Clear();
      }
      if (TotalIdbFacts() > opts_.eval.max_facts) return BudgetExceeded();
    }
    return Status::OK();
  }

  Result<EvalResult> Finish() {
    uint64_t total = 0;
    eval::EvalStats* stats = result_.mutable_stats();
    for (size_t i = 0; i < rules_.size(); ++i) {
      eval::DrainProbeObservations(rules_[i], plan_.rules[i], &rule_stats_[i],
                                   &probe_obs_);
    }
    stats->probe_observations = std::move(probe_obs_);
    for (const auto& [name, sum] : delta_sum_) {
      stats->observed_delta_mean[name] =
          static_cast<double>(sum) / static_cast<double>(delta_rounds_[name]);
    }
    for (auto& [name, st] : preds_) {
      total += st.full->size();
      stats->observed_extents[name] = st.full->size();
      eval::AccumulateShardFacts(*st.full, &stats->shard_facts);
      result_.mutable_idb()->emplace(name, std::move(st.full));
    }
    stats->total_facts = total;
    eval::FoldRuleStats(rule_stats_, stats);
    return std::move(result_);
  }

  const ast::Program& program_;
  Database* db_;
  ThreadPool* pool_;
  ParallelEvalOptions opts_;

  std::set<std::string> idb_preds_;
  std::map<std::string, PredState> preds_;
  plan::ProgramPlan plan_;
  std::vector<CompiledRule> rules_;
  // Per-rule, per-compiled-literal probe columns and driver position, both
  // read straight off the join plan (the compiled body is in plan order).
  std::vector<std::vector<std::vector<int>>> cols_;
  std::vector<int> driver_pos_;
  std::vector<JoinStats> rule_stats_;
  // Planner feedback accumulators (drained into EvalStats at Finish).
  std::map<std::string, uint64_t> delta_sum_;
  std::map<std::string, uint64_t> delta_rounds_;
  std::vector<plan::ProbeObservation> probe_obs_;
  EvalResult result_;

  std::atomic<bool> cancelled_{false};
  std::atomic<bool> budget_tripped_{false};
  std::atomic<uint64_t> new_rows_{0};
  uint64_t iteration_base_ = 0;
  uint64_t budget_trip_ = 0;
};

}  // namespace

void MergeBufferLocked(eval::Relation* target, const eval::Relation& buffer,
                       std::mutex* locks) {
  for (size_t s = 0; s < buffer.shard_count(); ++s) {
    const eval::Relation& rows = buffer.shard(s);
    if (rows.empty()) continue;
    std::lock_guard<std::mutex> lock(locks[s]);
    target->MergeShard(s, rows);
  }
}

Result<EvalResult> EvaluateParallel(const ast::Program& program, Database* db,
                                    ThreadPool* pool,
                                    const ParallelEvalOptions& opts) {
  ParallelEngine engine(program, db, pool, opts);
  return engine.Run();
}

Result<eval::AnswerSet> EvaluateQueryParallel(const ast::Program& program,
                                              const ast::Atom& query,
                                              Database* db, ThreadPool* pool,
                                              const ParallelEvalOptions& opts,
                                              eval::EvalStats* stats_out) {
  FACTLOG_ASSIGN_OR_RETURN(EvalResult result,
                           EvaluateParallel(program, db, pool, opts));
  if (stats_out != nullptr) *stats_out = result.stats();
  return eval::ExtractAnswers(query, &result, db);
}

}  // namespace factlog::exec
