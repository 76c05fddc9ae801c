#include "exec/parallel_seminaive.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
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
using eval::FactKey;
using eval::JoinStats;
using eval::LitKind;
using eval::Relation;
using eval::RelationView;
using eval::StorageOptions;
using eval::ValueId;

// Merges a worker's thread-local `buffer` (sharded exactly like `target`)
// into `target` shard-to-shard, taking only `locks[s]` around each
// Relation::MergeShard(s, ...). Workers merging different shards proceed
// concurrently; the caller must SyncShards() on `target` from a single thread
// before reading it.
void MergeBufferLocked(Relation* target, const Relation& buffer,
                       std::mutex* locks) {
  for (size_t s = 0; s < buffer.shard_count(); ++s) {
    const Relation& rows = buffer.shard(s);
    if (rows.empty()) continue;
    std::lock_guard<std::mutex> lock(locks[s]);
    target->MergeShard(s, rows);
  }
}

class SemiNaiveEngine {
 public:
  // Null `seeds` runs from scratch (EvaluateParallel), else EvaluateSeeded.
  SemiNaiveEngine(const ast::Program& program, Database* db, ThreadPool* pool,
                  const ParallelEvalOptions& opts,
                  const std::map<std::string, SeedExtent>* seeds,
                  const DerivationCallback* on_derivation)
      : program_(program),
        db_(db),
        pool_(pool),
        opts_(opts),
        inline_(pool == nullptr || pool->num_threads() == 0),
        seeds_(seeds),
        on_derivation_(on_derivation),
        inline_sink_([this](const std::vector<ValueId>& row,
                            const std::vector<FactKey>* premises) {
          return InsertInline(row, premises);
        }) {}

  Result<EvalResult> Run() {
    if (on_derivation_ != nullptr && !inline_) {
      return Status::Invalid(
          "a derivation callback needs an inline run; evaluate without a "
          "pool");
    }
    FACTLOG_RETURN_IF_ERROR(Prepare());
    if (seeds_ == nullptr) FACTLOG_RETURN_IF_ERROR(SeedBaseRules());
    FACTLOG_RETURN_IF_ERROR(RunFixpoint());
    return Finish();
  }

 private:
  struct PredState {
    std::unique_ptr<Relation> full;
    std::unique_ptr<Relation> delta;
    std::unique_ptr<Relation> next;
    // Seeded runs: the caller's stored extent (read-only, may be null), and
    // whether the predicate is seeded input no rule defines.
    Relation* stored = nullptr;
    bool input = false;
    // One lock per storage shard (pooled runs only): workers merging
    // different shards of the same head predicate never contend.
    std::unique_ptr<std::mutex[]> shard_locks;
    // Planner feedback: summed non-empty delta sizes and their round count.
    uint64_t delta_sum = 0;
    uint64_t delta_rounds = 0;
  };

  // Where one compiled body literal's extent lives, resolved once per
  // (re)compile so the per-round loops never look predicates up by name:
  // an IDB (or seeded) predicate's state, or a base relation (null when the
  // database has none, or for builtin literals).
  struct Extent {
    PredState* idb = nullptr;
    Relation* base = nullptr;
  };

  // One (rule, recursive-occurrence) delta pass of a pooled iteration.
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

  // Where the inline sink writes; set before each inline EnumerateRule.
  struct InlineTarget {
    size_t rule = 0;
    PredState* head = nullptr;
    Relation* rel = nullptr;    // the head's delta (seed) or next (fixpoint)
    bool check_known = false;   // skip rows already in the head's full/delta
  };

  Status Prepare() {
    FACTLOG_RETURN_IF_ERROR(program_.Validate());
    plan_ = eval::PlanForEvaluation(program_, *db_, opts_.eval);
    const size_t n = program_.rules().size();
    rules_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      FACTLOG_ASSIGN_OR_RETURN(
          CompiledRule cr,
          CompiledRule::Compile(program_.rules()[i], &db_->store(),
                                &plan_.rules[i]));
      rules_.push_back(std::move(cr));
    }
    rule_stats_.resize(n);

    // Shards only partition pooled work, so an inline run keeps its IDB
    // relations flat: no shard routing per insert, no location table per
    // row() and no shard sync per round.
    size_t shards = opts_.num_shards > 0 ? opts_.num_shards
                                         : db_->storage_options().num_shards;
    shards = inline_ ? 1 : std::max<size_t>(1, shards);
    const auto arities = program_.PredicateArities();
    auto add = [&](const std::string& p, bool input) {
      StorageOptions storage;
      storage.num_shards = shards;
      storage.partition_cols = PartitionCols(p);
      size_t arity = arities.at(p);
      PredState st;
      st.full = std::make_unique<Relation>(arity, storage);
      st.delta = std::make_unique<Relation>(arity, storage);
      st.next = std::make_unique<Relation>(arity, storage);
      st.input = input;
      if (!inline_) {
        st.shard_locks =
            std::make_unique<std::mutex[]>(st.next->shard_count());
      }
      return &preds_.emplace(p, std::move(st)).first->second;
    };
    for (const std::string& p : program_.IdbPredicates()) add(p, false);
    if (seeds_ != nullptr) {
      // Seeded predicates the program never mentions cannot matter.
      for (const auto& [p, seed] : *seeds_) {
        if (arities.count(p) == 0) continue;
        auto it = preds_.find(p);
        PredState* st =
            it != preds_.end() ? &it->second : add(p, /*input=*/true);
        st->stored = seed.stored;
        if (seed.delta != nullptr) st->delta->Absorb(*seed.delta);
      }
    }
    extents_.resize(n);
    heads_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      ResolveExtents(i);
      heads_.push_back(&preds_.at(rules_[i].head().predicate));
    }
    // Saturating 2x slack over the fact budget: cross-task duplicates make
    // the in-flight counter an overestimate, so the hard mid-iteration trip
    // wire sits above the exact post-iteration check.
    uint64_t max = opts_.eval.max_facts;
    budget_trip_ = max > (UINT64_MAX - 1024) / 2 ? UINT64_MAX : 2 * max + 1024;
    return Status::OK();
  }

  // The key compiled literal k of rule i is probed with. The compiled body
  // is in plan order, so the plan's declared index requirements line up
  // with the compiled literals — no re-walk of StaticIndexCols.
  const std::vector<int>& Cols(size_t i, size_t k) const {
    return plan_.rules[i].order[k].index_cols;
  }

  // Rule i's driver: the compiled position of its plan's first relation
  // literal, or -1 when it has none.
  int DriverPos(size_t i) const {
    const std::vector<plan::LiteralPlan>& order = plan_.rules[i].order;
    for (size_t k = 0; k < order.size(); ++k) {
      if (order[k].is_relation) return static_cast<int>(k);
    }
    return -1;
  }

  // The columns IDB predicate `p` is partitioned on: the plan's probe
  // columns of its first occurrence probed with any, so delta shards line up
  // with the key the join probes them with; empty (column 0) when every
  // occurrence is probed unbound.
  std::vector<int> PartitionCols(const std::string& p) const {
    for (size_t i = 0; i < rules_.size(); ++i) {
      for (size_t j = 0; j < rules_[i].body().size(); ++j) {
        const CompiledAtom& lit = rules_[i].body()[j];
        if (lit.kind == LitKind::kRelation && lit.predicate == p &&
            !Cols(i, j).empty()) {
          return Cols(i, j);
        }
      }
    }
    return {};
  }

  // Resolves rule i's compiled body literals to their extents: the engine's
  // full/delta/next for the program's IDB predicates (and, in a seeded run,
  // the seeded ones), else the database's relation. Runs once per rule in
  // Prepare and again whenever MaybeReplan recompiles the rule.
  void ResolveExtents(size_t i) {
    const std::vector<CompiledAtom>& body = rules_[i].body();
    std::vector<Extent>& out = extents_[i];
    out.assign(body.size(), Extent{});
    for (size_t k = 0; k < body.size(); ++k) {
      if (body[k].kind != LitKind::kRelation) continue;
      auto it = preds_.find(body[k].predicate);
      if (it != preds_.end()) {
        out[k].idb = &it->second;
      } else {
        out[k].base = db_->Find(body[k].predicate);
      }
    }
  }

  // True when rule i runs a delta pass this round: one of its IDB body
  // literals has a non-empty delta.
  bool RuleActive(size_t i) const {
    for (const Extent& e : extents_[i]) {
      if (e.idb != nullptr && !e.idb->delta->empty()) return true;
    }
    return false;
  }

  // The facts counted against max_facts: everything derived so far (seeded
  // input is not derived).
  uint64_t TotalIdbFacts() const {
    uint64_t n = 0;
    for (const auto& [name, st] : preds_) {
      if (st.input) continue;
      n += st.full->size() + st.delta->size() + st.next->size();
    }
    return n;
  }

  // True when `row` is already known for `st`: stored, derived, or in this
  // round's delta.
  static bool Known(const PredState& st, const ValueId* row) {
    return st.full->Contains(row) || st.delta->Contains(row) ||
           (st.stored != nullptr && st.stored->Contains(row));
  }

  // The extent body literal k of rule `rule` ranges over in the pass whose
  // delta occurrence is `occ`, with `occ_rows` (the delta or one of its
  // shards) standing in for that occurrence. Literals before the occurrence
  // see this round's F_i (full union delta), literals after it F_{i-1}
  // (full); both union in a seeded predicate's stored extent. Pooled runs
  // share every view read-only: workers never mutate relations during the
  // parallel region and probe pre-built indices.
  // Inline runs let the join build IDB indices lazily (Relation::Lookup) and
  // share base relations only under shared_edb.
  RelationView ViewFor(size_t rule, size_t occ, size_t k,
                       const Relation* occ_rows) {
    if (rules_[rule].body()[k].kind != LitKind::kRelation) {
      return RelationView{};
    }
    const Extent& e = extents_[rule][k];
    if (e.idb == nullptr) {
      return RelationView{e.base, nullptr, !inline_ || opts_.eval.shared_edb};
    }
    PredState& st = *e.idb;
    const bool shared = !inline_;
    if (k == occ) {
      // Pooled tasks pass a delta shard, reachable only as const; the view
      // is shared, so the join never mutates it. Inline, occ_rows is the
      // engine's own delta, which the join may index lazily.
      return RelationView{const_cast<Relation*>(occ_rows), nullptr, shared};
    }
    if (k < occ) {
      return RelationView{st.full.get(), st.delta.get(), shared, st.stored};
    }
    return RelationView{st.full.get(), nullptr, shared, st.stored};
  }

  // The inline head sink: reports the instantiation to the derivation
  // callback, inserts straight into the target relation unless the row is
  // already known, and enforces the exact fact budget.
  bool InsertInline(const std::vector<ValueId>& row,
                    const std::vector<FactKey>* premises) {
    const InlineTarget& t = target_;
    if (on_derivation_ != nullptr) (*on_derivation_)(t.rule, row, *premises);
    if (t.check_known && Known(*t.head, row.data())) return true;
    if (!t.rel->Insert(row)) return true;
    if (++idb_facts_ > opts_.eval.max_facts) {
      sink_status_ = BudgetExceeded();
      return false;
    }
    return true;
  }

  // Enumerates rule `rule` over `views` on the calling thread through the
  // inline sink.
  Status EnumerateInline(size_t rule, const std::vector<RelationView>& views,
                         Relation* target, bool check_known) {
    target_ = InlineTarget{rule, heads_[rule], target, check_known};
    FACTLOG_RETURN_IF_ERROR(EnumerateRule(rules_[rule], &db_->store(), views,
                                          on_derivation_ != nullptr,
                                          &rule_stats_[rule], inline_sink_));
    return sink_status_;
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
      rule_stats_[r.rule].Add(r.stats);
    }
    if (budget_tripped_.load(std::memory_order_acquire)) {
      return BudgetExceeded();
    }
    cancelled_.store(false, std::memory_order_release);
    return Status::OK();
  }

  // Iteration 0: rules without IDB body literals seed the deltas. On a pool,
  // the first relation literal's extent is partitioned by its storage shards
  // and the tasks fan out; rules whose extent is small or unsharded, and
  // every rule of an inline run, seed on the calling thread.
  Status SeedBaseRules() {
    std::vector<SeedTask> tasks;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const CompiledRule& rule = rules_[i];
      bool has_idb = false;
      int first_rel = -1;
      for (size_t k = 0; k < rule.body().size(); ++k) {
        if (rule.body()[k].kind != LitKind::kRelation) continue;
        if (first_rel < 0) first_rel = static_cast<int>(k);
        if (extents_[i][k].idb != nullptr) {
          has_idb = true;
          break;
        }
      }
      if (has_idb) continue;

      const Relation* extent =
          first_rel >= 0 ? extents_[i][first_rel].base : nullptr;
      bool fan_out = !inline_ && extent != nullptr &&
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
          const std::vector<int>& cols = Cols(i, k);
          Relation* rel = extents_[i][k].base;
          if (rel == nullptr || cols.empty()) continue;
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
    single_task_ = tasks.size() == 1;
    pool_->ParallelFor(tasks.size(), [&](size_t t) {
      RunSeedTask(tasks[t], &results[t]);
    });
    FACTLOG_RETURN_IF_ERROR(DrainTaskResults(&results));
    for (auto& [name, st] : preds_) st.delta->SyncShards();
    if (TotalIdbFacts() > opts_.eval.max_facts) return BudgetExceeded();
    return Status::OK();
  }

  // The calling-thread seed path (exact budget accounting, lazy indices).
  Status SeedRuleInline(size_t rule_index) {
    const CompiledRule& rule = rules_[rule_index];
    views_.clear();
    for (size_t k = 0; k < rule.body().size(); ++k) {
      if (rule.body()[k].kind != LitKind::kRelation) {
        views_.push_back(RelationView{});
      } else {
        views_.push_back(RelationView{extents_[rule_index][k].base, nullptr,
                                      opts_.eval.shared_edb});
      }
    }
    return EnumerateInline(rule_index, views_, heads_[rule_index]->delta.get(),
                           /*check_known=*/false);
  }

  // One seed worker task: evaluate rule `task.rule` with literal `task.lit`
  // restricted to shard `task.shard` of its base relation, buffer the head
  // rows thread-locally, then merge into the head's delta shard-to-shard.
  void RunSeedTask(const SeedTask& task, TaskResult* result) {
    result->rule = task.rule;
    if (cancelled_.load(std::memory_order_acquire)) return;
    const CompiledRule& rule = rules_[task.rule];
    const std::vector<Extent>& extents = extents_[task.rule];
    const Relation& shard_rows = extents[task.lit].base->shard(task.shard);
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
        views.push_back(
            RelationView{extents[k].base, nullptr, /*shared=*/true});
      }
    }

    PredState* head = heads_[task.rule];
    EnumerateBuffered(task.rule, views, head, head->delta.get(),
                      /*check_known=*/false, result);
  }

  // The worker side of a pooled task: enumerates rule `rule` over `views`
  // into a thread-local buffer sharded like `target` (skipping rows already
  // known for the head when `check_known`), then merges the buffer into
  // `target` shard-to-shard under the head's shard locks. A task that runs
  // alone (ParallelFor runs it on the calling thread) has `target` to itself
  // and inserts into it directly.
  void EnumerateBuffered(size_t rule, const std::vector<RelationView>& views,
                         PredState* head, Relation* target, bool check_known,
                         TaskResult* result) {
    std::optional<Relation> local;
    if (!single_task_) {
      local.emplace(target->arity(), target->storage_options());
    }
    Relation& buffer = local.has_value() ? *local : *target;
    result->status = EnumerateRule(
        rules_[rule], &db_->store(), views, /*track_premises=*/false,
        &result->stats,
        [&](const std::vector<ValueId>& row, const std::vector<FactKey>*) {
          if (cancelled_.load(std::memory_order_relaxed)) return false;
          if (check_known && Known(*head, row.data())) return true;
          if (buffer.Insert(row) && BudgetTripped()) return false;
          return true;
        });
    if (!result->status.ok()) {
      cancelled_.store(true, std::memory_order_release);
      return;
    }
    if (!local.has_value() || buffer.empty()) return;
    MergeBufferLocked(target, buffer, head->shard_locks.get());
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
        views.push_back(ViewFor(pass.rule, pass.occ, k, &occ_rows));
      }
    }

    EnumerateBuffered(pass.rule, views, pass.head_state,
                      pass.head_state->next.get(), /*check_known=*/true,
                      result);
  }

  // The observed extent a body occurrence ranges over this round: the
  // current delta for IDB predicates (their estimates are delta-based), the
  // live relation size for base predicates.
  static uint64_t CurrentExtent(const Extent& e) {
    if (e.idb != nullptr) return e.idb->delta->size();
    return e.base == nullptr ? 0 : e.base->size();
  }

  // Re-routes an IDB relation's rows onto new partition columns (Absorb
  // re-hashes when layouts differ). Partition columns only steer how pooled
  // passes split work, so single-shard relations (every inline run's) skip
  // the copy. Shard count is unchanged, so the per-shard lock array stays
  // valid; worker buffers copy next's storage options per task, so
  // shard-to-shard merges stay aligned.
  void Repartition(PredState* st, const std::vector<int>& cols) {
    if (st->next->shard_count() == 1) return;
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

  // Mid-fixpoint adaptivity: re-plan rules whose literal estimates drifted
  // past EvalOptions::replan_threshold against the observed extents,
  // recompile just those rules, and re-partition IDB extents whose first
  // recursive occurrence is now probed on different columns. Plans only
  // direct enumeration and partitioning, so the fact set is unchanged. A
  // re-plan that keeps the order still refreshes est_rows, which re-arms the
  // drift check instead of tripping it every round. Only rules that run a
  // delta pass this round are checked: an idle rule's deltas read 0 and
  // would trip the check, so it keeps its plan and estimates until its next
  // active round.
  void MaybeReplan() {
    if (opts_.eval.replan_threshold <= 0 ||
        opts_.eval.join_order != eval::JoinOrder::kPlanned) {
      return;
    }
    plan::PlanOptions popts;
    bool popts_ready = false;
    bool replanned = false;
    for (size_t i = 0; i < rules_.size(); ++i) {
      if (!RuleActive(i)) continue;
      const plan::JoinPlan& jp = plan_.rules[i];
      size_t relation_lits = 0;
      bool drifted = false;
      // The compiled body is in plan order, so extents_[i][k] is the extent
      // of jp.order[k].
      for (size_t k = 0; k < jp.order.size(); ++k) {
        if (!jp.order[k].is_relation) continue;
        ++relation_lits;
        if (eval::ExtentDrifted(jp.order[k].est_rows,
                                CurrentExtent(extents_[i][k]),
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
          popts.extent_hints[name] =
              st.full->size() + st.delta->size() +
              (st.stored != nullptr ? st.stored->size() : 0);
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
      // the re-planned rule.
      eval::DrainProbeObservations(rules_[i], plan_.rules[i], &rule_stats_[i],
                                   &probe_obs_);
      Result<CompiledRule> cr =
          CompiledRule::Compile(program_.rules()[i], &db_->store(), &fresh);
      if (!cr.ok()) continue;  // keep the old plan; never fail the fixpoint
      plan_.rules[i] = std::move(fresh);
      rules_[i] = std::move(*cr);
      ResolveExtents(i);
      ++result_.mutable_stats()->replans;
      replanned = true;
    }
    if (!replanned) return;
    // Shard routing follows the new plans.
    for (auto& [name, st] : preds_) {
      std::vector<int> want = PartitionCols(name);
      if (!want.empty()) Repartition(&st, want);
    }
  }

  Status RunFixpoint() {
    while (true) {
      ++result_.mutable_stats()->iterations;
      if (result_.stats().iterations > opts_.eval.max_iterations) {
        return Status::ResourceExhausted("iteration budget exceeded");
      }
      // Feedback: record this round's frontier sizes, then re-plan drifted
      // rules before enumerating — passes read the plan fresh each
      // iteration, so a new plan takes effect without further wiring.
      bool any_delta = false;
      for (auto& [name, st] : preds_) {
        if (st.delta->empty()) continue;
        any_delta = true;
        st.delta_sum += st.delta->size();
        ++st.delta_rounds;
      }
      if (!any_delta) break;
      MaybeReplan();

      FACTLOG_RETURN_IF_ERROR(inline_ ? RunIterationInline()
                                      : RunIterationPooled());

      // Merge: sync the shard-merged next relations, then full += delta;
      // delta = next; next = the old delta, cleared (Clear keeps the dedup
      // capacity, so next round's inserts and merges do not regrow it).
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

  // One iteration on the calling thread: one pass per (rule, IDB occurrence
  // with a non-empty delta), inserting new facts straight into next.
  Status RunIterationInline() {
    for (size_t i = 0; i < rules_.size(); ++i) {
      const std::vector<Extent>& extents = extents_[i];
      for (size_t j = 0; j < extents.size(); ++j) {
        if (extents[j].idb == nullptr) continue;
        const Relation* delta = extents[j].idb->delta.get();
        if (delta->empty()) continue;
        ++result_.mutable_stats()->delta_passes;
        views_.clear();
        for (size_t k = 0; k < extents.size(); ++k) {
          views_.push_back(ViewFor(i, j, k, delta));
        }
        FACTLOG_RETURN_IF_ERROR(EnumerateInline(
            i, views_, heads_[i]->next.get(), /*check_known=*/true));
      }
    }
    return Status::OK();
  }

  // One iteration on the pool. Partitioning follows each rule's join plan:
  // when the occurrence is the plan's driver literal the delta shards are
  // the work partitions (no per-iteration re-partition copy); when the
  // driver is an earlier literal the pass fans out over the driver's frozen
  // extent instead, so the rule prefix is scanned exactly once across the
  // tasks. Small extents collapse to one task. Base relations shared under
  // shared_edb are never indexed here: workers probe the indices the caller
  // pre-built (plan::BaseIndexNeeds) and scan otherwise.
  Status RunIterationPooled() {
    const bool shared_edb = opts_.eval.shared_edb;
    std::vector<Pass> passes;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const std::vector<Extent>& extents = extents_[i];
      for (size_t j = 0; j < extents.size(); ++j) {
        if (extents[j].idb == nullptr) continue;
        Relation* delta = extents[j].idb->delta.get();
        if (delta->empty()) continue;

        Pass pass;
        pass.rule = i;
        pass.occ = j;
        pass.delta_rel = delta;
        const std::vector<int>& probe_cols = Cols(i, j);
        const int driver = DriverPos(i);
        if (driver >= 0 && static_cast<size_t>(driver) != j &&
            opts_.eval.join_order == eval::JoinOrder::kPlanned) {
          // The delta occurrence sits behind the driver. Partition the
          // driver's extent: one task per (member, shard); each task probes
          // the whole delta.
          pass.driver_pos = static_cast<size_t>(driver);
          RelationView dview = ViewFor(i, j, pass.driver_pos, nullptr);
          const bool index_driver =
              !shared_edb || extents[pass.driver_pos].idb != nullptr;
          Relation* members[3] = {dview.first, dview.second, dview.third};
          size_t total = 0;
          for (Relation* m : members) {
            if (m != nullptr) total += m->size();
          }
          if (total >= opts_.min_rows_to_partition) {
            const std::vector<int>& dcols = Cols(i, pass.driver_pos);
            const bool index = index_driver && !dcols.empty();
            for (Relation* m : members) {
              if (m == nullptr || m->empty()) continue;
              if (m->shard_count() > 1) {
                if (index) m->EnsureShardIndexes(dcols);
                for (size_t s = 0; s < m->shard_count(); ++s) {
                  pass.driver_parts.emplace_back(m, static_cast<int>(s));
                }
              } else {
                if (index) m->EnsureIndex(dcols);
                pass.driver_parts.emplace_back(m, -1);
              }
            }
            pass.by_driver = pass.driver_parts.size() > 1;
          }
        }
        if (!pass.by_driver) {
          pass.by_shard = delta->shard_count() > 1 &&
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
        pass.head_state = heads_[i];
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
        const std::vector<int>& cols = Cols(pass.rule, k);
        if (cols.empty()) continue;
        if (shared_edb && extents_[pass.rule][k].idb == nullptr) continue;
        RelationView view = ViewFor(pass.rule, pass.occ, k, nullptr);
        for (Relation* r : {view.first, view.second, view.third}) {
          if (r != nullptr) r->EnsureIndex(cols);
        }
      }
    }

    result_.mutable_stats()->delta_passes += passes.size();
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
    single_task_ = tasks.size() == 1;
    pool_->ParallelFor(tasks.size(), [&](size_t t) {
      RunTask(passes, tasks[t], &results[t]);
    });
    return DrainTaskResults(&results);
  }

  Result<EvalResult> Finish() {
    uint64_t total = 0;
    eval::EvalStats* stats = result_.mutable_stats();
    for (size_t i = 0; i < rules_.size(); ++i) {
      eval::DrainProbeObservations(rules_[i], plan_.rules[i], &rule_stats_[i],
                                   &probe_obs_);
    }
    stats->probe_observations = std::move(probe_obs_);
    for (auto& [name, st] : preds_) {
      if (st.input) continue;
      if (st.delta_rounds > 0) {
        stats->observed_delta_mean[name] =
            static_cast<double>(st.delta_sum) /
            static_cast<double>(st.delta_rounds);
      }
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
  // No pool (or a width-0 one): every pass runs on the calling thread and
  // inserts straight into next.
  const bool inline_;
  const std::map<std::string, SeedExtent>* seeds_;
  const DerivationCallback* on_derivation_;

  std::map<std::string, PredState> preds_;
  plan::ProgramPlan plan_;
  std::vector<CompiledRule> rules_;
  // Per rule: each compiled body literal's extent, and the head's state.
  std::vector<std::vector<Extent>> extents_;
  std::vector<PredState*> heads_;
  std::vector<JoinStats> rule_stats_;
  std::vector<plan::ProbeObservation> probe_obs_;  // drained at Finish
  EvalResult result_;

  // Inline state: the sink (built once, so no per-pass std::function
  // allocation), its target, its abort status, the exact IDB fact count
  // (only inline inserts add facts in an inline run), and a reused view
  // buffer.
  eval::HeadSink inline_sink_;
  InlineTarget target_;
  Status sink_status_ = Status::OK();
  uint64_t idb_facts_ = 0;
  std::vector<RelationView> views_;

  // Pooled state: cancellation, the budget trip wire, and in-flight counts.
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> budget_tripped_{false};
  std::atomic<uint64_t> new_rows_{0};
  uint64_t iteration_base_ = 0;
  uint64_t budget_trip_ = 0;
  bool single_task_ = false;  // this batch is one task, run by the caller
};

}  // namespace

Result<EvalResult> EvaluateParallel(const ast::Program& program, Database* db,
                                    ThreadPool* pool,
                                    const ParallelEvalOptions& opts,
                                    const DerivationCallback& on_derivation) {
  if (opts.eval.strategy == eval::Strategy::kNaive) {
    if (on_derivation) {
      return Status::Invalid(
          "a derivation callback needs the semi-naive strategy");
    }
    return eval::Evaluate(program, db, opts.eval);
  }
  SemiNaiveEngine engine(program, db, pool, opts, nullptr,
                         on_derivation ? &on_derivation : nullptr);
  return engine.Run();
}

Result<EvalResult> EvaluateSeeded(
    const ast::Program& program, Database* db, ThreadPool* pool,
    const ParallelEvalOptions& opts,
    const std::map<std::string, SeedExtent>& seeds,
    const DerivationCallback& on_derivation) {
  SemiNaiveEngine engine(program, db, pool, opts, &seeds,
                         on_derivation ? &on_derivation : nullptr);
  return engine.Run();
}

}  // namespace factlog::exec
