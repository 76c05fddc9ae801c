#include "inc/incremental.h"

#include <algorithm>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "analysis/dependency_graph.h"
#include "exec/parallel_seminaive.h"

namespace factlog::inc {

namespace {

using eval::CompiledAtom;
using eval::CompiledRule;
using eval::LitKind;
using eval::Relation;
using eval::RelationView;
using eval::DerivationEdgeStore;
using eval::FactKey;
using eval::ValueId;

Status PoisonedError() {
  return Status::FailedPrecondition(
      "materialized view poisoned by an earlier failed propagation; drop "
      "and re-materialize");
}

}  // namespace

ViewUpdateStats ViewUpdateStats::Since(const ViewUpdateStats& before) const {
  ViewUpdateStats d;
  d.inserts_applied = inserts_applied - before.inserts_applied;
  d.deletes_applied = deletes_applied - before.deletes_applied;
  d.idb_inserted = idb_inserted - before.idb_inserted;
  d.idb_deleted = idb_deleted - before.idb_deleted;
  d.support_updates = support_updates - before.support_updates;
  d.overdeleted = overdeleted - before.overdeleted;
  d.rederived = rederived - before.rederived;
  d.delta_passes = delta_passes - before.delta_passes;
  d.cone_input = cone_input - before.cone_input;
  d.cone_pruned = cone_pruned - before.cone_pruned;
  d.edges_added = edges_added - before.edges_added;
  d.edges_removed = edges_removed - before.edges_removed;
  return d;
}

// ---------------------------------------------------------------- building --

Result<std::unique_ptr<MaterializedView>> MaterializedView::Build(
    const ast::Program& program, eval::Database* db,
    const IncrementalOptions& opts) {
  return Make(program, db, opts, nullptr);
}

Result<std::unique_ptr<MaterializedView>> MaterializedView::Restore(
    const ast::Program& program, eval::Database* db,
    const IncrementalOptions& opts,
    const std::vector<storage::ViewPredDump>& preds) {
  return Make(program, db, opts, &preds);
}

Result<std::unique_ptr<MaterializedView>> MaterializedView::Make(
    const ast::Program& program, eval::Database* db,
    const IncrementalOptions& opts,
    const std::vector<storage::ViewPredDump>* restore) {
  std::unique_ptr<MaterializedView> view(
      new MaterializedView(program, db, opts));
  FACTLOG_RETURN_IF_ERROR(view->Init(restore));
  return view;
}

std::vector<storage::ViewPredDump> MaterializedView::DumpState() const {
  std::vector<storage::ViewPredDump> out;
  for (const auto& [pred, rel] : result_.idb()) {
    storage::ViewPredDump pd;
    pd.pred = pred;
    pd.arity = static_cast<uint32_t>(rel->arity());
    pd.counts_enabled = rel->support_counts_enabled();
    pd.num_rows = rel->size();
    pd.rows.reserve(rel->size() * rel->arity());
    for (size_t r = 0; r < rel->size(); ++r) {
      const ValueId* row = rel->row(r);
      pd.rows.insert(pd.rows.end(), row, row + rel->arity());
      if (pd.counts_enabled) pd.row_counts.push_back(rel->SupportOf(row));
    }
    out.push_back(std::move(pd));
  }
  return out;
}

Status MaterializedView::Init(
    const std::vector<storage::ViewPredDump>* restore) {
  FACTLOG_RETURN_IF_ERROR(program_.Validate());
  idb_preds_ = program_.IdbPredicates();
  // One join plan for the program's rules, shared with the initial
  // evaluation below: the engine's compile-time plan when it gave us one,
  // else planned here from the database's extent sizes.
  plan_ = eval::PlanForEvaluation(program_, *db_, opts_.eval);
  rules_.reserve(program_.rules().size());
  for (size_t i = 0; i < program_.rules().size(); ++i) {
    const ast::Rule& r = program_.rules()[i];
    FACTLOG_ASSIGN_OR_RETURN(
        CompiledRule cr,
        CompiledRule::Compile(r, &db_->store(), &plan_.rules[i]));
    rules_.push_back(std::move(cr));
    pred_info_[r.head().predicate()].rules.push_back(i);
  }
  rule_join_stats_.resize(rules_.size());

  // Strata: the IDB components of the dependency graph, dependencies first.
  // A component is recursive when it has several members or a self-edge.
  const analysis::DependencyGraph graph =
      analysis::DependencyGraph::Build(program_);
  analysis::SccCondensation condensation = graph.Condense();
  for (std::vector<std::string>& preds : condensation.sccs) {
    if (!IsIdb(preds.front())) continue;
    Scc scc;
    scc.recursive = preds.size() > 1 ||
                    graph.edges().at(preds.front()).count(preds.front()) > 0;
    for (const std::string& p : preds) {
      pred_info_[p].recursive = scc.recursive;
      if (!scc.recursive) continue;
      for (size_t ri : pred_info_[p].rules) {
        scc.program.AddRule(program_.rules()[ri]);
        scc.plan.rules.push_back(plan_.rules[ri]);
        scc.rules.push_back(ri);
      }
    }
    scc.preds = std::move(preds);
    sccs_.push_back(std::move(scc));
  }

  if (restore != nullptr) {
    // Checkpointed state replaces the from-scratch evaluation: fill the
    // maintained relations (including exact support counts) from the dump,
    // flat like the ones Build evaluates.
    for (const storage::ViewPredDump& pd : *restore) {
      FACTLOG_RETURN_IF_ERROR(CheckDump(pd));
      auto rel = std::make_unique<Relation>(pd.arity);
      if (pd.counts_enabled) {
        rel->EnableSupportCounts();
        for (uint64_t r = 0; r < pd.num_rows; ++r) {
          rel->AddSupport(pd.rows.data() + r * pd.arity, pd.row_counts[r]);
        }
      } else {
        for (uint64_t r = 0; r < pd.num_rows; ++r) {
          rel->Insert(pd.rows.data() + r * pd.arity);
        }
      }
      (*result_.mutable_idb())[pd.pred] = std::move(rel);
    }
  } else {
    // The initial materialization is one inline from-scratch evaluation
    // whose derivation callback records what maintenance needs: an edge per
    // instantiation of a recursive head, a support per instantiation of a
    // non-recursive one. Inline rounds write only into next, so each
    // instantiation is reported exactly once and the counts are exact.
    if (edge_store_owed()) {
      edges_ =
          std::make_unique<DerivationEdgeStore>(opts_.max_derivation_edges);
    }
    std::map<std::string, std::unique_ptr<Relation>> counted;
    std::vector<Relation*> counts_of_rule(rules_.size());
    for (const auto& [pred, info] : pred_info_) {
      if (info.recursive) continue;
      auto& rel = counted[pred];
      rel = std::make_unique<Relation>(
          program_.rules()[info.rules.front()].head().arity());
      rel->EnableSupportCounts();
      for (size_t ri : info.rules) counts_of_rule[ri] = rel.get();
    }
    exec::ParallelEvalOptions popts;
    popts.eval = opts_.eval;
    popts.eval.strategy = eval::Strategy::kSemiNaive;
    popts.eval.shared_edb = false;
    popts.eval.program_plan = &plan_;
    FACTLOG_ASSIGN_OR_RETURN(
        result_,
        exec::EvaluateParallel(
            program_, db_, nullptr, popts,
            [&](size_t i, const std::vector<ValueId>& row,
                const std::vector<FactKey>& premises) {
              if (counts_of_rule[i] != nullptr) {
                counts_of_rule[i]->AddSupport(row.data(), 1);
              } else {
                RecordEdge(program_.rules()[i].head().predicate(), row, i,
                           premises);
              }
            }));
    // Same rows as the evaluated relations, with their derivation counts.
    for (auto& [pred, rel] : counted) {
      (*result_.mutable_idb())[pred] = std::move(rel);
    }
    // First-derivation ranks follow the rounds facts were found in: minimal
    // heights on programs like TC, but only upper bounds when a recursive
    // rule reads a lower derived predicate. Make them exact.
    if (edges_ != nullptr && !edges_overflowed_) edges_->RecomputeRanks();
  }
  // The engine's plan pointer has served its purpose (plan_ is a copy);
  // never read it again — its CompiledQuery may be evicted from the cache.
  opts_.eval.program_plan = nullptr;

  // IDB predicates a dump omitted (empty at checkpoint time) still need
  // their relations.
  for (const auto& [pred, info] : pred_info_) {
    if (result_.Find(pred) != nullptr) continue;
    (*result_.mutable_idb())[pred] = std::make_unique<Relation>(
        program_.rules()[info.rules.front()].head().arity());
  }
  SettleEdgeStore();
  return Status::OK();
}

Status MaterializedView::CheckDump(const storage::ViewPredDump& pd) const {
  const std::string what = "checkpointed view state for '" + pd.pred + "' ";
  auto info = pred_info_.find(pd.pred);
  if (info == pred_info_.end()) {
    return Status::Invalid(what + "names no predicate the program defines");
  }
  if (result_.Find(pd.pred) != nullptr) {
    return Status::Invalid(what + "appears twice");
  }
  const size_t arity =
      program_.rules()[info->second.rules.front()].head().arity();
  if (pd.arity != arity) {
    return Status::Invalid(what + "has arity " + std::to_string(pd.arity) +
                           ", the program " + std::to_string(arity));
  }
  // Counting-maintained predicates need their counts; a recursive one must
  // not carry any, or later deletions would drive them below zero.
  if ((pd.counts_enabled != 0) == info->second.recursive) {
    return Status::Invalid(
        what + (pd.counts_enabled
                    ? "carries support counts for a recursive predicate"
                    : "lacks the support counts of a counting predicate"));
  }
  const bool rows_fit =
      pd.arity == 0 ? pd.rows.empty() && pd.num_rows <= 1
                    : pd.rows.size() % pd.arity == 0 &&
                          pd.rows.size() / pd.arity == pd.num_rows;
  if (!rows_fit ||
      pd.row_counts.size() != (pd.counts_enabled ? pd.num_rows : 0)) {
    return Status::Invalid(what + "claims " + std::to_string(pd.num_rows) +
                           " rows but holds " +
                           std::to_string(pd.rows.size()) + " values and " +
                           std::to_string(pd.row_counts.size()) + " counts");
  }
  for (int64_t c : pd.row_counts) {
    if (c <= 0) return Status::Invalid(what + "holds a non-positive count");
  }
  const size_t num_values = db_->store().size();
  for (ValueId v : pd.rows) {
    if (v < 0 || static_cast<size_t>(v) >= num_values) {
      return Status::Invalid(what + "holds value id " + std::to_string(v) +
                             " outside the value store");
    }
  }
  return Status::OK();
}

bool MaterializedView::edge_store_owed() const {
  return edges_ == nullptr && !stats_.edge_store_dropped &&
         opts_.max_derivation_edges > 0 &&
         std::any_of(sccs_.begin(), sccs_.end(),
                     [](const Scc& scc) { return scc.recursive; });
}

Status MaterializedView::EnsureEdgeStore(const DeltaMap& removed) {
  if (!edge_store_owed()) return Status::OK();
  edges_ = std::make_unique<DerivationEdgeStore>(opts_.max_derivation_edges);
  for (const Scc& scc : sccs_) {
    if (!scc.recursive || edges_overflowed_) continue;
    Result<eval::EvalResult> rederived =
        EvaluateScc(scc, nullptr, {}, removed);
    if (!rederived.ok()) {
      edges_.reset();
      edges_overflowed_ = false;
      return rederived.status();
    }
  }
  if (!edges_overflowed_) edges_->RecomputeRanks();
  SettleEdgeStore();
  return Status::OK();
}

void MaterializedView::RecordEdge(const std::string& pred,
                                  const std::vector<ValueId>& row,
                                  size_t rule_index,
                                  const std::vector<FactKey>& premises) {
  if (edges_ == nullptr || edges_overflowed_) return;
  const DerivationEdgeStore::EdgeId e = edges_->AddDerivation(
      pred, row, static_cast<int>(rule_index), premises);
  if (e != DerivationEdgeStore::kNoEdge &&
      edges_->derivations_of(edges_->head_of(e)).size() == 1) {
    // First derivation of a newly derived fact: its rank is one above its
    // premises', keeping every alive fact with at least one derivation whose
    // premises all rank strictly lower (what deletion counts as support).
    // Alternate derivations of known facts leave the rank untouched.
    uint64_t max_rank = 0;
    for (DerivationEdgeStore::FactId p : edges_->premises_of(e)) {
      max_rank = std::max<uint64_t>(max_rank, edges_->rank_of(p));
    }
    edges_->set_rank(edges_->head_of(e),
                     static_cast<uint32_t>(std::min<uint64_t>(
                         max_rank + 1, 0xffffffffu)));
  }
  if (edges_->over_budget()) edges_overflowed_ = true;
}

void MaterializedView::SettleEdgeStore() {
  if (edges_ != nullptr && edges_overflowed_) {
    // The store may be missing edges rejected over budget — an incomplete
    // hypergraph would under-delete, so it is unusable from here on.
    edges_.reset();
    stats_.edge_store_dropped = true;
  }
  stats_.edge_store_active = edges_ != nullptr;
  if (edges_ != nullptr) {
    stats_.edge_store_facts = edges_->num_facts();
    stats_.edge_store_edges = edges_->num_edges();
    stats_.edges_added = edges_->edges_added();
    stats_.edges_removed = edges_->edges_removed();
  } else {
    stats_.edge_store_facts = 0;
    stats_.edge_store_edges = 0;
  }
}

// ----------------------------------------------------------------- queries --

Result<eval::AnswerSet> MaterializedView::Answer(const ast::Atom& query) {
  if (poisoned_) return PoisonedError();
  return eval::ExtractAnswers(query, &result_, db_);
}

Result<std::string> MaterializedView::Explain(const ast::Atom& fact) {
  if (poisoned_) return PoisonedError();
  for (const ast::Term& t : fact.args()) {
    if (!t.IsGround()) {
      return Status::Invalid("why needs a ground fact, got variable in '" +
                             fact.ToString() + "'");
    }
  }
  FACTLOG_ASSIGN_OR_RETURN(std::vector<ValueId> row, db_->InternRow(fact));
  const std::string& pred = fact.predicate();
  Relation* rel = CurrentRel(pred);
  auto render = [&](const std::string& suffix) {
    std::string out = fact.predicate() + "(";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ", ";
      out += db_->store().ToString(row[i]);
    }
    out += ")" + suffix + "\n";
    return out;
  };
  if (rel == nullptr || !rel->Contains(row.data())) {
    return render("   [not in the current state]");
  }
  FACTLOG_RETURN_IF_ERROR(EnsureEdgeStore({}));
  if (edges_ != nullptr) {
    FactKey key{pred, row};
    if (edges_->FindFact(pred, row.data(), row.size()) !=
        DerivationEdgeStore::kNoFact) {
      return DerivationTreeToString(BuildDerivationTree(*edges_, key),
                                    db_->store());
    }
  }
  if (!IsIdb(pred)) return render("   [EDB fact]");
  if (!pred_info_.at(pred).recursive) {
    return render("   [" + std::to_string(rel->SupportOf(row.data())) +
                  " derivation(s), counting-maintained]");
  }
  // Recursive fact unknown to the store: either edge tracking is off/dropped
  // or the fact has no recorded derivation (a program fact).
  return render(edges_ == nullptr ? "   [derivation edges not tracked]"
                                  : "   [no recorded derivation]");
}

std::shared_ptr<eval::Relation> MaterializedView::FrozenAnswer() {
  if (poisoned_ || !program_.query().has_value()) return nullptr;
  const ast::Atom& q = *program_.query();
  Relation* rel = result_.Find(q.predicate());
  if (rel == nullptr) return nullptr;
  // Prewarm the answer-probe index (the query's ground argument positions)
  // on the live relation before freezing, so every snapshot reader probes
  // instead of scanning. Building it bumps the version exactly once.
  std::vector<int> cols;
  for (size_t i = 0; i < q.arity(); ++i) {
    if (q.args()[i].IsGround()) cols.push_back(static_cast<int>(i));
  }
  if (!cols.empty()) rel->EnsureIndex(cols);
  if (frozen_answer_ == nullptr ||
      frozen_answer_version_ != rel->version()) {
    frozen_answer_ = rel->FrozenCopy();
    frozen_answer_version_ = rel->version();
  }
  return frozen_answer_;
}

uint64_t MaterializedView::total_facts() const {
  uint64_t n = 0;
  for (const auto& [pred, rel] : result_.idb()) n += rel->size();
  return n;
}

// ----------------------------------------------------------------- helpers --

Relation* MaterializedView::CurrentRel(const std::string& pred) {
  if (IsIdb(pred)) return result_.Find(pred);
  return db_->Find(pred);
}

bool MaterializedView::SccAffected(const Scc& scc,
                                   const DeltaMap& delta) const {
  for (const std::string& p : scc.preds) {
    for (size_t ri : pred_info_.at(p).rules) {
      for (const CompiledAtom& lit : rules_[ri].body()) {
        if (lit.kind != LitKind::kRelation) continue;
        auto it = delta.find(lit.predicate);
        if (it != delta.end() && !it->second->empty()) return true;
      }
    }
  }
  return false;
}

std::vector<RelationView> MaterializedView::OccurrenceViews(
    const CompiledRule& rule, size_t j, const DeltaMap& delta,
    bool delta_before) {
  std::vector<RelationView> views(rule.body().size());
  for (size_t k = 0; k < views.size(); ++k) {
    const CompiledAtom& lit = rule.body()[k];
    if (lit.kind != LitKind::kRelation) continue;
    views[k] = RelationView{CurrentRel(lit.predicate), nullptr};
    if (k == j || (k < j) != delta_before) continue;
    auto dk = delta.find(lit.predicate);
    if (dk != delta.end()) views[k].second = const_cast<Relation*>(dk->second);
  }
  return views;
}

Result<eval::EvalResult> MaterializedView::EvaluateScc(
    const Scc& scc, const std::map<std::string, exec::SeedExtent>* seeds,
    const std::vector<std::unique_ptr<Relation>>& owned,
    const DeltaMap& removed) {
  // The budget covers the maintained IDB and the deltas in flight. A
  // from-scratch run replaces the SCC's rows, so those are not counted.
  uint64_t in_use = total_facts();
  for (const auto& d : owned) in_use += d->size();
  if (seeds == nullptr) {
    for (const std::string& p : scc.preds) in_use -= result_.Find(p)->size();
  }
  exec::ParallelEvalOptions popts;
  popts.eval = opts_.eval;
  popts.eval.strategy = eval::Strategy::kSemiNaive;
  popts.eval.shared_edb = false;
  popts.eval.program_plan = &scc.plan;
  popts.eval.replan_threshold = 0;  // maintenance keeps the view's plans
  popts.eval.max_facts =
      in_use >= opts_.eval.max_facts ? 0 : opts_.eval.max_facts - in_use;
  // Every relation the rules read outside the SCC (EDB and lower strata),
  // aliased without copying: the view and its database outlive the run.
  // One that lost `removed` rows is read at its old state, from a copy.
  eval::Database inputs(db_->shared_store(), db_->storage_options());
  for (const ast::Rule& rule : scc.program.rules()) {
    for (const ast::Atom& lit : rule.body()) {
      const std::string& p = lit.predicate();
      Relation* rel = CurrentRel(p);
      if (rel == nullptr || inputs.Find(p) != nullptr ||
          std::find(scc.preds.begin(), scc.preds.end(), p) !=
              scc.preds.end()) {
        continue;
      }
      auto gone = removed.find(p);
      if (gone == removed.end()) {
        inputs.PutRelation(
            p, std::shared_ptr<Relation>(std::shared_ptr<Relation>(), rel));
        continue;
      }
      auto old = std::make_shared<Relation>(rel->arity(),
                                            rel->storage_options());
      old->Absorb(*rel);
      old->Absorb(*gone->second);
      inputs.PutRelation(p, std::move(old));
    }
  }
  // Every instantiation is a derivation of its head (novel rows and, in a
  // seeded run, alternate derivations of known rows alike): while the store
  // is live, record each one.
  exec::DerivationCallback on_derivation;
  if (edges_ != nullptr && !edges_overflowed_) {
    on_derivation = [&](size_t i, const std::vector<ValueId>& row,
                        const std::vector<FactKey>& premises) {
      RecordEdge(scc.program.rules()[i].head().predicate(), row, scc.rules[i],
                 premises);
    };
  }
  Result<eval::EvalResult> result =
      seeds == nullptr
          ? exec::EvaluateParallel(scc.program, &inputs, nullptr, popts,
                                   on_derivation)
          : exec::EvaluateSeeded(scc.program, &inputs, nullptr, popts, *seeds,
                                 on_derivation);
  if (result.ok()) {
    stats_.delta_passes += result->stats().delta_passes;
    const auto& obs = result->stats().probe_observations;
    scc_observations_.insert(scc_observations_.end(), obs.begin(), obs.end());
  }
  return result;
}

std::vector<plan::ProbeObservation> MaterializedView::DrainObservations() {
  std::vector<plan::ProbeObservation> out = std::move(scc_observations_);
  scc_observations_.clear();
  for (size_t i = 0; i < rules_.size(); ++i) {
    eval::DrainProbeObservations(rules_[i], plan_.rules[i],
                                 &rule_join_stats_[i], &out);
  }
  return out;
}

// ------------------------------------------------------------- delta passes --

Status MaterializedView::RunPassCollect(size_t rule_index,
                                        std::vector<RelationView> views,
                                        size_t occ, const Relation* delta,
                                        const RowSink& apply) {
  if (delta == nullptr || delta->empty()) return Status::OK();
  ++stats_.delta_passes;
  views[occ] = RelationView{const_cast<Relation*>(delta), nullptr};
  return EnumerateRule(
      rules_[rule_index], &db_->store(), views, /*track_premises=*/false,
      &rule_join_stats_[rule_index],
      [&](const std::vector<ValueId>& row, const std::vector<FactKey>*) {
        apply(row);
        return true;
      });
}

// ------------------------------------------------------------- insertions --

Status MaterializedView::ApplyInsert(const std::string& pred,
                                     const Relation& delta) {
  if (poisoned_) return PoisonedError();
  // EDB facts named like an IDB predicate are invisible to evaluation (IDB
  // relations shadow them), so there is nothing to maintain.
  if (delta.empty() || IsIdb(pred)) return Status::OK();
  const ViewUpdateStats before = stats_;
  Status st = PropagateInsert(pred, delta);
  if (!st.ok()) poisoned_ = true;
  SettleEdgeStore();
  stats_.last_update = stats_.Since(before);
  return st;
}

Status MaterializedView::PropagateInsert(const std::string& pred,
                                         const Relation& edb_delta) {
  DeltaMap delta;
  delta[pred] = &edb_delta;
  std::vector<std::unique_ptr<Relation>> owned;
  for (const Scc& scc : sccs_) {
    if (!SccAffected(scc, delta)) continue;
    Status st = scc.recursive ? InsertRecursive(scc, &delta, &owned)
                              : InsertCounting(scc.preds.front(), &delta,
                                               &owned);
    FACTLOG_RETURN_IF_ERROR(st);
  }
  // Apply: every maintained relation stayed in its old state (so the union
  // views above were exact); absorb the accumulated deltas now. The engine
  // inserts the EDB rows after all views have propagated.
  for (const auto& [p, d] : delta) {
    if (!IsIdb(p) || d->empty()) continue;
    Relation* rel = result_.Find(p);
    if (pred_info_.at(p).recursive) {
      stats_.idb_inserted += rel->Absorb(*d);
    } else {
      for (size_t r = 0; r < d->size(); ++r) {
        const ValueId* row = d->row(r);
        rel->AddSupport(row, d->SupportOf(row));
      }
      stats_.idb_inserted += d->size();
    }
  }
  stats_.inserts_applied += edb_delta.size();
  return Status::OK();
}

Status MaterializedView::InsertCounting(
    const std::string& pred, DeltaMap* delta,
    std::vector<std::unique_ptr<Relation>>* owned) {
  Relation* rel = result_.Find(pred);
  auto dp = std::make_unique<Relation>(rel->arity(), rel->storage_options());
  for (size_t ri : pred_info_.at(pred).rules) {
    const CompiledRule& rule = rules_[ri];
    for (size_t j = 0; j < rule.body().size(); ++j) {
      const CompiledAtom& lit_j = rule.body()[j];
      if (lit_j.kind != LitKind::kRelation) continue;
      auto dj = delta->find(lit_j.predicate);
      if (dj == delta->end() || dj->second->empty()) continue;
      // Occurrence decomposition: before j at the new state (stored-old
      // union delta), j at the delta, after j at the old state. Each
      // instantiation is one new derivation.
      FACTLOG_RETURN_IF_ERROR(RunPassCollect(
          ri, OccurrenceViews(rule, j, *delta, /*delta_before=*/true), j,
          dj->second, [&](const std::vector<ValueId>& row) {
            ++stats_.support_updates;
            if (rel->Contains(row.data())) {
              rel->AddSupport(row.data(), 1);  // count-only: row set unchanged
            } else {
              dp->AddSupport(row.data(), 1);
            }
          }));
    }
  }
  if (!dp->empty()) {
    (*delta)[pred] = dp.get();
    owned->push_back(std::move(dp));
  }
  return Status::OK();
}

Status MaterializedView::InsertRecursive(
    const Scc& scc, DeltaMap* delta,
    std::vector<std::unique_ptr<Relation>>* owned) {
  // An owed store is built first, over the state before this insertion.
  // Built after it, exact ranks could rest older facts on the new rows, and
  // deleting those rows again would over-delete and rescue.
  FACTLOG_RETURN_IF_ERROR(EnsureEdgeStore({}));
  // The members start at their stored (old) extent with an empty delta;
  // every lower predicate with a pending delta starts at its current (old)
  // extent with that delta. Round 1 then applies the lower deltas one
  // occurrence at a time against the old SCC, and the later rounds cover
  // every instantiation involving a new SCC fact.
  std::map<std::string, exec::SeedExtent> seeds;
  for (const std::string& p : scc.preds) seeds[p].stored = result_.Find(p);
  for (const auto& [p, d] : *delta) {
    if (!d->empty()) seeds.emplace(p, exec::SeedExtent{CurrentRel(p), d});
  }
  FACTLOG_ASSIGN_OR_RETURN(eval::EvalResult result,
                           EvaluateScc(scc, &seeds, *owned));
  for (const std::string& p : scc.preds) {
    std::unique_ptr<Relation>& gained = (*result.mutable_idb())[p];
    if (gained == nullptr || gained->empty()) continue;
    (*delta)[p] = gained.get();
    owned->push_back(std::move(gained));
  }
  return Status::OK();
}

// -------------------------------------------------------------- deletions --

Status MaterializedView::ApplyDelete(const std::string& pred,
                                     const Relation& delta) {
  if (poisoned_) return PoisonedError();
  if (delta.empty() || IsIdb(pred)) return Status::OK();
  const ViewUpdateStats before = stats_;
  Status st = PropagateDelete(pred, delta);
  if (!st.ok()) poisoned_ = true;
  SettleEdgeStore();
  stats_.last_update = stats_.Since(before);
  return st;
}

Status MaterializedView::PropagateDelete(const std::string& pred,
                                         const Relation& edb_delta) {
  // Deletion invariant: every already-processed relation (and the EDB, which
  // the engine erased before calling) holds its NEW state, with the removed
  // rows kept aside in `delta` — so old state = stored ∪ delta, always
  // representable as a union view.
  DeltaMap delta;
  delta[pred] = &edb_delta;
  std::vector<std::unique_ptr<Relation>> owned;
  for (const Scc& scc : sccs_) {
    if (!SccAffected(scc, delta)) continue;
    Status st = scc.recursive ? DeleteRecursive(scc, &delta, &owned)
                              : DeleteCounting(scc.preds.front(), &delta,
                                               &owned);
    FACTLOG_RETURN_IF_ERROR(st);
  }
  stats_.deletes_applied += edb_delta.size();
  return Status::OK();
}

Status MaterializedView::DeleteCounting(
    const std::string& pred, DeltaMap* delta,
    std::vector<std::unique_ptr<Relation>>* owned) {
  Relation* rel = result_.Find(pred);
  // Lost derivations with multiplicity, one support per instantiation:
  // before j new ({stored}), j at the deleted rows, after j old ({stored,
  // deleted}).
  Relation lost(rel->arity(), rel->storage_options());
  for (size_t ri : pred_info_.at(pred).rules) {
    const CompiledRule& rule = rules_[ri];
    for (size_t j = 0; j < rule.body().size(); ++j) {
      const CompiledAtom& lit_j = rule.body()[j];
      if (lit_j.kind != LitKind::kRelation) continue;
      auto dj = delta->find(lit_j.predicate);
      if (dj == delta->end() || dj->second->empty()) continue;
      FACTLOG_RETURN_IF_ERROR(RunPassCollect(
          ri, OccurrenceViews(rule, j, *delta, /*delta_before=*/false), j,
          dj->second, [&](const std::vector<ValueId>& row) {
            lost.AddSupport(row.data(), 1);
          }));
    }
  }
  if (lost.empty()) return Status::OK();
  auto dp = std::make_unique<Relation>(rel->arity(), rel->storage_options());
  for (size_t r = 0; r < lost.size(); ++r) {
    const ValueId* row = lost.row(r);
    const int64_t count = lost.SupportOf(row);
    stats_.support_updates += static_cast<uint64_t>(count);
    if (rel->AddSupport(row, -count) == 0) {
      dp->Insert(row);
      ++stats_.idb_deleted;
    }
  }
  if (!dp->empty()) {
    (*delta)[pred] = dp.get();
    owned->push_back(std::move(dp));
  }
  return Status::OK();
}

Status MaterializedView::DeleteRecursive(
    const Scc& scc, DeltaMap* delta,
    std::vector<std::unique_ptr<Relation>>* owned) {
  // Slice deletion along recorded derivation edges whenever the store is
  // live (a restored view builds it first, over the state before this
  // propagation). Without it (tracking disabled, or the store was dropped
  // over budget) the SCC is re-derived from scratch over the lower strata,
  // which already hold their new state: one bounded SCC evaluation, never a
  // cascade of unknown size. The store is not rebuilt afterwards — at the
  // same budget it would overflow again.
  FACTLOG_RETURN_IF_ERROR(EnsureEdgeStore(*delta));
  if (edges_ != nullptr && !edges_overflowed_) {
    return DeleteRecursiveSliced(scc, delta, owned);
  }
  FACTLOG_ASSIGN_OR_RETURN(eval::EvalResult result,
                           EvaluateScc(scc, nullptr, *owned));
  // Deleting never adds facts, so new ⊆ old: erase old − new in place (a
  // fresh Relation object could reuse the version FrozenAnswer cached
  // against) and emit it as the SCC's outward delta.
  for (const std::string& p : scc.preds) {
    Relation* rel = result_.Find(p);
    const Relation* now = result.Find(p);
    auto gone = std::make_unique<Relation>(rel->arity(),
                                           rel->storage_options());
    for (size_t r = 0; r < rel->size(); ++r) {
      if (!now->Contains(rel->row(r))) gone->Insert(rel->row(r));
    }
    if (gone->empty()) continue;
    for (size_t r = 0; r < gone->size(); ++r) rel->Erase(gone->row(r));
    stats_.idb_deleted += gone->size();
    (*delta)[p] = gone.get();
    owned->push_back(std::move(gone));
  }
  return Status::OK();
}

Status MaterializedView::DeleteRecursiveSliced(
    const Scc& scc, DeltaMap* delta,
    std::vector<std::unique_ptr<Relation>>* owned) {
  using FactId = DerivationEdgeStore::FactId;
  using EdgeId = DerivationEdgeStore::EdgeId;
  DerivationEdgeStore& es = *edges_;

  // Pred-id bitmap of this SCC for cheap head filtering: cone expansion and
  // edge retirement must stay inside the SCC being processed (edges into
  // later SCCs are their passes' seeds).
  std::vector<bool> scc_pred;
  for (const std::string& p : scc.preds) {
    int pid = es.PredId(p);
    if (pid < 0) continue;  // never appeared in any derivation
    if (scc_pred.size() <= static_cast<size_t>(pid)) {
      scc_pred.resize(static_cast<size_t>(pid) + 1, false);
    }
    scc_pred[static_cast<size_t>(pid)] = true;
  }
  auto in_this_scc = [&](FactId f) {
    uint32_t pid = es.pred_id_of(f);
    return pid < scc_pred.size() && scc_pred[pid];
  };

  // 1. Seeds: deleted lower-stratum rows the store has seen as premises. A
  // deleted row no derivation ever used cannot invalidate anything here.
  std::vector<FactId> seeds;
  std::unordered_set<FactId> seed_set;
  for (const auto& [pred, rel] : *delta) {
    for (size_t r = 0; r < rel->size(); ++r) {
      FactId f = es.FindFact(pred, rel->row(r), rel->arity());
      if (f != DerivationEdgeStore::kNoFact && seed_set.insert(f).second) {
        seeds.push_back(f);
      }
    }
  }
  if (seeds.empty()) return Status::OK();

  // 2. Support cascade. A derivation is *supporting* when all its premises
  // rank strictly below its head (ranks are minimal derivation heights, so
  // every alive fact has one — cyclic support never counts). Killing an
  // edge decrements its head's supporting count; a head reaching zero is
  // tentatively dead and kills its own uses in turn. Unlike a reachability
  // cone, the cascade only ever touches facts that actually lost an edge,
  // so random deletes in dense graphs stay delta-sized.
  std::unordered_set<EdgeId> killed;
  std::unordered_map<FactId, uint32_t> sup;  // touched SCC heads -> support
  std::unordered_set<FactId> tentative;
  std::vector<FactId> tentative_list;
  auto is_supporting = [&](EdgeId e, uint32_t head_rank) {
    for (FactId pr : es.premises_of(e)) {
      if (es.rank_of(pr) >= head_rank) return false;
    }
    return true;
  };
  auto apply_kill = [&](EdgeId e, FactId h) {
    if (!killed.insert(e).second) return;
    if (tentative.count(h) != 0) return;
    const uint32_t head_rank = es.rank_of(h);
    auto it = sup.find(h);
    if (it == sup.end()) {
      // First touch: count the head's surviving supporting derivations
      // (e is already in `killed`, so it never counts).
      uint32_t cnt = 0;
      for (EdgeId d : es.derivations_of(h)) {
        if (killed.count(d) == 0 && is_supporting(d, head_rank)) ++cnt;
      }
      it = sup.emplace(h, cnt).first;
    } else if (it->second > 0 && is_supporting(e, head_rank)) {
      --it->second;
    }
    if (it->second == 0) {
      tentative.insert(h);
      tentative_list.push_back(h);
    }
  };
  std::vector<FactId> frontier = seeds;
  while (!frontier.empty()) {
    const size_t already_dead = tentative_list.size();
    for (FactId f : frontier) {
      for (EdgeId e : es.uses_of(f)) {
        FactId h = es.head_of(e);
        if (in_this_scc(h)) apply_kill(e, h);
      }
    }
    frontier.assign(tentative_list.begin() +
                        static_cast<ptrdiff_t>(already_dead),
                    tentative_list.end());
  }
  stats_.cone_input += sup.size();

  // 3. Rescue: a tentatively dead fact survives if some derivation avoids
  // every seed and every (still-)dead fact — the least fixpoint over the
  // tentative set, so mutually-supporting ungrounded cycles stay dead while
  // facts with an alternate non-supporting derivation (a longer surviving
  // path, or a premise whose rank drifted upward) are kept in place without
  // any row churn. Rank drift only ever causes spurious tentative deaths,
  // never missed ones, and a rescue re-canonicalizes all ranks below.
  std::unordered_set<FactId> dead(tentative.begin(), tentative.end());
  uint64_t rescued = 0;
  bool changed = true;
  while (changed) {
    changed = false;
    for (FactId h : tentative_list) {
      if (dead.count(h) == 0) continue;
      for (EdgeId e : es.derivations_of(h)) {
        bool alive = true;
        for (FactId pr : es.premises_of(e)) {
          if (seed_set.count(pr) != 0 || dead.count(pr) != 0) {
            alive = false;
            break;
          }
        }
        if (alive) {
          dead.erase(h);
          ++rescued;
          changed = true;
          break;
        }
      }
    }
  }
  stats_.overdeleted += tentative_list.size();
  stats_.rederived += rescued;
  stats_.cone_pruned += sup.size() - dead.size();

  // 4. Erase the dead facts and stage the outward deltas.
  std::map<std::string, std::unique_ptr<Relation>> dead_rows;
  std::vector<FactId> dead_ids;
  for (FactId h : tentative_list) {
    if (dead.count(h) == 0) continue;
    dead_ids.push_back(h);
    auto& d = dead_rows[es.pred_of(h)];
    if (d == nullptr) {
      Relation* rel = result_.Find(es.pred_of(h));
      d = std::make_unique<Relation>(rel->arity(), rel->storage_options());
    }
    d->Insert(es.row_of(h));
  }
  for (auto& [p, d] : dead_rows) {
    Relation* rel = result_.Find(p);
    for (size_t r = 0; r < d->size(); ++r) rel->Erase(d->row(r));
    stats_.idb_deleted += d->size();
  }

  // 5. Retire invalidated edges: every derivation headed by a dead fact,
  // and every use of a seed or dead fact whose head is in this SCC. Kills
  // caused by since-rescued facts are NOT retired — those instantiations
  // still hold. Uses with heads in later SCCs survive until those SCCs' own
  // passes (the dead rows join the delta map, so SccAffected guarantees the
  // pass runs).
  std::vector<EdgeId> retire;
  for (FactId f : dead_ids) {
    for (EdgeId e : es.derivations_of(f)) retire.push_back(e);
  }
  auto retire_uses = [&](FactId f) {
    for (EdgeId e : es.uses_of(f)) {
      if (in_this_scc(es.head_of(e))) retire.push_back(e);
    }
  };
  for (FactId f : seeds) retire_uses(f);
  for (FactId f : dead_ids) retire_uses(f);
  for (EdgeId e : retire) es.RemoveEdge(e);  // no-op on duplicates

  // A rescued fact now rests on a derivation that was not rank-supporting,
  // so the height invariant may be broken for it and anything above it;
  // recompute all ranks. Rescues are rare (they need cyclic or drifted
  // support), so the full O(E log V) sweep does not show up in steady state.
  if (rescued > 0) es.RecomputeRanks();

  for (auto& [p, d] : dead_rows) {
    (*delta)[p] = d.get();
    owned->push_back(std::move(d));
  }
  return Status::OK();
}

}  // namespace factlog::inc
