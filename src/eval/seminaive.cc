#include "eval/seminaive.h"

#include <algorithm>
#include <set>
#include <utility>

#include "ast/special_predicates.h"

namespace factlog::eval {

namespace {

// Shared state for one bottom-up evaluation.
class Engine {
 public:
  Engine(const ast::Program& program, Database* db, const EvalOptions& opts)
      : program_(program), db_(db), opts_(opts) {}

  Result<EvalResult> Run() {
    FACTLOG_RETURN_IF_ERROR(Prepare());
    Status st = (opts_.strategy == Strategy::kSemiNaive) ? RunSemiNaive()
                                                         : RunNaive();
    FACTLOG_RETURN_IF_ERROR(st);
    return Finish();
  }

 private:
  struct PredState {
    std::unique_ptr<Relation> full;
    std::unique_ptr<Relation> delta;
    std::unique_ptr<Relation> next;
  };

  Status Prepare() {
    FACTLOG_RETURN_IF_ERROR(program_.Validate());
    idb_preds_ = program_.IdbPredicates();
    auto arities = program_.PredicateArities();
    // IDB relations adopt the database's storage layout so sharded
    // deployments keep one uniform partitioning end to end.
    const StorageOptions& storage = db_->storage_options();
    for (const std::string& p : idb_preds_) {
      size_t arity = arities.at(p);
      PredState st;
      st.full = std::make_unique<Relation>(arity, storage);
      st.delta = std::make_unique<Relation>(arity, storage);
      st.next = std::make_unique<Relation>(arity, storage);
      preds_.emplace(p, std::move(st));
    }
    plan_ = PlanForEvaluation(program_, *db_, opts_);
    rules_.reserve(program_.rules().size());
    for (size_t i = 0; i < program_.rules().size(); ++i) {
      FACTLOG_ASSIGN_OR_RETURN(
          CompiledRule cr,
          CompiledRule::Compile(program_.rules()[i], &db_->store(),
                                &plan_.rules[i]));
      rules_.push_back(std::move(cr));
    }
    rule_stats_.resize(rules_.size());
    return Status::OK();
  }

  bool IsIdb(const std::string& pred) const {
    return idb_preds_.count(pred) > 0;
  }

  // The extent of a body literal outside semi-naive delta handling.
  RelationView FullView(const CompiledAtom& lit) {
    if (lit.kind != LitKind::kRelation) return RelationView{};
    if (IsIdb(lit.predicate)) {
      return RelationView{preds_.at(lit.predicate).full.get(), nullptr};
    }
    // IDB relations are private to this evaluation; base relations may be
    // shared read-only with concurrent evaluations.
    return RelationView{db_->Find(lit.predicate), nullptr, opts_.shared_edb};
  }

  uint64_t TotalIdbFacts() const {
    uint64_t n = 0;
    for (const auto& [name, st] : preds_) {
      n += st.full->size() + st.delta->size() + st.next->size();
    }
    return n;
  }

  // Sink that inserts new facts into `target` unless already known in the
  // pred's full/delta extent. Returns the abort flag through `status_`.
  HeadSink MakeSink(size_t rule_index, const std::string& head_pred,
                    Relation* target, bool check_known) {
    return [this, rule_index, head_pred, target, check_known](
               const std::vector<ValueId>& row,
               const std::vector<FactKey>* premises) -> bool {
      if (check_known) {
        const PredState& st = preds_.at(head_pred);
        if (st.full->Contains(row.data()) || st.delta->Contains(row.data())) {
          return true;
        }
      }
      bool inserted = target->Insert(row);
      if (inserted) {
        if (opts_.track_provenance) {
          FactKey fact{head_pred, row};
          std::vector<FactKey> prem;
          if (premises != nullptr) prem = *premises;
          result_.mutable_provenance()->Record(
              fact, static_cast<int>(rule_index), prem);
        }
        if (TotalIdbFacts() > opts_.max_facts) {
          status_ = Status::ResourceExhausted(
              "fact budget exceeded (" + std::to_string(opts_.max_facts) +
              "); program may not terminate");
          return false;
        }
      }
      return true;
    };
  }

  Status RunSemiNaive() {
    // Iteration 0: rules without IDB body literals seed the deltas.
    for (size_t i = 0; i < rules_.size(); ++i) {
      const CompiledRule& rule = rules_[i];
      bool has_idb = false;
      for (const CompiledAtom& lit : rule.body()) {
        if (lit.kind == LitKind::kRelation && IsIdb(lit.predicate)) {
          has_idb = true;
          break;
        }
      }
      if (has_idb) continue;
      std::vector<RelationView> views;
      views.reserve(rule.body().size());
      for (const CompiledAtom& lit : rule.body()) views.push_back(FullView(lit));
      const std::string& head_pred = rule.head().predicate;
      Relation* delta = preds_.at(head_pred).delta.get();
      FACTLOG_RETURN_IF_ERROR(EnumerateRule(
          rule, &db_->store(), views, opts_.track_provenance, &rule_stats_[i],
          MakeSink(i, head_pred, delta, /*check_known=*/false)));
      FACTLOG_RETURN_IF_ERROR(status_);
    }

    while (true) {
      ++result_.mutable_stats()->iterations;
      if (result_.stats().iterations > opts_.max_iterations) {
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

      // Feedback: record this round's frontier sizes, then re-plan any rule
      // whose estimates have drifted past the threshold before enumerating.
      for (const auto& [name, st] : preds_) {
        if (!st.delta->empty()) {
          delta_sum_[name] += st.delta->size();
          ++delta_rounds_[name];
        }
      }
      MaybeReplan();

      for (size_t i = 0; i < rules_.size(); ++i) {
        const CompiledRule& rule = rules_[i];
        // One pass per IDB occurrence j: literal j ranges over delta,
        // literals before j over full ∪ delta (this round's view of F_i),
        // literals after j over full (F_{i-1}).
        for (size_t j = 0; j < rule.body().size(); ++j) {
          const CompiledAtom& lit_j = rule.body()[j];
          if (lit_j.kind != LitKind::kRelation || !IsIdb(lit_j.predicate)) {
            continue;
          }
          PredState& st_j = preds_.at(lit_j.predicate);
          if (st_j.delta->empty()) continue;

          std::vector<RelationView> views;
          views.reserve(rule.body().size());
          for (size_t k = 0; k < rule.body().size(); ++k) {
            const CompiledAtom& lit = rule.body()[k];
            if (lit.kind != LitKind::kRelation || !IsIdb(lit.predicate)) {
              views.push_back(FullView(lit));
              continue;
            }
            PredState& st = preds_.at(lit.predicate);
            if (k == j) {
              views.push_back(RelationView{st.delta.get(), nullptr});
            } else if (k < j) {
              views.push_back(RelationView{st.full.get(), st.delta.get()});
            } else {
              views.push_back(RelationView{st.full.get(), nullptr});
            }
          }
          const std::string& head_pred = rule.head().predicate;
          Relation* next = preds_.at(head_pred).next.get();
          FACTLOG_RETURN_IF_ERROR(EnumerateRule(
              rule, &db_->store(), views, opts_.track_provenance,
              &rule_stats_[i],
              MakeSink(i, head_pred, next, /*check_known=*/true)));
          FACTLOG_RETURN_IF_ERROR(status_);
        }
      }

      // Merge: full += delta; delta = next; next = the old delta, cleared
      // (Clear keeps the dedup capacity, so next round's inserts do not
      // regrow the table).
      for (auto& [name, st] : preds_) {
        st.full->Absorb(*st.delta);
        std::swap(st.delta, st.next);
        st.next->Clear();
      }
    }
    return Status::OK();
  }

  // The observed extent a body occurrence of `pred` ranges over this round:
  // the current delta for IDB predicates (their estimates are delta-based),
  // the live relation size for base predicates.
  uint64_t CurrentExtent(const std::string& pred) const {
    if (IsIdb(pred)) return preds_.at(pred).delta->size();
    const Relation* rel = db_->Find(pred);
    return rel == nullptr ? 0 : rel->size();
  }

  // Mid-fixpoint adaptivity: re-plan rules whose literal estimates drifted
  // past opts_.replan_threshold against what this iteration actually sees,
  // and recompile just those rules so subsequent passes enumerate in the new
  // order. Plans only direct enumeration, so the fixpoint's fact set is
  // unchanged. A re-plan that keeps the order still refreshes est_rows,
  // which re-arms the drift check instead of tripping it every round.
  void MaybeReplan() {
    if (opts_.replan_threshold <= 0 ||
        opts_.join_order != JoinOrder::kPlanned) {
      return;
    }
    plan::PlanOptions popts;
    bool popts_ready = false;
    for (size_t i = 0; i < rules_.size(); ++i) {
      const plan::JoinPlan& jp = plan_.rules[i];
      size_t relation_lits = 0;
      bool drifted = false;
      for (const plan::LiteralPlan& lp : jp.order) {
        if (!lp.is_relation) continue;
        ++relation_lits;
        const ast::Atom& lit = program_.rules()[i].body()[lp.body_index];
        if (ExtentDrifted(lp.est_rows, CurrentExtent(lit.predicate()),
                          opts_.replan_threshold)) {
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
      // the re-planned rule.
      DrainProbeObservations(rules_[i], plan_.rules[i], &rule_stats_[i],
                             &probe_obs_);
      Result<CompiledRule> cr = CompiledRule::Compile(
          program_.rules()[i], &db_->store(), &fresh);
      if (!cr.ok()) continue;  // keep the old plan; never fail the fixpoint
      plan_.rules[i] = std::move(fresh);
      rules_[i] = std::move(*cr);
      ++result_.mutable_stats()->replans;
    }
  }

  Status RunNaive() {
    while (true) {
      ++result_.mutable_stats()->iterations;
      if (result_.stats().iterations > opts_.max_iterations) {
        return Status::ResourceExhausted("iteration budget exceeded");
      }
      bool changed = false;
      for (size_t i = 0; i < rules_.size(); ++i) {
        const CompiledRule& rule = rules_[i];
        std::vector<RelationView> views;
        views.reserve(rule.body().size());
        for (const CompiledAtom& lit : rule.body()) {
          views.push_back(FullView(lit));
        }
        // Collect first: inserting into a relation being scanned would
        // invalidate the index buckets mid-enumeration.
        std::vector<std::vector<ValueId>> pending;
        std::vector<std::vector<FactKey>> pending_premises;
        FACTLOG_RETURN_IF_ERROR(EnumerateRule(
            rule, &db_->store(), views, opts_.track_provenance,
            &rule_stats_[i],
            [&](const std::vector<ValueId>& row,
                const std::vector<FactKey>* premises) {
              pending.push_back(row);
              if (premises != nullptr) pending_premises.push_back(*premises);
              return true;
            }));
        const std::string& head_pred = rule.head().predicate;
        Relation* full = preds_.at(head_pred).full.get();
        for (size_t p = 0; p < pending.size(); ++p) {
          if (full->Insert(pending[p])) {
            changed = true;
            if (opts_.track_provenance) {
              result_.mutable_provenance()->Record(
                  FactKey{head_pred, pending[p]}, static_cast<int>(i),
                  pending_premises.empty() ? std::vector<FactKey>{}
                                           : pending_premises[p]);
            }
          }
        }
        if (TotalIdbFacts() > opts_.max_facts) {
          return Status::ResourceExhausted("fact budget exceeded");
        }
      }
      if (!changed) break;
    }
    return Status::OK();
  }

  Result<EvalResult> Finish() {
    uint64_t total = 0;
    EvalStats* stats = result_.mutable_stats();
    for (size_t i = 0; i < rules_.size(); ++i) {
      DrainProbeObservations(rules_[i], plan_.rules[i], &rule_stats_[i],
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
      AccumulateShardFacts(*st.full, &stats->shard_facts);
      result_.mutable_idb()->emplace(name, std::move(st.full));
    }
    stats->total_facts = total;
    FoldRuleStats(rule_stats_, stats);
    return std::move(result_);
  }

  const ast::Program& program_;
  Database* db_;
  EvalOptions opts_;
  std::set<std::string> idb_preds_;
  std::map<std::string, PredState> preds_;
  plan::ProgramPlan plan_;
  std::vector<CompiledRule> rules_;
  std::vector<JoinStats> rule_stats_;  // index-aligned with rules_
  // Planner feedback accumulators (drained into EvalStats at Finish).
  std::map<std::string, uint64_t> delta_sum_;
  std::map<std::string, uint64_t> delta_rounds_;
  std::vector<plan::ProbeObservation> probe_obs_;
  EvalResult result_;
  Status status_ = Status::OK();
};

}  // namespace

plan::ProgramPlan PlanForEvaluation(const ast::Program& program,
                                    const Database& db,
                                    const EvalOptions& opts) {
  if (opts.join_order == JoinOrder::kLeftToRight) {
    plan::PlanOptions popts;
    popts.reorder = false;
    return plan::PlanProgram(program, std::move(popts));
  }
  if (opts.program_plan != nullptr && opts.program_plan->Compatible(program)) {
    return *opts.program_plan;
  }
  plan::PlanOptions popts;
  for (const auto& [name, rel] : db.relations()) {
    popts.extent_hints[name] = rel->size();
  }
  return plan::PlanProgram(program, std::move(popts));
}

Result<EvalResult> Evaluate(const ast::Program& program, Database* db,
                            const EvalOptions& opts) {
  Engine engine(program, db, opts);
  return engine.Run();
}

void FoldRuleStats(const std::vector<JoinStats>& rule_stats,
                   EvalStats* stats) {
  stats->rule_instantiations.resize(rule_stats.size(), 0);
  stats->rule_rows_matched.resize(rule_stats.size(), 0);
  for (size_t i = 0; i < rule_stats.size(); ++i) {
    stats->rule_instantiations[i] = rule_stats[i].instantiations;
    stats->rule_rows_matched[i] = rule_stats[i].rows_matched;
    stats->instantiations += rule_stats[i].instantiations;
    stats->rows_matched += rule_stats[i].rows_matched;
  }
}

bool ExtentDrifted(uint64_t est, uint64_t actual, double threshold) {
  const double a = static_cast<double>(est) + 1.0;
  const double b = static_cast<double>(actual) + 1.0;
  const double ratio = a > b ? a / b : b / a;
  return ratio > threshold;
}

void DrainProbeObservations(const CompiledRule& rule,
                            const plan::JoinPlan& rule_plan, JoinStats* stats,
                            std::vector<plan::ProbeObservation>* out) {
  const size_t n = std::min(stats->lit_probes.size(), rule.body().size());
  for (size_t k = 0; k < n; ++k) {
    if (stats->lit_probes[k] == 0) continue;
    const CompiledAtom& lit = rule.body()[k];
    if (lit.kind != LitKind::kRelation) {
      stats->lit_probes[k] = 0;
      stats->lit_matched[k] = 0;
      continue;
    }
    plan::ProbeObservation obs;
    obs.pred = lit.predicate;
    obs.arity = lit.args.size();
    // Compiled literal k is the k-th slot in plan order; its planned index
    // columns are the adornment the join probed with.
    if (k < rule_plan.order.size()) obs.bound_cols = rule_plan.order[k].index_cols;
    obs.probes = stats->lit_probes[k];
    obs.matched = stats->lit_matched[k];
    out->push_back(std::move(obs));
    stats->lit_probes[k] = 0;
    stats->lit_matched[k] = 0;
  }
}

void AccumulateShardFacts(const Relation& rel,
                          std::vector<uint64_t>* shard_facts) {
  if (shard_facts->size() < rel.shard_count()) {
    shard_facts->resize(rel.shard_count(), 0);
  }
  for (size_t s = 0; s < rel.shard_count(); ++s) {
    (*shard_facts)[s] += rel.shard(s).size();
  }
}

std::string AnswerSet::ToString(const ValueStore& values) const {
  std::string out;
  for (const auto& row : rows) {
    out += "{";
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) out += ", ";
      if (i < vars.size()) out += vars[i] + " = ";
      out += values.ToString(row[i]);
    }
    out += "}\n";
  }
  return out;
}

Result<AnswerSet> ExtractAnswersFrom(const ast::Atom& query, Relation* rel,
                                     ValueStore* store, bool shared) {
  AnswerSet answers;
  answers.vars = query.DistinctVars();
  if (rel == nullptr) return answers;  // unknown predicate: no facts

  std::vector<ast::Term> head_args;
  head_args.reserve(answers.vars.size());
  for (const std::string& v : answers.vars) {
    head_args.push_back(ast::Term::Var(v));
  }
  ast::Rule probe(ast::Atom("__ans", std::move(head_args)), {query});
  FACTLOG_ASSIGN_OR_RETURN(CompiledRule rule,
                           CompiledRule::Compile(probe, store));

  // Collect, then sort + unique: the same lexicographic order a std::set
  // would give, without a tree node per answer.
  std::vector<std::vector<ValueId>>& rows = answers.rows;
  JoinStats stats;
  FACTLOG_RETURN_IF_ERROR(EnumerateRule(
      rule, store, {RelationView{rel, nullptr, shared}}, false, &stats,
      [&rows](const std::vector<ValueId>& row, const std::vector<FactKey>*) {
        rows.push_back(row);
        return true;
      }));
  std::sort(rows.begin(), rows.end());
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  return answers;
}

Result<AnswerSet> ExtractAnswers(const ast::Atom& query, EvalResult* result,
                                 Database* db, bool shared_edb) {
  Relation* rel = result->Find(query.predicate());
  bool from_db = false;
  if (rel == nullptr) {
    rel = db->Find(query.predicate());
    from_db = true;
  }
  return ExtractAnswersFrom(query, rel, &db->store(),
                            shared_edb && from_db);
}

Result<AnswerSet> EvaluateQuery(const ast::Program& program,
                                const ast::Atom& query, Database* db,
                                const EvalOptions& opts, EvalStats* stats_out) {
  FACTLOG_ASSIGN_OR_RETURN(EvalResult result, Evaluate(program, db, opts));
  if (stats_out != nullptr) *stats_out = result.stats();
  return ExtractAnswers(query, &result, db, opts.shared_edb);
}

}  // namespace factlog::eval
