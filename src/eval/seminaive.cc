#include "eval/seminaive.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "exec/parallel_seminaive.h"

namespace factlog::eval {

namespace {

// The naive T_P loop: every round re-evaluates every rule against the full
// extents until nothing new is derived. Deliberately the plainest fixpoint —
// it is the independent oracle the semi-naive engine is checked against.
class NaiveEngine {
 public:
  NaiveEngine(const ast::Program& program, Database* db,
              const EvalOptions& opts)
      : program_(program), db_(db), opts_(opts) {}

  Result<EvalResult> Run() {
    FACTLOG_RETURN_IF_ERROR(program_.Validate());
    // IDB relations adopt the database's storage layout.
    auto arities = program_.PredicateArities();
    for (const std::string& p : program_.IdbPredicates()) {
      idb_.emplace(p, std::make_unique<Relation>(arities.at(p),
                                                 db_->storage_options()));
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
    FACTLOG_RETURN_IF_ERROR(Iterate());
    return Finish();
  }

 private:
  // The full extent of a body literal: the IDB relation, or the base
  // relation (shared read-only with concurrent evaluations under
  // shared_edb).
  RelationView FullView(const CompiledAtom& lit) {
    if (lit.kind != LitKind::kRelation) return RelationView{};
    auto it = idb_.find(lit.predicate);
    if (it != idb_.end()) return RelationView{it->second.get(), nullptr};
    return RelationView{db_->Find(lit.predicate), nullptr, opts_.shared_edb};
  }

  uint64_t TotalIdbFacts() const {
    uint64_t n = 0;
    for (const auto& [name, rel] : idb_) n += rel->size();
    return n;
  }

  Status Iterate() {
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
        FACTLOG_RETURN_IF_ERROR(EnumerateRule(
            rule, &db_->store(), views, /*track_premises=*/false,
            &rule_stats_[i],
            [&](const std::vector<ValueId>& row, const std::vector<FactKey>*) {
              pending.push_back(row);
              return true;
            }));
        Relation* full = idb_.at(rule.head().predicate).get();
        for (const std::vector<ValueId>& row : pending) {
          if (full->Insert(row)) changed = true;
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
    EvalStats* stats = result_.mutable_stats();
    std::vector<plan::ProbeObservation> probe_obs;
    for (size_t i = 0; i < rules_.size(); ++i) {
      DrainProbeObservations(rules_[i], plan_.rules[i], &rule_stats_[i],
                             &probe_obs);
    }
    stats->probe_observations = std::move(probe_obs);
    for (auto& [name, rel] : idb_) {
      stats->total_facts += rel->size();
      stats->observed_extents[name] = rel->size();
      AccumulateShardFacts(*rel, &stats->shard_facts);
      result_.mutable_idb()->emplace(name, std::move(rel));
    }
    FoldRuleStats(rule_stats_, stats);
    return std::move(result_);
  }

  const ast::Program& program_;
  Database* db_;
  EvalOptions opts_;
  std::map<std::string, std::unique_ptr<Relation>> idb_;
  plan::ProgramPlan plan_;
  std::vector<CompiledRule> rules_;
  std::vector<JoinStats> rule_stats_;  // index-aligned with rules_
  EvalResult result_;
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
  if (opts.strategy == Strategy::kNaive) {
    NaiveEngine engine(program, db, opts);
    return engine.Run();
  }
  // Semi-naive runs the one partitioned fixpoint engine, inline (no pool).
  exec::ParallelEvalOptions popts;
  popts.eval = opts;
  return exec::EvaluateParallel(program, db, /*pool=*/nullptr, popts);
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

RowTable SortedUniqueRows(const std::vector<ValueId>& cells, size_t width,
                          size_t n) {
  if (n == 0) return RowTable({}, width, 0);
  if (width == 0) return RowTable({}, 0, 1);  // every match is the empty row
  // LSD radix sort of row indices. Digit (c, b) is byte b of column c's id
  // with the sign bit flipped, so unsigned byte order is signed ValueId
  // order; passes run from the last column's low byte to the first column's
  // high byte. One sweep counts every digit's byte values up front.
  auto key = [&cells, width](uint32_t r, size_t c) {
    return static_cast<uint32_t>(cells[r * width + c]) ^ 0x80000000u;
  };
  std::vector<uint32_t> counts(width * 4 * 256, 0);  // [column][byte][value]
  for (uint32_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < width; ++c) {
      const uint32_t k = key(r, c);
      uint32_t* h = &counts[c * 4 * 256];
      ++h[k & 0xFFu];
      ++h[256 + ((k >> 8) & 0xFFu)];
      ++h[512 + ((k >> 16) & 0xFFu)];
      ++h[768 + (k >> 24)];
    }
  }
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);
  {
    std::vector<uint32_t> next(n);
    for (size_t c = width; c-- > 0;) {
      for (int b = 0; b < 4; ++b) {
        uint32_t* start = &counts[(c * 4 + b) * 256];
        // A byte equal across all rows cannot reorder anything: no pass.
        if (start[(key(0, c) >> (8 * b)) & 0xFFu] == n) continue;
        uint32_t sum = 0;
        for (int d = 0; d < 256; ++d) {
          const uint32_t count = start[d];
          start[d] = sum;
          sum += count;
        }
        for (uint32_t r : order) {
          next[start[(key(r, c) >> (8 * b)) & 0xFFu]++] = r;
        }
        order.swap(next);
      }
    }
  }
  // Equal rows are adjacent now: keep the first of each run.
  size_t kept = 0;
  for (size_t i = 0; i < n; ++i) {
    const ValueId* row = cells.data() + size_t{order[i]} * width;
    if (kept > 0 &&
        std::equal(row, row + width,
                   cells.data() + size_t{order[kept - 1]} * width)) {
      continue;
    }
    order[kept++] = order[i];
  }
  std::vector<ValueId> sorted(kept * width);
  for (size_t i = 0; i < kept; ++i) {
    std::copy_n(cells.data() + size_t{order[i]} * width, width,
                sorted.data() + i * width);
  }
  return RowTable(std::move(sorted), width, kept);
}

Result<AnswerSet> ExtractAnswersFrom(const ast::Atom& query, Relation* rel,
                                     ValueStore* store, bool shared) {
  AnswerSet answers;
  answers.vars = query.DistinctVars();
  if (rel == nullptr) return answers;  // unknown predicate: no facts

  const size_t width = answers.vars.size();
  std::vector<ValueId> cells;  // the matches, `width` ids each
  size_t n = 0;
  const std::vector<ast::Term>& args = query.args();
  if (width == args.size() && width == rel->arity() &&
      std::all_of(args.begin(), args.end(),
                  [](const ast::Term& t) { return t.IsVariable(); })) {
    // t(X, Y, ...) with distinct variables: every row is an answer, its
    // columns in variable order.
    n = rel->size();
    cells.resize(n * width);
    for (size_t r = 0; r < n; ++r) {
      // Copy before the next row() call: a page-backed row() aims into a
      // per-thread copy-out ring.
      std::copy_n(rel->row(r), width, cells.data() + r * width);
    }
  } else {
    std::vector<ast::Term> head_args;
    head_args.reserve(width);
    for (const std::string& v : answers.vars) {
      head_args.push_back(ast::Term::Var(v));
    }
    ast::Rule probe(ast::Atom("__ans", std::move(head_args)), {query});
    FACTLOG_ASSIGN_OR_RETURN(CompiledRule rule,
                             CompiledRule::Compile(probe, store));
    JoinStats stats;
    FACTLOG_RETURN_IF_ERROR(EnumerateRule(
        rule, store, {RelationView{rel, nullptr, shared}}, false, &stats,
        [&cells, &n](const std::vector<ValueId>& row,
                     const std::vector<FactKey>*) {
          cells.insert(cells.end(), row.begin(), row.end());
          ++n;
          return true;
        }));
  }
  answers.rows = SortedUniqueRows(cells, width, n);
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
