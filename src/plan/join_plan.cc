#include "plan/join_plan.h"

#include <algorithm>
#include <cmath>

#include "ast/special_predicates.h"
#include "plan/stats_catalog.h"

namespace factlog::plan {

namespace {

uint64_t RoundRows(double rows) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(rows)));
}

bool TermGround(const ast::Term& t, const std::set<std::string>& bound) {
  switch (t.kind()) {
    case ast::Term::Kind::kVariable:
      return bound.count(t.var_name()) > 0;
    case ast::Term::Kind::kInt:
    case ast::Term::Kind::kSymbol:
      return true;
    case ast::Term::Kind::kCompound:
      for (const ast::Term& a : t.args()) {
        if (!TermGround(a, bound)) return false;
      }
      return true;
  }
  return false;
}

void BindTerm(const ast::Term& t, std::set<std::string>* bound) {
  std::vector<std::string> vars;
  t.CollectVars(&vars);
  bound->insert(vars.begin(), vars.end());
}

void BindAtom(const ast::Atom& a, std::set<std::string>* bound) {
  std::vector<std::string> vars;
  a.CollectVars(&vars);
  bound->insert(vars.begin(), vars.end());
}

// Whether the builtin literal can run under `bound`, mirroring the engines'
// runtime requirements (eval/rule_eval.cc).
bool BuiltinExecutable(const ast::Atom& a, const std::set<std::string>& bound) {
  const std::string& p = a.predicate();
  if (p == ast::kEqualPredicate) {
    return a.arity() == 2 && (TermGround(a.args()[0], bound) ||
                              TermGround(a.args()[1], bound));
  }
  if (p == ast::kAffinePredicate) {
    return a.arity() == 4 && TermGround(a.args()[1], bound) &&
           TermGround(a.args()[2], bound) &&
           (TermGround(a.args()[0], bound) || TermGround(a.args()[3], bound));
  }
  if (p == ast::kGeqPredicate) {
    return a.arity() == 2 && TermGround(a.args()[0], bound) &&
           TermGround(a.args()[1], bound);
  }
  return false;
}

// Binding effect of running a literal under `bound` (matches
// eval::StaticIndexCols): a relation match grounds every variable; equal and
// affine bind the side computed from the ground one; geq binds nothing.
void BindLiteral(const ast::Atom& a, std::set<std::string>* bound) {
  const std::string& p = a.predicate();
  if (!ast::IsBuiltinPredicate(p)) {
    BindAtom(a, bound);
    return;
  }
  if (p == ast::kEqualPredicate && a.arity() == 2) {
    if (TermGround(a.args()[0], *bound)) {
      BindTerm(a.args()[1], bound);
    } else if (TermGround(a.args()[1], *bound)) {
      BindTerm(a.args()[0], bound);
    }
  } else if (p == ast::kAffinePredicate && a.arity() == 4) {
    if (TermGround(a.args()[0], *bound)) {
      BindTerm(a.args()[3], bound);
    } else if (TermGround(a.args()[3], *bound)) {
      BindTerm(a.args()[0], bound);
    }
  }
  // geq: pure test.
}

std::vector<int> GroundCols(const ast::Atom& a,
                            const std::set<std::string>& bound) {
  std::vector<int> cols;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (TermGround(a.args()[i], bound)) cols.push_back(static_cast<int>(i));
  }
  return cols;
}

uint64_t BaseEstimate(const std::string& pred, const PlanOptions& opts) {
  if (opts.delta_preds.count(pred) > 0) {
    // A measured mean delta size beats the flat default: a fixpoint whose
    // frontier actually runs thousands of rows wide plans accordingly.
    auto dit = opts.delta_hints.find(pred);
    if (dit != opts.delta_hints.end()) return RoundRows(dit->second);
    return opts.cost.delta_rows;
  }
  auto it = opts.extent_hints.find(pred);
  if (it != opts.extent_hints.end()) return std::max<uint64_t>(1, it->second);
  return opts.cost.default_rows;
}

// Cost of scheduling relation literal `a` next: its extent estimate shrunk
// by a fixed selectivity per ground argument position; a fully ground
// literal is a containment check (cost 0). A measured selectivity for the
// literal's exact adornment (rows matched per probe with these columns
// bound) replaces the shift model outright — except for delta occurrences,
// whose probe statistics are dominated by the much larger full extent and
// would push the semi-naive frontier out of the driver seat.
uint64_t LiteralCost(const ast::Atom& a, const std::set<std::string>& bound,
                     const PlanOptions& opts) {
  std::vector<int> cols = GroundCols(a, bound);
  const size_t ground = cols.size();
  if (ground == a.arity() && a.arity() > 0) return 0;
  if (opts.delta_preds.count(a.predicate()) == 0) {
    auto pit = opts.probe_hints.find(a.predicate());
    if (pit != opts.probe_hints.end()) {
      auto hit = pit->second.find(AdornmentPattern(a.arity(), cols));
      if (hit != pit->second.end()) return RoundRows(hit->second);
    }
  }
  uint64_t est = BaseEstimate(a.predicate(), opts);
  unsigned shift = static_cast<unsigned>(
      std::min<size_t>(ground * opts.cost.bits_per_bound_col, 60));
  return std::max<uint64_t>(1, est >> shift);
}

// True when every builtin is executable at its source position — the
// contract left-to-right evaluation relies on. Rules violating it keep
// their source order so the runtime error is preserved verbatim.
bool SourceOrderWellFormed(const ast::Rule& rule) {
  std::set<std::string> bound;
  for (const ast::Atom& lit : rule.body()) {
    if (ast::IsBuiltinPredicate(lit.predicate())) {
      if (!BuiltinExecutable(lit, bound)) return false;
    }
    BindLiteral(lit, &bound);
  }
  return true;
}

// Appends literal `idx` to the plan, recording its index columns and
// binding its variables.
void Schedule(const ast::Rule& rule, size_t idx, uint64_t est,
              std::set<std::string>* bound, JoinPlan* plan) {
  const ast::Atom& lit = rule.body()[idx];
  LiteralPlan lp;
  lp.body_index = idx;
  lp.is_relation = !ast::IsBuiltinPredicate(lit.predicate());
  lp.est_rows = est;
  if (lp.is_relation) lp.index_cols = GroundCols(lit, *bound);
  if (lp.is_relation && plan->driver < 0) {
    plan->driver = static_cast<int>(idx);
  }
  plan->order.push_back(std::move(lp));
  BindLiteral(lit, bound);
}

}  // namespace

JoinPlan PlanRule(const ast::Rule& rule, const PlanOptions& opts) {
  const std::vector<ast::Atom>& body = rule.body();
  JoinPlan plan;
  plan.order.reserve(body.size());
  std::set<std::string> bound;

  const bool reorder = opts.reorder && SourceOrderWellFormed(rule);

  if (!reorder) {
    for (size_t i = 0; i < body.size(); ++i) {
      Schedule(rule, i, BaseEstimate(body[i].predicate(), opts), &bound,
               &plan);
    }
    return plan;
  }

  std::vector<bool> done(body.size(), false);
  size_t remaining = body.size();

  while (remaining > 0) {
    // Builtins run the moment their inputs are bound: they filter or compute
    // in O(1) and may bind variables that make later literals cheaper.
    bool scheduled_builtin = false;
    for (size_t i = 0; i < body.size(); ++i) {
      if (done[i] || !ast::IsBuiltinPredicate(body[i].predicate())) continue;
      if (BuiltinExecutable(body[i], bound)) {
        Schedule(rule, i, 0, &bound, &plan);
        done[i] = true;
        --remaining;
        scheduled_builtin = true;
        break;
      }
    }
    if (scheduled_builtin) continue;

    // Cheapest relation literal next; ties break toward source order.
    size_t best = body.size();
    uint64_t best_cost = 0;
    for (size_t i = 0; i < body.size(); ++i) {
      if (done[i] || ast::IsBuiltinPredicate(body[i].predicate())) continue;
      uint64_t cost = LiteralCost(body[i], bound, opts);
      if (best == body.size() || cost < best_cost) {
        best = i;
        best_cost = cost;
      }
    }
    if (best == body.size()) {
      // Only unexecutable builtins remain — impossible for a well-formed
      // source order (checked above), but stay total: emit in source order.
      for (size_t i = 0; i < body.size(); ++i) {
        if (done[i]) continue;
        Schedule(rule, i, 0, &bound, &plan);
        done[i] = true;
        --remaining;
      }
      break;
    }
    Schedule(rule, best, BaseEstimate(body[best].predicate(), opts), &bound,
             &plan);
    done[best] = true;
    --remaining;
  }

  for (size_t k = 0; k < plan.order.size(); ++k) {
    if (plan.order[k].body_index != k) {
      plan.reordered = true;
      break;
    }
  }
  return plan;
}

std::string JoinPlan::Summary() const {
  std::string out = "order [";
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0) out += ", ";
    out += std::to_string(order[k].body_index);
  }
  out += "] driver ";
  out += driver < 0 ? "-" : std::to_string(driver);
  out += " index cols [";
  for (size_t k = 0; k < order.size(); ++k) {
    if (k > 0) out += " ";
    out += "[";
    for (size_t c = 0; c < order[k].index_cols.size(); ++c) {
      if (c > 0) out += ",";
      out += std::to_string(order[k].index_cols[c]);
    }
    out += "]";
  }
  out += "]";
  return out;
}

bool ProgramPlan::Compatible(const ast::Program& program) const {
  if (rules.size() != program.rules().size()) return false;
  for (size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].order.size() != program.rules()[i].body().size()) {
      return false;
    }
  }
  return true;
}

size_t ProgramPlan::reordered_rules() const {
  size_t n = 0;
  for (const JoinPlan& p : rules) {
    if (p.reordered) ++n;
  }
  return n;
}

ProgramPlan PlanProgram(const ast::Program& program, PlanOptions opts) {
  for (const std::string& p : program.IdbPredicates()) {
    opts.delta_preds.insert(p);
  }
  ProgramPlan plan;
  plan.rules.reserve(program.rules().size());
  for (const ast::Rule& rule : program.rules()) {
    plan.rules.push_back(PlanRule(rule, opts));
  }
  return plan;
}

std::vector<std::pair<std::string, std::vector<int>>> BaseIndexNeeds(
    const ast::Program& program, const ProgramPlan& program_plan,
    const ast::Atom& query) {
  std::vector<std::pair<std::string, std::vector<int>>> needs;
  if (!program_plan.Compatible(program)) return needs;
  // IDB predicates are private per evaluation and need no shared index.
  const std::set<std::string> idb = program.IdbPredicates();
  for (size_t i = 0; i < program.rules().size(); ++i) {
    const ast::Rule& rule = program.rules()[i];
    for (const LiteralPlan& lp : program_plan.rules[i].order) {
      if (!lp.is_relation || lp.index_cols.empty()) continue;
      const std::string& pred = rule.body()[lp.body_index].predicate();
      if (idb.count(pred) == 0) needs.emplace_back(pred, lp.index_cols);
    }
  }
  if (idb.count(query.predicate()) == 0) {
    // Answer extraction probes a base query predicate on the query's ground
    // argument positions.
    std::vector<int> cols;
    for (size_t i = 0; i < query.arity(); ++i) {
      if (query.args()[i].IsGround()) cols.push_back(static_cast<int>(i));
    }
    if (!cols.empty()) needs.emplace_back(query.predicate(), std::move(cols));
  }
  return needs;
}

std::string Explain(const ast::Program& program, const ProgramPlan& plan,
                    const StatsCatalog* observed) {
  std::map<std::string, PredicateStats> stats;
  if (observed != nullptr) stats = observed->Snapshot();
  std::string out;
  const size_t n = std::min(plan.rules.size(), program.rules().size());
  for (size_t i = 0; i < n; ++i) {
    const ast::Rule& rule = program.rules()[i];
    const JoinPlan& jp = plan.rules[i];
    out += "rule " + std::to_string(i) + ": " + rule.ToString() + "\n";
    for (size_t k = 0; k < jp.order.size(); ++k) {
      const LiteralPlan& lp = jp.order[k];
      const ast::Atom& lit = rule.body()[lp.body_index];
      out += "  " + std::to_string(k) + ". " + lit.ToString();
      if (!lp.is_relation) {
        out += "  (builtin)";
      } else {
        out += "  index [";
        for (size_t c = 0; c < lp.index_cols.size(); ++c) {
          if (c > 0) out += ", ";
          out += std::to_string(lp.index_cols[c]);
        }
        out += "] est " + std::to_string(lp.est_rows) + " rows";
        if (observed != nullptr) {
          // Observed column: the measured rows-per-probe for this literal's
          // adornment when one exists, else the decayed observed extent.
          auto sit = stats.find(lit.predicate());
          std::string obs = "-";
          if (sit != stats.end()) {
            auto pit = sit->second.probes.find(
                AdornmentPattern(lit.arity(), lp.index_cols));
            if (pit != sit->second.probes.end() && pit->second.runs > 0) {
              obs = std::to_string(RoundRows(pit->second.MatchedPerProbe()));
            } else if (sit->second.extent_runs > 0) {
              obs = std::to_string(RoundRows(sit->second.extent)) + " extent";
            }
          }
          out += ", observed " + obs;
        }
        if (static_cast<int>(lp.body_index) == jp.driver) out += "  <- driver";
      }
      out += "\n";
    }
    if (jp.order.empty()) out += "  (fact)\n";
  }
  return out;
}

}  // namespace factlog::plan
