#include "plan/join_plan.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "ast/binding.h"
#include "ast/special_predicates.h"
#include "plan/stats_catalog.h"

namespace factlog::plan {

namespace {

// The cost model's constants. They only have to *rank* literals, not predict
// cardinalities, so they are deliberately coarse; measured feedback
// (`delta_hints` / `probe_hints`, seeded from a StatsCatalog) overrides them
// wherever an observation exists.
//
// Extent estimate (rows) for predicates without a hint.
constexpr uint64_t kDefaultRows = 1024;
// Bits of selectivity credited per ground argument position: each bound
// column is assumed to cut the extent by 2^4 = 16x.
constexpr unsigned kBitsPerBoundCol = 4;
// Extent estimate (rows) for delta-driven predicates: kDefaultRows / 64,
// keeping the semi-naive frontier planned toward the front.
constexpr uint64_t kDeltaRows = 16;

uint64_t RoundRows(double rows) {
  return std::max<uint64_t>(1, static_cast<uint64_t>(std::llround(rows)));
}

std::vector<int> GroundCols(const ast::Atom& a,
                            const std::set<std::string>& bound) {
  std::vector<int> cols;
  for (size_t i = 0; i < a.arity(); ++i) {
    if (ast::GroundUnder(a.args()[i], bound)) {
      cols.push_back(static_cast<int>(i));
    }
  }
  return cols;
}

uint64_t BaseEstimate(const std::string& pred, const PlanOptions& opts) {
  if (opts.delta_preds.count(pred) > 0) {
    // A measured mean delta size beats the flat default: a fixpoint whose
    // frontier actually runs thousands of rows wide plans accordingly.
    auto dit = opts.delta_hints.find(pred);
    if (dit != opts.delta_hints.end()) return RoundRows(dit->second);
    return kDeltaRows;
  }
  auto it = opts.extent_hints.find(pred);
  if (it != opts.extent_hints.end()) return std::max<uint64_t>(1, it->second);
  return kDefaultRows;
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
      std::min<size_t>(ground * kBitsPerBoundCol, 60));
  return std::max<uint64_t>(1, est >> shift);
}

}  // namespace

JoinPlan PlanRule(const ast::Rule& rule, const PlanOptions& opts) {
  const std::vector<ast::Atom>& body = rule.body();
  std::vector<size_t> order(body.size());
  std::iota(order.begin(), order.end(), 0);
  if (opts.reorder) {
    // Builtins run the moment they are ready: they filter or compute in
    // O(1) and may bind variables that make later literals cheaper. Else the
    // cheapest relation literal runs next; ties break toward source order.
    // Builtins no order makes ready (lint's L002) come last, where the
    // engines reject them.
    order = ast::ScheduleBody(
        body, {},
        [&](const std::vector<size_t>& ready,
            const std::set<std::string>& bound) {
          for (size_t i : ready) {
            if (ast::IsBuiltinPredicate(body[i].predicate())) return i;
          }
          size_t best = ready.front();
          uint64_t best_cost = LiteralCost(body[best], bound, opts);
          for (size_t k = 1; k < ready.size(); ++k) {
            const uint64_t cost = LiteralCost(body[ready[k]], bound, opts);
            if (cost < best_cost) {
              best = ready[k];
              best_cost = cost;
            }
          }
          return best;
        }).order;
  }

  JoinPlan plan;
  plan.order.reserve(body.size());
  std::set<std::string> bound;
  for (size_t idx : order) {
    const ast::Atom& lit = body[idx];
    LiteralPlan lp;
    lp.body_index = idx;
    lp.is_relation = !ast::IsBuiltinPredicate(lit.predicate());
    if (lp.is_relation) {
      lp.est_rows = BaseEstimate(lit.predicate(), opts);
      lp.index_cols = GroundCols(lit, bound);
      if (plan.driver < 0) plan.driver = static_cast<int>(idx);
    }
    if (idx != plan.order.size()) plan.reordered = true;
    plan.order.push_back(std::move(lp));
    ast::Bind(lit, &bound);
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
