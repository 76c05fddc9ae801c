#include "analysis/adornment.h"

#include <deque>
#include <set>

#include "ast/binding.h"

namespace factlog::analysis {

Adornment Adornment::ForQuery(const ast::Atom& query) {
  std::string pattern;
  pattern.reserve(query.arity());
  for (const ast::Term& t : query.args()) {
    pattern.push_back(t.IsGround() ? 'b' : 'f');
  }
  return Adornment(std::move(pattern));
}

size_t Adornment::NumBound() const {
  size_t n = 0;
  for (char c : pattern_) {
    if (c == 'b') ++n;
  }
  return n;
}

std::vector<int> Adornment::BoundPositions() const {
  std::vector<int> out;
  for (size_t i = 0; i < pattern_.size(); ++i) {
    if (pattern_[i] == 'b') out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<int> Adornment::FreePositions() const {
  std::vector<int> out;
  for (size_t i = 0; i < pattern_.size(); ++i) {
    if (pattern_[i] == 'f') out.push_back(static_cast<int>(i));
  }
  return out;
}

std::vector<ast::Term> BoundArgs(const ast::Atom& atom,
                                 const AdornedPredicate& ap) {
  return ast::ProjectArgs(atom, ap.adornment.BoundPositions());
}

Result<AdornedProgram> Adorn(const ast::Program& program,
                             const ast::Atom& query) {
  FACTLOG_RETURN_IF_ERROR(program.ValidateArities());
  AdornedProgram out;
  std::set<std::string> idb = program.IdbPredicates();
  if (idb.count(query.predicate()) == 0) {
    return Status::Invalid("query predicate '" + query.predicate() +
                           "' is not defined by any rule");
  }

  out.query_pred_ = AdornedPredicate{query.predicate(),
                                     Adornment::ForQuery(query)};
  out.query_ = ast::Atom(out.query_pred_.Name(), query.args());

  std::deque<AdornedPredicate> worklist = {out.query_pred_};
  std::set<std::string> done;

  while (!worklist.empty()) {
    AdornedPredicate ap = worklist.front();
    worklist.pop_front();
    if (!done.insert(ap.Name()).second) continue;
    out.predicates_.emplace(ap.Name(), ap);

    int rule_index = -1;
    for (const ast::Rule& rule : program.rules()) {
      ++rule_index;
      if (rule.head().predicate() != ap.base) continue;

      // Variables bound at rule entry: those in bound head positions.
      std::set<std::string> bound;
      for (size_t i = 0; i < rule.head().arity(); ++i) {
        if (ap.adornment.IsBound(i)) {
          ast::AddVars(rule.head().args()[i], &bound);
        }
      }

      AdornedRuleInfo info;
      info.source_rule_index = rule_index;
      info.head = ap;
      ast::Rule adorned_rule(ast::Atom(ap.Name(), rule.head().args()), {});

      // Relation literals in source order; each builtin where it is written,
      // or later, once it is ready. Every prefix of the adorned body then
      // runs, which the magic and supplementary rules that copy it rely on.
      // Builtins that never become ready (lint's L002) go last.
      for (size_t b : ast::ScheduleBody(rule.body(), bound).order) {
        const ast::Atom& lit = rule.body()[b];
        if (idb.count(lit.predicate()) == 0) {
          adorned_rule.mutable_body()->push_back(lit);
          info.body.push_back(std::nullopt);
        } else {
          std::string pattern;
          pattern.reserve(lit.arity());
          for (const ast::Term& t : lit.args()) {
            pattern.push_back(ast::GroundUnder(t, bound) ? 'b' : 'f');
          }
          AdornedPredicate body_ap{lit.predicate(), Adornment(pattern)};
          adorned_rule.mutable_body()->push_back(
              ast::Atom(body_ap.Name(), lit.args()));
          info.body.push_back(body_ap);
          if (done.count(body_ap.Name()) == 0) worklist.push_back(body_ap);
        }
        // Answers of an IDB literal bind its remaining variables.
        ast::Bind(lit, &bound);
      }
      out.program_.AddRule(std::move(adorned_rule));
      out.rule_info_.push_back(std::move(info));
    }
  }
  out.program_.set_query(out.query_);
  return out;
}

}  // namespace factlog::analysis
