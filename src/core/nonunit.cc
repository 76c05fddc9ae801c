#include "core/nonunit.h"

#include <set>

#include "ast/binding.h"
#include "core/factorability.h"

namespace factlog::core {

namespace {

using ast::Atom;
using ast::Intersects;
using ast::Rule;
using ast::VarsAt;

// Union of the variables of all body atoms (excluding `skip_pred` literals)
// connected, transitively through shared variables, to the seed set.
std::set<std::string> ComponentClosure(const Rule& rule,
                                       const std::string& skip_pred,
                                       std::set<std::string> seed) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (const Atom& lit : rule.body()) {
      if (lit.predicate() == skip_pred) continue;
      const std::set<std::string> vars = ast::AtomVars(lit);
      if (Intersects(vars, seed)) {
        for (const std::string& v : vars) {
          if (seed.insert(v).second) changed = true;
        }
      }
    }
  }
  return seed;
}

}  // namespace

Result<NonUnitResult> FactorInnerPredicate(const ast::Program& program,
                                           const ast::Atom& query,
                                           const std::string& pred) {
  NonUnitResult out;
  FACTLOG_ASSIGN_OR_RETURN(out.adorned, analysis::Adorn(program, query));

  // (C1): a single reachable adornment of `pred`.
  const analysis::AdornedPredicate* target = nullptr;
  for (const auto& [name, ap] : out.adorned.predicates()) {
    if (ap.base != pred) continue;
    if (target != nullptr) {
      out.report.reasons.push_back(
          "C1: multiple adornments of " + pred + " are reachable (" +
          target->Name() + ", " + name + ")");
      FACTLOG_ASSIGN_OR_RETURN(out.magic, transform::MagicSets(out.adorned));
      return out;
    }
    target = &ap;
  }
  if (target == nullptr) {
    return Status::NotFound("predicate '" + pred +
                            "' is not reachable from the query");
  }
  out.report.predicate = target->Name();
  out.report.adornment = target->adornment;

  // Split the adorned rules into the sub-program defining p^a and the rest.
  std::vector<Rule> sub_rules;
  std::vector<const Rule*> other_rules;
  for (const Rule& r : out.adorned.program().rules()) {
    if (r.head().predicate() == target->Name()) {
      sub_rules.push_back(r);
    } else {
      other_rules.push_back(&r);
    }
  }

  // (C2): the sub-program is self-contained, right-linear/exit, and
  // selection-pushing.
  bool c2 = true;
  std::set<std::string> idb = out.adorned.program().IdbPredicates();
  for (const Rule& r : sub_rules) {
    for (const Atom& b : r.body()) {
      if (b.predicate() != target->Name() && idb.count(b.predicate()) > 0) {
        out.report.reasons.push_back(
            "C2: definition of " + target->Name() +
            " references another IDB predicate: " + b.predicate());
        c2 = false;
      }
    }
  }
  if (c2) {
    FACTLOG_ASSIGN_OR_RETURN(
        out.report.classification,
        ClassifyRules(sub_rules, target->Name(), target->adornment));
    if (!out.report.classification.rlc_stable) {
      out.report.reasons.push_back("C2: sub-program is not RLC-stable: " +
                                   out.report.classification.diagnostic);
      c2 = false;
    }
  }
  if (c2) {
    for (const RuleShape& s : out.report.classification.shapes) {
      if (s.kind != RuleShape::Kind::kExit &&
          s.kind != RuleShape::Kind::kRightLinear) {
        out.report.reasons.push_back(
            "C2: rule " + std::to_string(s.rule_index) + " is " +
            RuleShapeKindToString(s.kind) +
            "; only right-linear definitions are safe under multiple seeds "
            "(Example 7.2's P2 case)");
        c2 = false;
      }
    }
  }
  if (c2) {
    FACTLOG_ASSIGN_OR_RETURN(FactorabilityReport fr,
                             CheckFactorability(out.report.classification));
    if (!fr.selection_pushing) {
      out.report.reasons.push_back(
          "C2: sub-program is not selection-pushing");
      for (const std::string& f : fr.failures) {
        out.report.reasons.push_back("  " + f);
      }
      c2 = false;
    }
  }

  // (C3): one call site; its bound-side component is invisible.
  std::vector<int> bound_pos = target->adornment.BoundPositions();
  std::vector<int> free_pos = target->adornment.FreePositions();
  int call_sites = 0;
  bool c3 = true;
  for (const Rule* r : other_rules) {
    for (const Atom& lit : r->body()) {
      if (lit.predicate() != target->Name()) continue;
      ++call_sites;
      std::set<std::string> bound_vars = VarsAt(lit, bound_pos);
      std::set<std::string> component =
          ComponentClosure(*r, target->Name(), bound_vars);
      std::vector<std::string> head_vars;
      r->head().CollectVars(&head_vars);
      std::set<std::string> head_set(head_vars.begin(), head_vars.end());
      if (Intersects(component, head_set)) {
        out.report.reasons.push_back(
            "C3: the goal-feeding component of the call in rule '" +
            r->ToString() + "' reaches a head variable");
        c3 = false;
      }
      std::set<std::string> free_vars = VarsAt(lit, free_pos);
      if (Intersects(component, free_vars)) {
        out.report.reasons.push_back(
            "C3: the goal-feeding component correlates with the call's "
            "answer variables in rule '" + r->ToString() + "'");
        c3 = false;
      }
    }
  }
  if (call_sites != 1) {
    out.report.reasons.push_back(
        "C3: expected exactly one call site of " + target->Name() +
        ", found " + std::to_string(call_sites));
    c3 = false;
  }

  FACTLOG_ASSIGN_OR_RETURN(out.magic, transform::MagicSets(out.adorned));
  out.report.factorable = c2 && c3;
  if (!out.report.factorable) return out;

  FactorSplit split;
  split.predicate = target->Name();
  split.part1 = bound_pos;
  split.part2 = free_pos;
  split.name1 = "b" + target->base;
  split.name2 = "f" + target->base;
  FACTLOG_ASSIGN_OR_RETURN(
      FactoredProgram factored,
      FactorTransform(out.magic.program, out.magic.query, split));
  out.factored = std::move(factored);
  return out;
}

}  // namespace factlog::core
