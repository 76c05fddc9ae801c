#include "core/rule_classes.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "analysis/standard_form.h"
#include "ast/binding.h"
#include "ast/substitution.h"

namespace factlog::core {

namespace {

using analysis::ConjunctiveQuery;
using ast::Atom;
using ast::AtomVars;
using ast::Intersects;
using ast::Rule;
using ast::Term;

std::set<std::string> VarSet(const std::vector<std::string>& vars) {
  return std::set<std::string>(vars.begin(), vars.end());
}

// Partition of the EDB atoms of a rule body into connected components by
// shared variables.
std::vector<std::vector<int>> ConnectedComponents(
    const std::vector<const Atom*>& atoms) {
  int n = static_cast<int>(atoms.size());
  std::vector<int> parent(n);
  for (int i = 0; i < n; ++i) parent[i] = i;
  std::function<int(int)> find = [&](int x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  std::vector<std::set<std::string>> vars(n);
  for (int i = 0; i < n; ++i) vars[i] = AtomVars(*atoms[i]);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (Intersects(vars[i], vars[j])) parent[find(i)] = find(j);
    }
  }
  std::map<int, std::vector<int>> groups;
  for (int i = 0; i < n; ++i) groups[find(i)].push_back(i);
  std::vector<std::vector<int>> out;
  for (auto& [root, members] : groups) out.push_back(std::move(members));
  return out;
}

// Head terms of a Definition 4.5 conjunction: the variables of `lit` at the
// given positions.
std::vector<Term> ProjectVars(const Atom& lit, const std::vector<int>& pos) {
  std::vector<Term> out;
  out.reserve(pos.size());
  for (int p : pos) out.push_back(lit.args()[p]);
  return out;
}

std::vector<std::string> ProjectVarNames(const Atom& lit,
                                         const std::vector<int>& pos) {
  std::vector<std::string> out;
  out.reserve(pos.size());
  for (int p : pos) out.push_back(lit.args()[p].var_name());
  return out;
}

// Classifies one standard-form rule; fills in `shape`.
void ClassifyRule(const Rule& rule, const std::string& pred,
                  const analysis::Adornment& adornment, RuleShape* shape) {
  const std::vector<int> bound_pos = adornment.BoundPositions();
  const std::vector<int> free_pos = adornment.FreePositions();
  shape->standard_rule = rule;

  const Atom& head = rule.head();
  std::vector<std::string> hb = ProjectVarNames(head, bound_pos);
  std::vector<std::string> hf = ProjectVarNames(head, free_pos);
  std::set<std::string> hb_set = VarSet(hb);
  std::set<std::string> hf_set = VarSet(hf);

  // Occurrences of the recursive predicate.
  std::vector<const Atom*> edb_atoms;
  for (size_t i = 0; i < rule.body().size(); ++i) {
    const Atom& lit = rule.body()[i];
    if (lit.predicate() != pred) {
      edb_atoms.push_back(&lit);
      continue;
    }
    OccurrenceInfo occ;
    occ.body_index = static_cast<int>(i);
    occ.bound_vars = ProjectVarNames(lit, bound_pos);
    occ.free_vars = ProjectVarNames(lit, free_pos);
    occ.left = (occ.bound_vars == hb);
    occ.right = (occ.free_vars == hf);
    shape->occurrences.push_back(std::move(occ));
  }

  // Exit rules: no recursive occurrence.
  if (shape->occurrences.empty()) {
    shape->kind = RuleShape::Kind::kExit;
    shape->bound_exit = ConjunctiveQuery(ProjectVars(head, bound_pos),
                                         rule.body());
    shape->free_exit = ConjunctiveQuery(ProjectVars(head, free_pos),
                                        rule.body());
    return;
  }

  // Every occurrence must be left- or right-linear, and at most one may be
  // right-linear.
  int lefts = 0;
  const OccurrenceInfo* right_occ = nullptr;
  std::set<std::string> u_vars;  // free vars of left occurrences
  for (const OccurrenceInfo& occ : shape->occurrences) {
    if (occ.left && occ.right) {
      shape->diagnostic = "head literal occurs in body (degenerate rule)";
      return;
    }
    if (occ.left) {
      ++lefts;
      for (const std::string& v : occ.free_vars) u_vars.insert(v);
    } else if (occ.right) {
      if (right_occ != nullptr) {
        shape->diagnostic = "multiple right-linear occurrences";
        return;
      }
      right_occ = &occ;
    } else {
      shape->diagnostic =
          "occurrence at body index " + std::to_string(occ.body_index) +
          " is neither left- nor right-linear";
      return;
    }
  }

  // Left-occurrence answer variables must be fresh (not head free vars);
  // otherwise the rule escapes the Definition 4.1/4.3 template.
  if (Intersects(u_vars, hf_set)) {
    shape->diagnostic = "left occurrence shares its answer variables with "
                        "the head's free arguments";
    return;
  }

  std::set<std::string> v_vars;
  if (right_occ != nullptr) {
    v_vars = VarSet(right_occ->bound_vars);
    if (Intersects(v_vars, hf_set)) {
      shape->diagnostic =
          "right occurrence binds a head free variable in a bound position";
      return;
    }
  }

  std::vector<std::vector<int>> components = ConnectedComponents(edb_atoms);
  auto component_atoms = [&](const std::vector<int>& comp) {
    std::vector<Atom> out;
    for (int i : comp) out.push_back(*edb_atoms[i]);
    return out;
  };
  auto component_vars = [&](const std::vector<int>& comp) {
    std::set<std::string> out;
    for (int i : comp) {
      for (const std::string& v : AtomVars(*edb_atoms[i])) out.insert(v);
    }
    return out;
  };

  if (right_occ == nullptr) {
    // Candidate left-linear rule: EDB atoms split into left(X) and
    // last(U1, ..., Um, Y), disjoint.
    std::vector<Atom> left_atoms, last_atoms;
    for (const auto& comp : components) {
      std::set<std::string> cv = component_vars(comp);
      bool touches_bound = Intersects(cv, hb_set);
      bool touches_free = Intersects(cv, u_vars) || Intersects(cv, hf_set);
      if (touches_bound && touches_free) {
        shape->kind = RuleShape::Kind::kPseudoLeftLinear;
        shape->diagnostic = "left and last conjunctions share variables "
                            "(pseudo-left-linear, Definition 5.3)";
        return;
      }
      auto atoms = component_atoms(comp);
      auto* dst = touches_bound ? &left_atoms : &last_atoms;
      dst->insert(dst->end(), atoms.begin(), atoms.end());
    }
    shape->kind = RuleShape::Kind::kLeftLinear;
    shape->bound_q = ConjunctiveQuery(ProjectVars(head, bound_pos), left_atoms);
    shape->free_last = ConjunctiveQuery(ProjectVars(head, free_pos),
                                        last_atoms);
    return;
  }

  if (lefts == 0) {
    // Candidate right-linear rule: first(X, V) and right(Y), disjoint.
    std::vector<Atom> first_atoms, right_atoms;
    std::set<std::string> xv = hb_set;
    xv.insert(v_vars.begin(), v_vars.end());
    for (const auto& comp : components) {
      std::set<std::string> cv = component_vars(comp);
      bool touches_first = Intersects(cv, xv);
      bool touches_free = Intersects(cv, hf_set);
      if (touches_first && touches_free) {
        shape->diagnostic =
            "first and right conjunctions share variables";
        return;
      }
      auto atoms = component_atoms(comp);
      auto* dst = touches_free ? &right_atoms : &first_atoms;
      dst->insert(dst->end(), atoms.begin(), atoms.end());
    }
    shape->kind = RuleShape::Kind::kRightLinear;
    // bound_first(X) :- first(X, V): head = bound head vars.
    shape->bound_first = ConjunctiveQuery(ProjectVars(head, bound_pos),
                                          first_atoms);
    shape->free_q = ConjunctiveQuery(ProjectVars(head, free_pos), right_atoms);
    return;
  }

  // Candidate combined rule: left(X), center(U, V), right(Y), pairwise
  // disjoint; the right occurrence's bound variables must be fresh.
  if (Intersects(v_vars, hb_set)) {
    shape->diagnostic = "right occurrence shares bound variables with the "
                        "head in a combined rule";
    return;
  }
  std::set<std::string> uv = u_vars;
  uv.insert(v_vars.begin(), v_vars.end());
  std::vector<Atom> left_atoms, center_atoms, right_atoms;
  for (const auto& comp : components) {
    std::set<std::string> cv = component_vars(comp);
    int touches = 0;
    bool tb = Intersects(cv, hb_set);
    bool tm = Intersects(cv, uv);
    bool tf = Intersects(cv, hf_set);
    touches = (tb ? 1 : 0) + (tm ? 1 : 0) + (tf ? 1 : 0);
    if (touches > 1) {
      shape->diagnostic =
          "left/center/right conjunctions share variables in combined rule";
      return;
    }
    auto atoms = component_atoms(comp);
    auto* dst = tb ? &left_atoms : (tf ? &right_atoms : &center_atoms);
    dst->insert(dst->end(), atoms.begin(), atoms.end());
  }
  shape->kind = RuleShape::Kind::kCombined;
  shape->bound_q = ConjunctiveQuery(ProjectVars(head, bound_pos), left_atoms);
  shape->free_q = ConjunctiveQuery(ProjectVars(head, free_pos), right_atoms);
  // middle(U, V): U in body-occurrence order, then V.
  std::vector<Term> middle_head;
  for (const OccurrenceInfo& occ : shape->occurrences) {
    if (!occ.left) continue;
    for (const std::string& v : occ.free_vars) {
      middle_head.push_back(Term::Var(v));
    }
  }
  for (const std::string& v : right_occ->bound_vars) {
    middle_head.push_back(Term::Var(v));
  }
  shape->middle = ConjunctiveQuery(std::move(middle_head), center_atoms);
}

}  // namespace

const char* RuleShapeKindToString(RuleShape::Kind kind) {
  switch (kind) {
    case RuleShape::Kind::kExit:
      return "exit";
    case RuleShape::Kind::kLeftLinear:
      return "left-linear";
    case RuleShape::Kind::kRightLinear:
      return "right-linear";
    case RuleShape::Kind::kCombined:
      return "combined";
    case RuleShape::Kind::kPseudoLeftLinear:
      return "pseudo-left-linear";
    case RuleShape::Kind::kUnclassified:
      return "unclassified";
  }
  return "?";
}

Result<ProgramClassification> ClassifyRules(
    const std::vector<ast::Rule>& adorned_rules, const std::string& pred,
    const analysis::Adornment& adornment) {
  ProgramClassification out;
  out.unit_program = true;
  out.predicate = pred;
  out.adornment = adornment;

  if (adornment.NumBound() == 0 ||
      adornment.NumBound() == adornment.arity()) {
    out.diagnostic = "adornment " + adornment.pattern() +
                     " has no bound or no free positions; factoring into "
                     "bound and free parts would be trivial";
    return out;
  }

  out.shapes.resize(adorned_rules.size());
  bool all_classified = true;
  for (size_t i = 0; i < adorned_rules.size(); ++i) {
    ast::FreshVarGen gen("_S");
    gen.ReserveFrom(adorned_rules[i]);
    auto standard = analysis::ToStandardForm(adorned_rules[i], {pred}, &gen);
    if (!standard.ok()) return standard.status();
    RuleShape& shape = out.shapes[i];
    shape.rule_index = static_cast<int>(i);
    ClassifyRule(*standard, pred, adornment, &shape);
    if (shape.kind == RuleShape::Kind::kExit) {
      ++out.exit_rule_count;
      if (out.exit_rule_index < 0) out.exit_rule_index = static_cast<int>(i);
    }
    if (shape.kind == RuleShape::Kind::kUnclassified ||
        shape.kind == RuleShape::Kind::kPseudoLeftLinear) {
      all_classified = false;
      if (out.diagnostic.empty()) {
        out.diagnostic = "rule " + std::to_string(i) + ": " + shape.diagnostic;
      }
    }
  }

  out.rlc_stable = all_classified && out.exit_rule_count == 1;
  if (all_classified && out.exit_rule_count != 1 && out.diagnostic.empty()) {
    out.diagnostic = "RLC-stable programs require exactly one exit rule, "
                     "found " + std::to_string(out.exit_rule_count);
  }
  return out;
}

Result<ProgramClassification> ClassifyProgram(
    const analysis::AdornedProgram& adorned) {
  if (adorned.predicates().size() != 1) {
    ProgramClassification out;
    out.diagnostic = "not a unit program: " +
                     std::to_string(adorned.predicates().size()) +
                     " adorned predicates are reachable";
    return out;
  }
  const auto& [pred_name, ap] = *adorned.predicates().begin();
  return ClassifyRules(adorned.program().rules(), pred_name, ap.adornment);
}

}  // namespace factlog::core
