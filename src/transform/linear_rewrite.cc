#include "transform/linear_rewrite.h"

#include <algorithm>
#include <set>

#include "ast/binding.h"

namespace factlog::transform {

namespace {

using ast::Atom;
using ast::ProjectArgs;
using ast::Rule;
using ast::Term;
using ast::VarsAt;
using ast::VarsWithin;

Status RequireShapes(const core::ProgramClassification& c,
                     core::RuleShape::Kind kind) {
  if (!c.rlc_stable) {
    return Status::FailedPrecondition("program is not RLC-stable: " +
                                      c.diagnostic);
  }
  for (const core::RuleShape& s : c.shapes) {
    if (s.kind == core::RuleShape::Kind::kExit) continue;
    if (s.kind != kind) {
      return Status::FailedPrecondition(
          "rule " + std::to_string(s.rule_index) + " is " +
          core::RuleShapeKindToString(s.kind) + ", expected " +
          core::RuleShapeKindToString(kind));
    }
  }
  return Status::OK();
}

LinearRewriteResult InitResult(const analysis::AdornedProgram& adorned,
                               const core::ProgramClassification& c) {
  LinearRewriteResult out;
  out.goal_name = "m_" + c.predicate;
  const analysis::AdornedPredicate& ap = adorned.predicates().begin()->second;
  out.answer_name = "f" + ap.base;
  return out;
}

void AddSeedAndQuery(const analysis::AdornedProgram& adorned,
                     const core::ProgramClassification& c,
                     LinearRewriteResult* out) {
  std::vector<int> bound_pos = c.adornment.BoundPositions();
  std::vector<int> free_pos = c.adornment.FreePositions();
  out->program.mutable_rules()->insert(
      out->program.mutable_rules()->begin(),
      Rule(Atom(out->goal_name, ProjectArgs(adorned.query(), bound_pos)), {}));
  std::vector<Term> q_vars;
  for (const std::string& v : adorned.query().DistinctVars()) {
    q_vars.push_back(Term::Var(v));
  }
  Atom q_head("query", q_vars);
  out->program.AddRule(
      Rule(q_head,
           {Atom(out->answer_name, ProjectArgs(adorned.query(), free_pos))}));
  out->query = q_head;
  out->program.set_query(out->query);
}

}  // namespace

Result<LinearRewriteResult> RewriteRightLinear(
    const analysis::AdornedProgram& adorned,
    const core::ProgramClassification& classification) {
  FACTLOG_RETURN_IF_ERROR(
      RequireShapes(classification, core::RuleShape::Kind::kRightLinear));
  LinearRewriteResult out = InitResult(adorned, classification);
  std::vector<int> bound_pos = classification.adornment.BoundPositions();
  std::vector<int> free_pos = classification.adornment.FreePositions();

  const auto& rules = adorned.program().rules();
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    const core::RuleShape& shape = classification.shapes[r];
    if (shape.kind == core::RuleShape::Kind::kExit) {
      // ans(Y) :- m(X), exit(X, Y).
      std::vector<Atom> body = {
          Atom(out.goal_name, ProjectArgs(rule.head(), bound_pos))};
      body.insert(body.end(), rule.body().begin(), rule.body().end());
      out.program.AddRule(
          Rule(Atom(out.answer_name, ProjectArgs(rule.head(), free_pos)),
               std::move(body)));
      continue;
    }
    // m(V) :- m(X), first(X, V); the right conjunction is dropped (it is
    // implied by free_exit ⊆ right under selection-pushing).
    std::set<std::string> head_free_vars = VarsAt(rule.head(), free_pos);
    const Atom& occ = rule.body()[shape.occurrences[0].body_index];
    std::vector<Atom> body = {
        Atom(out.goal_name, ProjectArgs(rule.head(), bound_pos))};
    for (size_t b = 0; b < rule.body().size(); ++b) {
      if (static_cast<int>(b) == shape.occurrences[0].body_index) continue;
      if (!VarsWithin(rule.body()[b], head_free_vars)) {
        body.push_back(rule.body()[b]);
      }
    }
    out.program.AddRule(Rule(Atom(out.goal_name, ProjectArgs(occ, bound_pos)),
                             std::move(body)));
  }
  AddSeedAndQuery(adorned, classification, &out);
  return out;
}

Result<LinearRewriteResult> RewriteLeftLinear(
    const analysis::AdornedProgram& adorned,
    const core::ProgramClassification& classification) {
  FACTLOG_RETURN_IF_ERROR(
      RequireShapes(classification, core::RuleShape::Kind::kLeftLinear));
  LinearRewriteResult out = InitResult(adorned, classification);
  std::vector<int> bound_pos = classification.adornment.BoundPositions();
  std::vector<int> free_pos = classification.adornment.FreePositions();

  const auto& rules = adorned.program().rules();
  for (size_t r = 0; r < rules.size(); ++r) {
    const Rule& rule = rules[r];
    const core::RuleShape& shape = classification.shapes[r];
    std::set<std::string> head_bound_vars = VarsAt(rule.head(), bound_pos);

    if (shape.kind == core::RuleShape::Kind::kExit) {
      std::vector<Atom> body = {
          Atom(out.goal_name, ProjectArgs(rule.head(), bound_pos))};
      body.insert(body.end(), rule.body().begin(), rule.body().end());
      out.program.AddRule(
          Rule(Atom(out.answer_name, ProjectArgs(rule.head(), free_pos)),
               std::move(body)));
      continue;
    }

    // Partition EDB atoms into left (over the bound head variables) and
    // last (the rest).
    std::vector<Atom> left_atoms, last_atoms;
    std::set<int> occ_indices;
    for (const core::OccurrenceInfo& occ : shape.occurrences) {
      occ_indices.insert(occ.body_index);
    }
    for (size_t b = 0; b < rule.body().size(); ++b) {
      if (occ_indices.count(static_cast<int>(b)) > 0) continue;
      if (VarsWithin(rule.body()[b], head_bound_vars)) {
        left_atoms.push_back(rule.body()[b]);
      } else {
        last_atoms.push_back(rule.body()[b]);
      }
    }
    bool bound_used_in_last = std::any_of(
        last_atoms.begin(), last_atoms.end(), [&](const Atom& a) {
          std::vector<std::string> vars;
          a.CollectVars(&vars);
          return std::any_of(vars.begin(), vars.end(),
                             [&](const std::string& v) {
                               return head_bound_vars.count(v) > 0;
                             });
        });

    std::vector<Atom> body;
    if (!left_atoms.empty() || bound_used_in_last) {
      // ans(Y) :- m(X), left(X), ans(U1), ..., ans(Um), last(U, Y).
      body.push_back(Atom(out.goal_name, ProjectArgs(rule.head(), bound_pos)));
      body.insert(body.end(), left_atoms.begin(), left_atoms.end());
    }
    for (const core::OccurrenceInfo& occ : shape.occurrences) {
      body.push_back(Atom(out.answer_name,
                          ProjectArgs(rule.body()[occ.body_index], free_pos)));
    }
    body.insert(body.end(), last_atoms.begin(), last_atoms.end());
    out.program.AddRule(
        Rule(Atom(out.answer_name, ProjectArgs(rule.head(), free_pos)),
             std::move(body)));
  }
  AddSeedAndQuery(adorned, classification, &out);
  return out;
}

}  // namespace factlog::transform
