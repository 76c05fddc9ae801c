#include "analysis/cq.h"

#include <set>

#include "ast/special_predicates.h"
#include "ast/substitution.h"
#include "ast/unify.h"

namespace factlog::analysis {

ConjunctiveQuery ConjunctiveQuery::WithHeadVars(
    const std::vector<std::string>& vars, std::vector<ast::Atom> body) {
  std::vector<ast::Term> head;
  head.reserve(vars.size());
  for (const std::string& v : vars) head.push_back(ast::Term::Var(v));
  return ConjunctiveQuery(std::move(head), std::move(body));
}

Status ConjunctiveQuery::Normalize() {
  ast::Substitution subst;
  std::vector<ast::Atom> rest;
  for (const ast::Atom& atom : body_) {
    if (atom.predicate() == ast::kEqualPredicate) {
      if (atom.arity() != 2) {
        return Status::Invalid("equal/2 with arity " +
                               std::to_string(atom.arity()));
      }
      ast::Term lhs = subst.DeepApply(atom.args()[0]);
      ast::Term rhs = subst.DeepApply(atom.args()[1]);
      if (!ast::Unify(lhs, rhs, &subst)) {
        // Two distinct constants (or an occurs-check failure) were equated:
        // the conjunction denotes the empty relation.
        unsat_ = true;
      }
    } else {
      rest.push_back(atom);
    }
  }
  if (unsat_) {
    body_.clear();
    return Status::OK();
  }
  body_.clear();
  body_.reserve(rest.size());
  for (const ast::Atom& atom : rest) body_.push_back(subst.DeepApply(atom));
  for (ast::Term& t : head_) t = subst.DeepApply(t);
  return Status::OK();
}

namespace {

// Backtracking homomorphism search: maps every atom of `pattern_body`
// (starting at `index`) into some atom of `target_body` under `subst`.
// Target variables are opaque constants (one-way matching).
bool FindHomomorphism(const std::vector<ast::Atom>& pattern_body,
                      const std::vector<ast::Atom>& target_body, size_t index,
                      const ast::Substitution& subst) {
  if (index == pattern_body.size()) return true;
  for (const ast::Atom& target : target_body) {
    ast::Substitution attempt = subst;
    if (ast::MatchAtom(pattern_body[index], target, &attempt) &&
        FindHomomorphism(pattern_body, target_body, index + 1, attempt)) {
      return true;
    }
  }
  return false;
}

}  // namespace

bool ConjunctiveQuery::ContainedIn(const ConjunctiveQuery& other) const {
  ConjunctiveQuery sub = *this;
  ConjunctiveQuery super = other;
  if (!sub.Normalize().ok() || !super.Normalize().ok()) return false;
  if (sub.unsatisfiable()) return true;   // empty set is contained everywhere
  if (super.unsatisfiable()) return false;
  if (sub.head_.size() != super.head_.size()) return false;

  // Rename the containing query's variables apart from ours: the
  // homomorphism maps its variables to our terms, and shared names would
  // otherwise create cyclic bindings.
  {
    ast::Substitution rename;
    std::set<std::string> seen;
    int i = 0;
    auto rename_vars = [&](const ast::Atom& a) {
      for (const std::string& v : a.DistinctVars()) {
        if (seen.insert(v).second) {
          rename.Bind(v, ast::Term::Var("_H" + std::to_string(i++)));
        }
      }
    };
    for (const ast::Atom& a : super.body_) rename_vars(a);
    for (ast::Term& t : super.head_) {
      std::vector<std::string> vars;
      t.CollectVars(&vars);
      for (const std::string& v : vars) {
        if (seen.insert(v).second) {
          rename.Bind(v, ast::Term::Var("_H" + std::to_string(i++)));
        }
      }
      t = rename.Apply(t);
    }
    for (ast::Atom& a : super.body_) a = rename.Apply(a);
  }

  // Chandra–Merlin: this ⊆ other iff there is a homomorphism from `other`
  // (the containing query) into `this` that respects the head.
  ast::Substitution subst;
  for (size_t i = 0; i < super.head_.size(); ++i) {
    if (!ast::MatchTerm(super.head_[i], sub.head_[i], &subst)) return false;
  }
  return FindHomomorphism(super.body_, sub.body_, 0, subst);
}

std::string ConjunctiveQuery::ToString() const {
  std::string out = "(";
  for (size_t i = 0; i < head_.size(); ++i) {
    if (i > 0) out += ", ";
    out += head_[i].ToString();
  }
  out += ") :- ";
  if (unsat_) {
    out += "false";
    return out;
  }
  if (body_.empty()) {
    out += "true";
    return out;
  }
  for (size_t i = 0; i < body_.size(); ++i) {
    if (i > 0) out += ", ";
    out += body_[i].ToString();
  }
  return out;
}

}  // namespace factlog::analysis
