#include "ast/binding.h"

#include <algorithm>

#include "ast/special_predicates.h"

namespace factlog::ast {

void AddVars(const Term& t, std::set<std::string>* vars) {
  switch (t.kind()) {
    case Term::Kind::kVariable:
      vars->insert(t.var_name());
      return;
    case Term::Kind::kCompound:
      for (const Term& a : t.args()) AddVars(a, vars);
      return;
    default:
      return;
  }
}

void AddVars(const Atom& a, std::set<std::string>* vars) {
  for (const Term& t : a.args()) AddVars(t, vars);
}

std::set<std::string> AtomVars(const Atom& atom) {
  std::set<std::string> out;
  AddVars(atom, &out);
  return out;
}

std::set<std::string> VarsAt(const Atom& atom, const std::vector<int>& pos) {
  std::set<std::string> out;
  for (int p : pos) AddVars(atom.args()[p], &out);
  return out;
}

std::vector<Term> ProjectArgs(const Atom& atom, const std::vector<int>& pos) {
  std::vector<Term> out;
  out.reserve(pos.size());
  for (int p : pos) out.push_back(atom.args()[p]);
  return out;
}

bool VarsWithin(const Atom& atom, const std::set<std::string>& allowed) {
  return std::all_of(atom.args().begin(), atom.args().end(),
                     [&](const Term& t) { return GroundUnder(t, allowed); });
}

bool Intersects(const std::set<std::string>& a,
                const std::set<std::string>& b) {
  return std::any_of(a.begin(), a.end(),
                     [&b](const std::string& v) { return b.count(v) > 0; });
}

bool GroundUnder(const Term& t, const std::set<std::string>& bound) {
  switch (t.kind()) {
    case Term::Kind::kVariable:
      return bound.count(t.var_name()) > 0;
    case Term::Kind::kCompound:
      return std::all_of(t.args().begin(), t.args().end(),
                         [&](const Term& a) { return GroundUnder(a, bound); });
    default:
      return true;
  }
}

bool Ready(const Atom& lit, const std::set<std::string>& bound) {
  const std::string& p = lit.predicate();
  if (!IsBuiltinPredicate(p)) return true;
  if (lit.arity() != BuiltinArity(p)) return false;
  const std::vector<Term>& args = lit.args();
  if (p == kEqualPredicate) {
    return GroundUnder(args[0], bound) || GroundUnder(args[1], bound);
  }
  if (p == kAffinePredicate) {
    return GroundUnder(args[1], bound) && GroundUnder(args[2], bound) &&
           (GroundUnder(args[0], bound) || GroundUnder(args[3], bound));
  }
  return GroundUnder(args[0], bound) && GroundUnder(args[1], bound);  // geq
}

void Bind(const Atom& lit, std::set<std::string>* bound) {
  const std::string& p = lit.predicate();
  if (!IsBuiltinPredicate(p)) {
    AddVars(lit, bound);
    return;
  }
  if (!Ready(lit, *bound) || p == kGeqPredicate) return;
  // equal computes either side from the other; affine computes Z from X or
  // X from Z. Binding the computed side leaves every variable bound.
  const size_t last = lit.arity() - 1;
  if (GroundUnder(lit.args()[0], *bound)) {
    AddVars(lit.args()[last], bound);
  } else {
    AddVars(lit.args()[0], bound);
  }
}

size_t FirstReady(const std::vector<size_t>& ready,
                  const std::set<std::string>& /*bound*/) {
  return ready.front();
}

BodySchedule ScheduleBody(const std::vector<Atom>& body,
                          std::set<std::string> bound, const PickNext& pick) {
  BodySchedule out;
  out.order.reserve(body.size());
  std::vector<bool> done(body.size(), false);
  std::vector<size_t> ready;
  while (true) {
    ready.clear();
    for (size_t i = 0; i < body.size(); ++i) {
      if (!done[i] && Ready(body[i], bound)) ready.push_back(i);
    }
    if (ready.empty()) break;
    const size_t next = pick(ready, bound);
    done[next] = true;
    out.order.push_back(next);
    Bind(body[next], &bound);
  }
  for (size_t i = 0; i < body.size(); ++i) {
    if (!done[i]) out.unrun.push_back(i);
  }
  out.order.insert(out.order.end(), out.unrun.begin(), out.unrun.end());
  out.bound = std::move(bound);
  return out;
}

}  // namespace factlog::ast
