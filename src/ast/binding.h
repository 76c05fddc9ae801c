// The binding model of body literals, shared by lint (L001/L002), adornment,
// the join planner and the §4 body-order search.
//
// A body literal has two binding properties:
//  * readiness: what must be bound before it can run. A relation literal is
//    always ready (it is matched against stored rows). `equal(X, Y)` needs
//    one side ground, `affine(X, A, B, Z)` needs A, B and one of X or Z,
//    and `geq(X, C)` needs both arguments. A builtin of the wrong arity is
//    never ready.
//  * what running it binds: a relation literal binds all of its variables;
//    `equal` and `affine` bind only the side they compute; `geq` binds
//    nothing.
//
// On top of the two, `ScheduleBody` runs a body one ready literal at a time
// and reports the builtins that never become ready. The engines' runtime
// checks (eval/rule_eval.cc) enforce the same rules, and
// eval::StaticIndexCols recomputes them independently as the planner's
// test oracle.

#ifndef FACTLOG_AST_BINDING_H_
#define FACTLOG_AST_BINDING_H_

#include <cstddef>
#include <functional>
#include <set>
#include <string>
#include <vector>

#include "ast/atom.h"

namespace factlog::ast {

// ---- Variable helpers ----

/// Adds every variable of `t` (or `a`) to `vars`.
void AddVars(const Term& t, std::set<std::string>* vars);
void AddVars(const Atom& a, std::set<std::string>* vars);

/// The variables of `atom`, as a set.
std::set<std::string> AtomVars(const Atom& atom);

/// The variables of the arguments of `atom` at positions `pos`.
std::set<std::string> VarsAt(const Atom& atom, const std::vector<int>& pos);

/// The arguments of `atom` at positions `pos`, in that order.
std::vector<Term> ProjectArgs(const Atom& atom, const std::vector<int>& pos);

/// True when every variable of `atom` belongs to `allowed`.
bool VarsWithin(const Atom& atom, const std::set<std::string>& allowed);

/// True when `a` and `b` share a variable.
bool Intersects(const std::set<std::string>& a,
                const std::set<std::string>& b);

// ---- Readiness and binding ----

/// True when every variable of `t` is in `bound` (ground terms trivially).
bool GroundUnder(const Term& t, const std::set<std::string>& bound);

/// True when `lit` can run once the variables in `bound` are bound.
bool Ready(const Atom& lit, const std::set<std::string>& bound);

/// Adds to `bound` what running `lit` binds. A builtin that is not ready
/// binds nothing.
void Bind(const Atom& lit, std::set<std::string>* bound);

// ---- The schedule ----

struct BodySchedule {
  /// Every body index: the literals that ran, in run order, then `unrun`.
  std::vector<size_t> order;
  /// Body indices of the builtins that never became ready, ascending.
  std::vector<size_t> unrun;
  /// Variables bound once every literal that ran has run.
  std::set<std::string> bound;
};

/// Chooses the next literal to run. `ready` holds the body indices of the
/// pending literals that are ready under `bound`, ascending; it is never
/// empty. Returns one of them.
using PickNext = std::function<size_t(const std::vector<size_t>& ready,
                                      const std::set<std::string>& bound)>;

/// The source-order choice: the first ready literal. Relation literals then
/// keep their written order, and each builtin runs where it is written, or
/// at the first later point where it is ready.
size_t FirstReady(const std::vector<size_t>& ready,
                  const std::set<std::string>& bound);

/// Runs `body` from the variables in `bound`, asking `pick` for the next
/// literal until no pending literal is ready. No literal runs before it is
/// ready. The final bound set and the unrun builtins do not depend on
/// `pick`: running a builtin leaves all of its variables bound, and
/// readiness only grows with the bound set.
BodySchedule ScheduleBody(const std::vector<Atom>& body,
                          std::set<std::string> bound,
                          const PickNext& pick = FirstReady);

}  // namespace factlog::ast

#endif  // FACTLOG_AST_BINDING_H_
