// Unification and one-way matching over AST terms.

#ifndef FACTLOG_AST_UNIFY_H_
#define FACTLOG_AST_UNIFY_H_

#include "ast/substitution.h"

namespace factlog::ast {

/// Unifies `a` and `b` under the bindings already in `*subst`, extending it
/// on success. Performs the occurs check (compound terms make it necessary).
/// Returns false and leaves `*subst` in an unspecified-but-valid state on
/// failure; callers that need rollback should copy first.
bool Unify(const Term& a, const Term& b, Substitution* subst);

/// Unifies two atoms (same predicate, same arity, argumentwise unification).
bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst);

/// One-way match: extends `*subst` so that pattern*subst == ground.
/// Variables in `ground` are treated as constants (never bound), so a
/// homomorphism search can match into a non-ground target. On failure
/// `*subst` may hold partial bindings; callers that need rollback copy
/// first.
bool MatchTerm(const Term& pattern, const Term& ground, Substitution* subst);

/// One-way match of atoms.
bool MatchAtom(const Atom& pattern, const Atom& ground, Substitution* subst);

}  // namespace factlog::ast

#endif  // FACTLOG_AST_UNIFY_H_
