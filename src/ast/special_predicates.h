// Names of predicates with special meaning to analyses and engines.

#ifndef FACTLOG_AST_SPECIAL_PREDICATES_H_
#define FACTLOG_AST_SPECIAL_PREDICATES_H_

#include <cstddef>
#include <string>

namespace factlog::ast {

/// `equal(X, Y)`: conceptually an infinite EDB relation {(v, v)}. The paper's
/// standard form (§4.1) uses it to eliminate constants and repeated variables
/// from recursive literals. The engines implement it as a builtin.
inline constexpr const char kEqualPredicate[] = "equal";

/// `affine(X, A, B, Z)`: builtin with Z = A*X + B for integer A, B. Used by
/// the Counting transformation (§6.4) to maintain index fields; solvable in
/// either direction (X from Z or Z from X).
inline constexpr const char kAffinePredicate[] = "affine";

/// `geq(X, C)`: builtin with X >= C over integers; X and C must be bound.
/// Counting uses it to keep index fields nonnegative.
inline constexpr const char kGeqPredicate[] = "geq";

/// Structural predicates introduced by standard-form conversion for function
/// symbols: `$f(A1, ..., Ak, R)` holds iff R = f(A1, ..., Ak). Conceptually
/// infinite EDB relations (the paper's `list`); they exist only in the
/// compile-time standard form, never at run time.
inline constexpr char kStructuralPrefix = '$';

/// The arity of builtin `name`, or 0 when `name` is not a builtin.
inline size_t BuiltinArity(const std::string& name) {
  if (name == kAffinePredicate) return 4;
  if (name == kEqualPredicate || name == kGeqPredicate) return 2;
  return 0;
}

/// True for predicates evaluated by the engine rather than stored: `equal`,
/// `affine` and `geq`.
inline bool IsBuiltinPredicate(const std::string& name) {
  return BuiltinArity(name) != 0;
}

/// True for compile-time structural predicates (`$cons`, ...).
inline bool IsStructuralPredicate(const std::string& name) {
  return !name.empty() && name[0] == kStructuralPrefix;
}

}  // namespace factlog::ast

#endif  // FACTLOG_AST_SPECIAL_PREDICATES_H_
