// Static program linter: safety, arity, stratification, reachability, and
// style/plan-quality analysis over the AST and the predicate dependency
// graph.
//
// The paper's rewrites (factoring, magic, counting) are only sound on
// programs meeting structural preconditions — standard form, safe /
// range-restricted rules, Theorems 4.1–4.3 applicability. Before this pass
// an ill-formed program sailed through compilation and failed (or silently
// misbehaved) deep inside a fixpoint. LintProgram checks well-formedness
// statically and reports every finding as a structured Diagnostic
// (common/diagnostic.h) with a stable code:
//
//   Errors (reject compilation)
//     L001  unsafe rule: top-level head variable not bound by a positive
//           relation literal in the body
//     L002  builtin literal unexecutable: the shared binding schedule
//           (ast/binding.h) never makes it ready, so no execution order can
//           bind its required arguments (equal/2 both-free, geq inputs,
//           affine with neither X nor Z derivable)
//     L003  arity mismatch: a predicate used with conflicting arities across
//           rules, declarations, the query, or the caller-supplied EDB schema
//     L004  stratification violation: recursion through a (prospective)
//           negative dependency edge
//
//   Warnings (ride on the compiled artifact)
//     L101  singleton variable: named variable occurring exactly once
//     L102  duplicate rule: identical to an earlier rule modulo variable
//           renaming
//     L103  subsumed rule: answers contained in an earlier rule's
//           (Chandra–Merlin containment via analysis/cq.h)
//     L104  cartesian-product join: the cost-based plan (plan/join_plan.h)
//           joins a relation literal sharing no bound variables with the
//           literals before it
//     L105  dead rule: head predicate unreachable from the query predicate
//     L106  undefined query: the query predicate has no rules and is not a
//           known EDB relation
//
// Codes are append-only and stable: tests, CI gates, and editor integrations
// match on the code while message text stays free to improve. The pipeline
// (core/pipeline.cc) runs LintProgram as the mandatory opening pass of every
// strategy; api::Engine::Lint exposes it directly.

#ifndef FACTLOG_ANALYSIS_LINT_H_
#define FACTLOG_ANALYSIS_LINT_H_

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "ast/program.h"
#include "common/diagnostic.h"

namespace factlog::plan {
struct ProgramPlan;
}  // namespace factlog::plan

namespace factlog::analysis {

struct LintOptions {
  /// Prospective negative dependency edges (head pred, body pred) for the
  /// stratification check. The AST is positive-only today; the stratified
  /// negation front end will derive these from real negated literals.
  std::set<std::pair<std::string, std::string>> negative_edges;
  /// Known EDB schema (e.g. the engine database's relations). Checked
  /// against program usage for L003 and consulted for L106.
  std::map<std::string, size_t> edb_arities;
};

/// The linter's findings plus the analysis by-products callers reuse.
struct LintReport {
  std::vector<Diagnostic> diagnostics;
  /// Stratum assignment computed for the L004 check (meaningful even when
  /// diagnostics contains L004 records; violating edges are skipped).
  std::map<std::string, int> strata;
  int num_strata = 0;

  bool ok() const { return !HasErrors(diagnostics); }
  size_t errors() const { return CountErrors(diagnostics); }
  size_t warnings() const { return CountWarnings(diagnostics); }
};

/// Runs every check over `program`. Pure and deterministic; never fails.
/// Diagnostics are ordered by check (L001 first), then by rule index.
LintReport LintProgram(const ast::Program& program,
                       const LintOptions& options = {});

/// Re-runs the L104 cartesian-join check against an already-computed program
/// plan instead of re-planning with default options. The engine re-costs
/// cached plans in place from measured cardinalities; the L104 verdict must
/// track the plan that actually executes, so it is recomputed against the
/// re-costed orders. Returns only L104 diagnostics; `plans` must be
/// structurally compatible with `program` (empty result otherwise).
std::vector<Diagnostic> LintCartesianJoins(const ast::Program& program,
                                           const plan::ProgramPlan& plans);

}  // namespace factlog::analysis

#endif  // FACTLOG_ANALYSIS_LINT_H_
