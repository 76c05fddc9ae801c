// The additional optimizations of §5.
//
// These cleanups run on the factored Magic program and, iterated to a
// fixpoint, produce the paper's final programs (e.g. the 4-rule unary
// transitive-closure program of Example 5.3):
//
//   * Proposition 5.1: delete a magic literal when a bp literal with
//     identical arguments is present (bp ⊆ magic).
//   * Proposition 5.2: delete an all-anonymous bp (fp) literal when an fp
//     (bp) literal is present — any bp succeeds iff any fp succeeds.
//   * Proposition 5.3: delete a bp literal whose arguments equal the query
//     seed when an fp literal is present.
//   * Proposition 5.4: delete rules whose head appears in their body, and
//     rules unreachable from the query.
//   * Proposition 5.5: anonymize variables occurring only once in a rule.
//   * Uniform-equivalence rule deletion [13]: a rule is redundant when the
//     remaining program derives its frozen head from its frozen body.
//     Deleting a rule only weakens the rest of the program, so a rule once
//     proven irredundant is never chased again, and a rule whose head
//     predicate is unreachable from its body predicates is kept without a
//     chase.
//
// Static argument reduction (Definitions 5.1/5.2, Lemmas 5.1/5.2) is also
// here: it rewrites a unit program whose recursion carries a bound argument
// unchanged, enabling classification of programs (e.g. pseudo-left-linear
// ones) that the §4 templates reject.

#ifndef FACTLOG_CORE_OPTIMIZATIONS_H_
#define FACTLOG_CORE_OPTIMIZATIONS_H_

#include <string>
#include <vector>

#include "ast/program.h"
#include "common/status.h"
#include "eval/seminaive.h"

namespace factlog::core {

/// Metadata threaded through the §5 passes.
struct OptimizationContext {
  /// The two factor predicates (empty when not applicable).
  std::string bp;
  std::string fp;
  /// The magic predicate whose arguments parallel bp's (Prop 5.1).
  std::string magic_pred;
  /// Ground arguments of the magic seed (Prop 5.3).
  std::vector<ast::Term> seed_args;
  /// Reachability root (Prop 5.4).
  std::string query_pred;
};

/// Order in which uniform-equivalence deletion scans rules. §7.4 of the
/// paper asks whether the order matters; the ablation benchmark compares
/// these.
enum class UeOrder { kForward, kBackward };

struct OptimizeOptions {
  bool apply_uniform_equivalence = true;
  UeOrder ue_order = UeOrder::kForward;
  /// Fact budget of each uniform-equivalence chase (eval::EvalOptions::
  /// max_facts); a chase that exceeds it keeps the rule.
  uint64_t ue_max_facts = eval::EvalOptions().max_facts;
};

/// What one uniform-equivalence deletion run spent on redundancy tests.
struct UeCounters {
  /// Frozen-body chases evaluated.
  int chases = 0;
  /// Tests the predicate-level pre-check answered without a chase.
  int skipped = 0;
};

// ---- Individual passes (each returns true when it changed the program) ----

/// Prop 5.4a: delete rules whose head literal appears verbatim in the body.
bool DeleteHeadInBodyRules(ast::Program* program);

/// Prop 5.1: drop `magic(t)` from bodies that also contain `bp(t)`.
bool DeleteSubsumedMagicLiterals(ast::Program* program,
                                 const OptimizationContext& ctx);

/// Prop 5.2 (+ its symmetric form): drop all-singleton-variable bp literals
/// from bodies containing an fp literal, and vice versa.
bool DeleteAnonymousFactorLiterals(ast::Program* program,
                                   const OptimizationContext& ctx);

/// Prop 5.3: drop `bp(seed)` from bodies containing an fp literal.
bool DeleteSeedFactorLiterals(ast::Program* program,
                              const OptimizationContext& ctx);

/// Prop 5.4b: delete rules for predicates unreachable from the query.
bool DeleteUnreachableRules(ast::Program* program,
                            const std::string& query_pred);

/// Prop 5.5: rename variables that occur exactly once in their rule to
/// anonymous names (prefix "_"). Purely presentational but it feeds
/// Prop 5.2's "anonymous literal" condition.
bool AnonymizeSingletonVariables(ast::Program* program);

/// Deletes duplicate rules (equal up to variable renaming / body order).
bool DeleteDuplicateRules(ast::Program* program);

/// Uniform-equivalence rule deletion [13] via the frozen-body chase. Rules
/// containing builtins are skipped (conservative). Deletes the first
/// redundant rule in `opts.ue_order`, then rescans, until no rule is
/// redundant; verdicts of "irredundant" carry over a deletion, so each rule
/// is chased once unless its chase ran out of budget. Adds the tests it ran
/// to `counters` when non-null.
Result<bool> DeleteUniformlyRedundantRules(ast::Program* program,
                                           const OptimizeOptions& opts,
                                           UeCounters* counters = nullptr);

/// Runs all enabled passes to a fixpoint (MakeSectionFiveFixpointPass).
Result<ast::Program> OptimizeProgram(const ast::Program& program,
                                     const OptimizationContext& ctx,
                                     const OptimizeOptions& opts = {});

// ---- Static argument reduction (Definitions 5.1/5.2) ----

/// Positions of `pred` that are static in `program`: in every rule, every
/// body literal of `pred` carries the same variable there as the head.
/// Only positions bound by `query` qualify (the reduction substitutes the
/// query constant).
std::vector<int> FindStaticArguments(const ast::Program& program,
                                     const std::string& pred,
                                     const ast::Atom& query);

/// The subset of `static_positions` that violate the §4 templates: their
/// head variable occurs in a nonrecursive body atom together with a
/// variable that is not a bound head variable (Lemma 5.2's "bound arguments
/// that violate left-linearity", as in Example 5.2's pseudo-left-linear
/// rule).
std::vector<int> FindViolatingStaticArguments(
    const ast::Program& program, const std::string& pred,
    const ast::Atom& query, const std::vector<int>& static_positions);

/// Result of reducing a unit program with respect to static positions.
struct ReducedProgram {
  ast::Program program;
  ast::Atom query;
  /// The reduced predicate's new name.
  std::string predicate;
  /// Positions of the original predicate that were removed.
  std::vector<int> removed_positions;
};

/// Lemma 5.1: substitutes the query constants for the static positions and
/// drops those argument positions from `pred` everywhere. The reduced
/// predicate is renamed (paper's `s`).
Result<ReducedProgram> ReduceStaticArguments(const ast::Program& program,
                                             const std::string& pred,
                                             const ast::Atom& query,
                                             const std::vector<int>& positions);

}  // namespace factlog::core

#endif  // FACTLOG_CORE_OPTIMIZATIONS_H_
