// Query compilation strategies as declarative pass sequences.
//
// The paper's two-step pipeline (Magic Sets, then factoring, then the §5
// cleanups) and the baselines it is compared against (plain magic,
// supplementary magic, Counting, the §6.3 direct linear rewritings) are all
// sequences of the passes defined in core/transform_pass.h:
//
//   kFactoring:          adorn -> classify -> normalize -> magic-sets
//                        -> factorability -> factoring -> §5 fixpoint
//   kMagic:              adorn -> magic-sets
//   kSupplementaryMagic: adorn -> supplementary-magic
//   kCounting:           adorn -> classify -> counting
//   kLinearRewrite:      adorn -> classify -> linear-rewrite
//
// Every compilation additionally opens with the mandatory `lint` pass
// (static safety / arity / stratification analysis, analysis/lint.h) and
// closes with the `join-plan` pass; both run outside PassesForStrategy so
// the sequences above stay exactly the strategy's own passes.
//
// `CompileQuery` runs a sequence and packages the outcome as a
// `CompiledQuery`; `kFactoring` keeps the paper's graceful fallback (the
// Magic program when the Theorems 4.1-4.3 conditions fail), `kAuto` upgrades
// that fallback to supplementary magic. `OptimizeQuery` is the historical
// entry point, preserved as a thin wrapper that exposes every intermediate
// stage in a PipelineResult (Fig. 1 is `magic.program`, Fig. 2 is
// `factored->program`, the final unary program of Example 5.3 is
// `optimized`).

#ifndef FACTLOG_CORE_PIPELINE_H_
#define FACTLOG_CORE_PIPELINE_H_

#include <optional>
#include <string>
#include <vector>

#include "analysis/adornment.h"
#include "core/factorability.h"
#include "core/factoring.h"
#include "core/optimizations.h"
#include "core/rule_classes.h"
#include "core/transform_pass.h"
#include "transform/magic.h"

namespace factlog::core {

struct PipelineOptions {
  /// Options for the mandatory lint pass that opens every compilation
  /// (analysis/lint.h): prospective negative edges, the engine's EDB schema,
  /// and the top-down safety downgrade. Lint errors reject compilation with
  /// kInvalidArgument; warnings ride on CompiledQuery::diagnostics.
  analysis::LintOptions lint;
  /// Options for the §5 cleanup passes on the factored program.
  OptimizeOptions optimize;
  /// Options for the final join-plan pass (extent hints etc.). The caller —
  /// api::Engine — seeds extent_hints with its base-relation sizes; the pass
  /// fills the delta set from the final program's IDB itself.
  plan::PlanOptions planner;
};

/// The pass sequence implementing `strategy`. kAuto returns the kFactoring
/// sequence (the caller handles the supplementary-magic fallback, as
/// CompileQuery does).
PassSequence PassesForStrategy(Strategy strategy,
                               const PipelineOptions& opts = {});

/// Compiles (program, query) with the given strategy into a CompiledQuery.
///
///  * kFactoring: the paper pipeline; falls back to the Magic program when
///    no Theorem 4.1-4.3 condition holds (factoring_applied reports which).
///  * kAuto: factoring when a Theorem 4.1-4.3 condition holds, otherwise
///    supplementary magic (the strongest always-applicable baseline).
///  * kMagic / kSupplementaryMagic / kCounting / kLinearRewrite: strict;
///    fail with kFailedPrecondition when the strategy does not apply.
Result<CompiledQuery> CompileQuery(const ast::Program& program,
                                   const ast::Atom& query,
                                   Strategy strategy = Strategy::kAuto,
                                   const PipelineOptions& opts = {});

/// Records in `query->planner_hints` the extents its plans were costed
/// against: `planner.extent_hints` restricted to the predicates the
/// program's rule bodies mention (the stale-plan guard's baseline).
void RecordPlannerHints(const plan::PlanOptions& planner,
                        CompiledQuery* query);

struct PipelineResult {
  /// The program/query the pipeline actually compiled (after any static
  /// argument reduction).
  ast::Program source;
  ast::Atom source_query;
  bool static_reduction_applied = false;
  std::vector<int> reduced_positions;

  analysis::AdornedProgram adorned;
  transform::MagicProgram magic;
  ProgramClassification classification;
  FactorabilityReport factorability;

  bool factoring_applied = false;
  std::optional<FactoredProgram> factored;
  /// §5-optimized factored program (when factoring applied); the raw
  /// factored program stays in `factored`.
  std::optional<ast::Program> optimized;

  /// Per-rule join plans for final_program() (join-plan pass output).
  plan::ProgramPlan plans;

  /// Lint warnings for the source program (lint errors reject compilation).
  std::vector<Diagnostic> diagnostics;

  /// Structured per-pass decision log (timings, rule counts, notes).
  std::vector<PassTraceEntry> trace;

  /// The most optimized program available: optimized, else factored, else
  /// the Magic program.
  const ast::Program& final_program() const {
    if (optimized.has_value()) return *optimized;
    if (factored.has_value()) return factored->program;
    return magic.program;
  }
  const ast::Atom& final_query() const {
    return factored.has_value() ? factored->query : magic.query;
  }
};

/// Runs the full paper pipeline. Always produces the Magic program;
/// factoring and the §5 cleanups apply only when one of the Theorems 4.1-4.3
/// conditions holds (reported in `factorability`). Equivalent to running the
/// kFactoring pass sequence and keeping every intermediate artifact.
Result<PipelineResult> OptimizeQuery(const ast::Program& program,
                                     const ast::Atom& query,
                                     const PipelineOptions& opts = {});

}  // namespace factlog::core

#endif  // FACTLOG_CORE_PIPELINE_H_
