// The pass-manager core of the query compiler.
//
// Every stage of the paper's pipeline (adornment, classification, the
// Lemma 5.1/5.2 normalizations, Magic Sets, supplementary magic, Counting,
// the direct linear rewritings, factoring, and each §5 cleanup) is expressed
// as a `Transform`: a named pass with explicit preconditions that mutates a
// shared `TransformState`. Strategies are then declarative pass sequences
// (see core/pipeline.h) executed by `RunPasses`, which times every pass and
// records a structured `PassTraceEntry` — replacing the free-form string
// trace the old pipeline kept.
//
// The end product of a sequence is a `CompiledQuery`: the executable
// program + query, the strategy that produced it, and the full pass trace.
// Compiled queries are the unit of caching in the api::Engine facade.

#ifndef FACTLOG_CORE_TRANSFORM_PASS_H_
#define FACTLOG_CORE_TRANSFORM_PASS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/adornment.h"
#include "analysis/lint.h"
#include "ast/program.h"
#include "common/diagnostic.h"
#include "common/status.h"
#include "core/factorability.h"
#include "core/factoring.h"
#include "core/optimizations.h"
#include "core/rule_classes.h"
#include "plan/join_plan.h"
#include "transform/counting.h"
#include "transform/linear_rewrite.h"
#include "transform/magic.h"
#include "transform/supplementary_magic.h"

namespace factlog::core {

/// Query-compilation strategies. `kAuto` and `kFactoring` are composite:
/// `kFactoring` is the paper's pipeline (factoring when a Theorem 4.1-4.3
/// condition holds, Magic program otherwise), `kAuto` additionally upgrades
/// the non-factorable fallback to supplementary magic.
enum class Strategy {
  kAuto = 0,
  kMagic,
  kSupplementaryMagic,
  kFactoring,
  kCounting,
  kLinearRewrite,
};

/// Short stable name ("auto", "magic", "supplementary-magic", ...).
const char* StrategyToString(Strategy strategy);

/// Inverse of StrategyToString; also accepts '_' for '-'.
std::optional<Strategy> StrategyFromString(const std::string& name);

/// All concrete strategies (everything but kAuto), in enum order.
std::vector<Strategy> AllConcreteStrategies();

/// One structured trace record per executed pass.
struct PassTraceEntry {
  /// Transform::name() of the pass.
  std::string pass;
  /// Whether the pass changed the state (false: skipped / nothing to do).
  bool applied = false;
  /// Whether the pass halted the sequence (e.g. "not factorable").
  bool halted = false;
  /// Rule count of the best-so-far program before / after the pass.
  size_t rules_before = 0;
  size_t rules_after = 0;
  /// Wall-clock time spent in the pass.
  int64_t duration_us = 0;
  /// Human-readable decisions, one per line.
  std::vector<std::string> notes;

  /// "<pass> [applied, 12 -> 8 rules, 42us] note; note".
  std::string ToString() const;
};

/// Renders a whole trace, one entry per line.
std::string TraceToString(const std::vector<PassTraceEntry>& trace);

/// The mutable state a pass sequence threads through its transforms. Passes
/// fill in analysis artifacts (adorned, classification, factorability) and
/// rewrite artifacts (magic, factored, optimized, ...); `final_program()`
/// always names the most-rewritten program available.
struct TransformState {
  /// The program/query being compiled, after any normalization (body
  /// reordering, static argument reduction).
  ast::Program source;
  ast::Atom source_query;

  // Analysis artifacts.
  std::optional<analysis::AdornedProgram> adorned;
  std::optional<ProgramClassification> classification;
  std::optional<FactorabilityReport> factorability;

  // Rewrite artifacts (at most one family per sequence).
  std::optional<transform::MagicProgram> magic;
  std::optional<transform::SupplementaryMagicProgram> supplementary;
  std::optional<transform::CountingProgram> counting;
  std::optional<transform::LinearRewriteResult> linear;
  std::optional<FactoredProgram> factored;
  /// §5-cleaned factored program (query set), owned by the fixpoint pass.
  std::optional<ast::Program> optimized;

  bool static_reduction_applied = false;
  std::vector<int> reduced_positions;
  bool factoring_applied = false;

  /// Per-rule join plans for the final program, filled by the join-plan pass
  /// (the last pass of every compilation).
  std::optional<plan::ProgramPlan> plans;

  /// Metadata for the §5 passes, filled by the factoring pass.
  OptimizationContext opt_ctx;

  /// Lint warnings from the opening lint pass (errors abort the sequence
  /// instead of landing here). Carried onto CompiledQuery::diagnostics.
  std::vector<Diagnostic> diagnostics;

  /// Structured log, one entry per executed pass (RunPasses appends).
  std::vector<PassTraceEntry> trace;

  /// The most rewritten program/query available so far.
  const ast::Program& final_program() const;
  const ast::Atom& final_query() const;

  /// Appends a note to the entry of the pass currently running.
  void Note(std::string note) { pending_notes.push_back(std::move(note)); }
  /// Notes buffered by the running pass; drained by RunPasses.
  std::vector<std::string> pending_notes;
};

/// Outcome of one pass application.
enum class PassOutcome {
  /// The pass changed the state.
  kApplied,
  /// Preconditions held but there was nothing to do.
  kSkipped,
  /// The pass determined the remaining sequence cannot apply (e.g. the
  /// program is not factorable); RunPasses stops gracefully.
  kHalt,
};

/// A named, precondition-checked transformation of TransformState.
class Transform {
 public:
  virtual ~Transform() = default;

  /// Stable pass name ("adorn", "magic-sets", "prop-5.1", ...).
  virtual const char* name() const = 0;

  /// OK when the pass may run on `state`. RunPasses fails with the returned
  /// status (annotated with the pass name) otherwise.
  virtual Status CheckPreconditions(const TransformState& state) const {
    (void)state;
    return Status::OK();
  }

  virtual Result<PassOutcome> Apply(TransformState& state) = 0;
};

using PassSequence = std::vector<std::unique_ptr<Transform>>;

struct RunPassesOptions {
  /// Treat a kHalt outcome as an error (strict compilation) instead of a
  /// graceful stop (the paper pipeline's magic fallback).
  bool halt_is_error = false;
};

/// Runs the sequence: for each pass, checks preconditions, times Apply, and
/// appends a PassTraceEntry to `state.trace`. Returns true when the whole
/// sequence ran, false when a pass halted it (with halt_is_error unset).
Result<bool> RunPasses(const PassSequence& passes, TransformState& state,
                       const RunPassesOptions& opts = {});

// ---- Concrete pass factories -----------------------------------------------

/// Static analysis (analysis/lint.h) over the source program + query: the
/// mandatory opening pass of every compilation. Lint errors fail the pass
/// with kInvalidArgument carrying the rendered report; warnings accumulate
/// on TransformState::diagnostics and as trace notes.
std::unique_ptr<Transform> MakeLintPass(analysis::LintOptions opts = {});

/// Adorns `source` for `source_query` (left-to-right SIP).
std::unique_ptr<Transform> MakeAdornPass();

/// Classifies the adorned program against the §4 rule templates.
std::unique_ptr<Transform> MakeClassifyPass();

/// When the classification is not RLC-stable, retries with body reordering
/// (§4.1) and static argument reduction (Lemmas 5.1/5.2), re-adorning and
/// re-classifying on success.
std::unique_ptr<Transform> MakeNormalizePass();

/// Magic Sets (§2.1) on the adorned program.
std::unique_ptr<Transform> MakeMagicPass();

/// Supplementary Magic Sets (Beeri & Ramakrishnan).
std::unique_ptr<Transform> MakeSupplementaryMagicPass();

/// The Counting transformation (§6.4) on the classified program.
std::unique_ptr<Transform> MakeCountingPass();

/// The direct linear rewriting of §6.3 (right-linear, then left-linear).
std::unique_ptr<Transform> MakeLinearRewritePass();

/// Checks the Theorem 4.1-4.3 sufficient conditions; halts the sequence
/// when the program is not RLC-stable or not factorable.
std::unique_ptr<Transform> MakeFactorabilityGatePass();

/// Factors the recursive predicate of the Magic program into its bound and
/// free parts (§3).
std::unique_ptr<Transform> MakeFactoringPass();

// Each §5 cleanup as an individual pass (preconditions: factored program
// present; the fixpoint pass initializes `optimized` from it).
std::unique_ptr<Transform> MakeHeadInBodyPass();          // Prop 5.4a
std::unique_ptr<Transform> MakeSubsumedMagicPass();       // Prop 5.1
std::unique_ptr<Transform> MakeAnonymizePass();           // Prop 5.5
std::unique_ptr<Transform> MakeAnonymousFactorPass();     // Prop 5.2
std::unique_ptr<Transform> MakeSeedFactorPass();          // Prop 5.3
std::unique_ptr<Transform> MakeDuplicateRulePass();
std::unique_ptr<Transform> MakeUnreachablePass();         // Prop 5.4b
std::unique_ptr<Transform> MakeUniformEquivalencePass(OptimizeOptions opts);

/// Runs `children` in order, cyclically, until every child has run once
/// without a change since the last child that changed the state (at most
/// `max_rounds` rounds). Cleanup children initialize `state.optimized` from
/// the factored program when absent.
///
/// Contract: every child must be idempotent (applied to a state it has just
/// produced, it changes nothing) and deterministic (its effect depends only
/// on the state). Under that contract the result equals the classic loop
/// that runs whole rounds until one changes nothing, without that loop's
/// confirmation round: the child that changed the state last is not run
/// again.
std::unique_ptr<Transform> MakeFixpointPass(PassSequence children,
                                            int max_rounds = 100);

/// Computes per-rule join plans (order, index requirements, driver) for the
/// state's final program — the last pass of every strategy. `opts` carries
/// extent hints (e.g. base-relation sizes); the pass unions the program's
/// IDB predicates into the delta set itself. Notes one summary line per
/// rule in the trace.
std::unique_ptr<Transform> MakeJoinPlanPass(plan::PlanOptions opts = {});

/// The full §5 cleanup fixpoint (what OptimizeProgram runs). Its
/// uniform-equivalence child notes "N chases, M skipped by pre-check" per
/// run.
std::unique_ptr<Transform> MakeSectionFiveFixpointPass(
    const OptimizeOptions& opts);

/// The unified compilation artifact: the executable program plus everything
/// needed to run, cache, and explain it.
struct CompiledQuery {
  /// Strategy that produced the plan (never kAuto: the engine resolves
  /// kAuto to the concrete strategy it picked).
  Strategy strategy = Strategy::kMagic;
  /// The executable (most rewritten) program and query.
  ast::Program program;
  ast::Atom query;
  /// The normalized source the plan was compiled from.
  ast::Program source;
  ast::Atom source_query;
  /// Whether factoring actually applied (kFactoring falls back to the
  /// Magic program when the Theorem 4.1-4.3 conditions fail).
  bool factoring_applied = false;
  bool static_reduction_applied = false;
  /// Factor class established by the gate pass (kNotFactorable otherwise).
  FactorClass factor_class = FactorClass::kNotFactorable;
  /// Per-rule join plans for `program` (index-aligned with its rules): the
  /// evaluation order, per-literal index requirements, and partitioning
  /// driver every engine consumes. Computed by the join-plan pass.
  plan::ProgramPlan plans;
  /// Base-relation sizes the join plans were costed against (the extent
  /// hints in effect at compile time, restricted to predicates the program
  /// mentions). The engine's stale-plan guard compares these against the
  /// live extents to decide when a cached or persisted plan must be
  /// recompiled.
  std::map<std::string, uint64_t> planner_hints;
  /// Lint warnings the opening lint pass reported for the source program
  /// (errors reject compilation outright, so a CompiledQuery never carries
  /// error-severity records).
  std::vector<Diagnostic> diagnostics;
  /// Structured per-pass trace with timings and rule counts.
  std::vector<PassTraceEntry> trace;
};

}  // namespace factlog::core

#endif  // FACTLOG_CORE_TRANSFORM_PASS_H_
