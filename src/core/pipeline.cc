#include "core/pipeline.h"

#include <utility>

namespace factlog::core {

namespace {

PassSequence MakeSequence(std::unique_ptr<Transform> pass) {
  PassSequence seq;
  seq.push_back(std::move(pass));
  return seq;
}

// Every compilation ends with the join-plan pass on the final program: the
// per-rule evaluation order, index requirements, and partitioning driver the
// engines consume. It runs outside the strategy sequences so a gracefully
// halted sequence (kFactoring's magic fallback) still gets its plan, and so
// PassesForStrategy keeps returning exactly the strategy's own passes.
Status AttachJoinPlan(TransformState* state, const PipelineOptions& opts) {
  FACTLOG_ASSIGN_OR_RETURN(
      bool completed,
      RunPasses(MakeSequence(MakeJoinPlanPass(opts.planner)), *state));
  (void)completed;
  return Status::OK();
}

// Every compilation opens with the lint pass: static safety / arity /
// stratification analysis over the source program. Lint errors reject the
// compilation right here with kInvalidArgument carrying the rendered
// diagnostics; warnings accumulate on state->diagnostics. Like the join-plan
// pass, it runs outside the strategy sequences so PassesForStrategy keeps
// returning exactly the strategy's own passes.
Status AttachLint(TransformState* state, const PipelineOptions& opts) {
  FACTLOG_ASSIGN_OR_RETURN(
      bool completed,
      RunPasses(MakeSequence(MakeLintPass(opts.lint)), *state));
  (void)completed;
  return Status::OK();
}

Result<CompiledQuery> FinishCompile(TransformState&& state, Strategy strategy,
                                    const PipelineOptions& opts);

// Runs `passes` on `state` with halts treated as errors and packages the
// result under the given strategy tag.
Result<CompiledQuery> RunStrict(TransformState state, PassSequence passes,
                                Strategy strategy,
                                const PipelineOptions& opts) {
  RunPassesOptions strict;
  strict.halt_is_error = true;
  FACTLOG_ASSIGN_OR_RETURN(bool completed, RunPasses(passes, state, strict));
  (void)completed;
  return FinishCompile(std::move(state), strategy, opts);
}

// Packages the state a completed pass sequence left behind.
Result<CompiledQuery> FinishCompile(TransformState&& state, Strategy strategy,
                                    const PipelineOptions& opts) {
  FACTLOG_RETURN_IF_ERROR(AttachJoinPlan(&state, opts));
  CompiledQuery out;
  out.strategy = strategy;
  out.program = state.final_program();
  out.query = state.final_query();
  out.program.set_query(out.query);
  out.factoring_applied = state.factoring_applied;
  out.static_reduction_applied = state.static_reduction_applied;
  out.factor_class = state.factorability.has_value()
                         ? state.factorability->cls
                         : FactorClass::kNotFactorable;
  if (state.plans.has_value()) out.plans = std::move(*state.plans);
  RecordPlannerHints(opts.planner, &out);
  out.source = std::move(state.source);
  out.source_query = std::move(state.source_query);
  out.diagnostics = std::move(state.diagnostics);
  out.trace = std::move(state.trace);
  return out;
}

}  // namespace

void RecordPlannerHints(const plan::PlanOptions& planner,
                        CompiledQuery* query) {
  query->planner_hints.clear();
  for (const ast::Rule& rule : query->program.rules()) {
    for (const ast::Atom& body : rule.body()) {
      auto it = planner.extent_hints.find(body.predicate());
      if (it != planner.extent_hints.end()) {
        query->planner_hints[it->first] = it->second;
      }
    }
  }
}

PassSequence PassesForStrategy(Strategy strategy, const PipelineOptions& opts) {
  PassSequence seq;
  switch (strategy) {
    case Strategy::kAuto:
    case Strategy::kFactoring:
      seq.push_back(MakeAdornPass());
      seq.push_back(MakeClassifyPass());
      seq.push_back(MakeNormalizePass());
      seq.push_back(MakeMagicPass());
      seq.push_back(MakeFactorabilityGatePass());
      seq.push_back(MakeFactoringPass());
      seq.push_back(MakeSectionFiveFixpointPass(opts.optimize));
      break;
    case Strategy::kMagic:
      seq.push_back(MakeAdornPass());
      seq.push_back(MakeMagicPass());
      break;
    case Strategy::kSupplementaryMagic:
      seq.push_back(MakeAdornPass());
      seq.push_back(MakeSupplementaryMagicPass());
      break;
    case Strategy::kCounting:
      seq.push_back(MakeAdornPass());
      seq.push_back(MakeClassifyPass());
      seq.push_back(MakeCountingPass());
      break;
    case Strategy::kLinearRewrite:
      seq.push_back(MakeAdornPass());
      seq.push_back(MakeClassifyPass());
      seq.push_back(MakeLinearRewritePass());
      break;
  }
  return seq;
}

Result<CompiledQuery> CompileQuery(const ast::Program& program,
                                   const ast::Atom& query, Strategy strategy,
                                   const PipelineOptions& opts) {
  TransformState state;
  state.source = program;
  state.source_query = query;
  // Mandatory opening pass: lint errors reject the compilation before any
  // strategy (including the kAuto fallbacks) runs.
  FACTLOG_RETURN_IF_ERROR(AttachLint(&state, opts));

  if (strategy == Strategy::kAuto) {
    // Try the paper pipeline first; when factoring does not apply (or the
    // program falls outside the §4 templates entirely), fall back to
    // supplementary magic.
    Result<bool> ran =
        RunPasses(PassesForStrategy(Strategy::kFactoring, opts), state);
    if (ran.ok() && state.factoring_applied) {
      return FinishCompile(std::move(state), Strategy::kFactoring, opts);
    }
    if (ran.ok()) {
      // Keep the factoring attempt's trace (it records why factoring was
      // rejected) and continue on the same state: the adorned program is
      // already available.
      return RunStrict(std::move(state),
                       MakeSequence(MakeSupplementaryMagicPass()),
                       Strategy::kSupplementaryMagic, opts);
    }
    // The factoring pipeline failed outright (e.g. not a unit program, so
    // classification errored); record why and compile supplementary magic
    // from scratch, carrying the lint verdict (trace entry + warnings) over
    // so the fallback's artifact still reports it.
    TransformState fallback;
    fallback.source = program;
    fallback.source_query = query;
    fallback.diagnostics = std::move(state.diagnostics);
    if (!state.trace.empty() && state.trace.front().pass == "lint") {
      fallback.trace.push_back(std::move(state.trace.front()));
    }
    PassTraceEntry note;
    note.pass = "auto-fallback";
    note.notes.push_back("factoring pipeline failed: " +
                         ran.status().ToString());
    fallback.trace.push_back(std::move(note));
    return RunStrict(std::move(fallback),
                     PassesForStrategy(Strategy::kSupplementaryMagic, opts),
                     Strategy::kSupplementaryMagic, opts);
  }

  RunPassesOptions run_opts;
  // kFactoring keeps the paper's graceful Magic fallback; every other
  // concrete strategy either applies or fails.
  run_opts.halt_is_error = (strategy != Strategy::kFactoring);
  FACTLOG_ASSIGN_OR_RETURN(
      bool completed,
      RunPasses(PassesForStrategy(strategy, opts), state, run_opts));
  (void)completed;
  return FinishCompile(std::move(state), strategy, opts);
}

Result<PipelineResult> OptimizeQuery(const ast::Program& program,
                                     const ast::Atom& query,
                                     const PipelineOptions& opts) {
  TransformState state;
  state.source = program;
  state.source_query = query;
  FACTLOG_RETURN_IF_ERROR(AttachLint(&state, opts));
  FACTLOG_ASSIGN_OR_RETURN(
      bool completed,
      RunPasses(PassesForStrategy(Strategy::kFactoring, opts), state));
  (void)completed;
  FACTLOG_RETURN_IF_ERROR(AttachJoinPlan(&state, opts));

  if (!state.adorned.has_value() || !state.classification.has_value() ||
      !state.magic.has_value()) {
    return Status::Internal(
        "factoring pass sequence ended without adorned/classified/magic "
        "artifacts");
  }
  PipelineResult out;
  out.source = std::move(state.source);
  out.source_query = std::move(state.source_query);
  out.static_reduction_applied = state.static_reduction_applied;
  out.reduced_positions = std::move(state.reduced_positions);
  out.adorned = std::move(*state.adorned);
  out.magic = std::move(*state.magic);
  out.classification = std::move(*state.classification);
  if (state.factorability.has_value()) {
    out.factorability = std::move(*state.factorability);
  }
  out.factoring_applied = state.factoring_applied;
  out.factored = std::move(state.factored);
  out.optimized = std::move(state.optimized);
  if (state.plans.has_value()) out.plans = std::move(*state.plans);
  out.diagnostics = std::move(state.diagnostics);
  out.trace = std::move(state.trace);
  return out;
}

}  // namespace factlog::core
