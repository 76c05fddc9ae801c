// E13 (§5 / §7.4 ablation): how much of the win comes from factoring itself
// vs the §5 cleanups, and does the uniform-equivalence deletion order
// matter?
//
// Stages compared on three-form transitive closure:
//   * raw factored program (Fig. 2: arity reduced, redundant rules kept),
//   * factored + §5 without uniform-equivalence deletion,
//   * the full pipeline (the paper's 4-rule final program).
// The `rules` counter reports the static program size; `facts` the
// evaluation cost.

#include "bench/bench_util.h"
#include "core/optimizations.h"
#include "workload/graph_gen.h"

namespace {

using namespace factlog;

const char kThreeFormTc[] = R"(
  t(X, Y) :- t(X, W), t(W, Y).
  t(X, Y) :- e(X, W), t(W, Y).
  t(X, Y) :- t(X, W), e(W, Y).
  t(X, Y) :- e(X, Y).
  ?- t(1, Y).
)";

void BM_OptimizationStage(benchmark::State& state, int stage) {
  int64_t n = state.range(0);
  ast::Program program = bench::ParseOrDie(kThreeFormTc);

  core::PipelineOptions opts;
  if (stage == 1) opts.optimize.apply_uniform_equivalence = false;
  core::PipelineResult pipe =
      bench::OrDie(core::OptimizeQuery(program, *program.query(), opts),
                   "pipeline");
  const ast::Program& prog =
      stage == 0 ? pipe.factored->program : pipe.final_program();
  const ast::Atom& query = pipe.final_query();
  state.counters["rules"] = static_cast<double>(prog.rules().size());

  for (auto _ : state) {
    state.PauseTiming();
    eval::Database db;
    workload::MakeChain(n, "e", &db);
    state.ResumeTiming();
    bench::RunAndCount(prog, query, &db, state);
  }
}

BENCHMARK_CAPTURE(BM_OptimizationStage, factored_raw, 0)
    ->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OptimizationStage, section5_without_ue, 1)
    ->Arg(64)->Arg(128)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_OptimizationStage, full_pipeline, 2)
    ->Arg(64)->Arg(128)->Arg(512)->Unit(benchmark::kMillisecond);

// §7.4's open question: does the uniform-equivalence deletion order change
// the result? We time both scan orders on the Fig. 2 program and report the
// resulting rule counts (equal here; the tests exhibit programs where the
// final programs differ).
void BM_UeOrder(benchmark::State& state, core::UeOrder order) {
  ast::Program program = bench::ParseOrDie(kThreeFormTc);
  core::PipelineResult pipe = bench::OrDie(
      core::OptimizeQuery(program, *program.query()), "pipeline");

  core::OptimizationContext ctx;
  ctx.bp = pipe.factored->split.name1;
  ctx.fp = pipe.factored->split.name2;
  ctx.magic_pred = pipe.magic.magic_names.at(pipe.factored->split.predicate);
  ctx.seed_args = pipe.magic.seed.args();
  ctx.query_pred = pipe.factored->query.predicate();
  core::OptimizeOptions oopts;
  oopts.ue_order = order;

  size_t rules = 0;
  for (auto _ : state) {
    auto optimized =
        core::OptimizeProgram(pipe.factored->program, ctx, oopts);
    if (!optimized.ok()) {
      state.SkipWithError(optimized.status().ToString().c_str());
      return;
    }
    rules = optimized->rules().size();
    benchmark::DoNotOptimize(rules);
  }
  state.counters["rules"] = static_cast<double>(rules);
}

BENCHMARK_CAPTURE(BM_UeOrder, forward, core::UeOrder::kForward)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_UeOrder, backward, core::UeOrder::kBackward)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
