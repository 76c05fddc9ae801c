// Shared helpers for the factlog benchmark harness.
//
// Each bench binary regenerates one experiment row from EXPERIMENTS.md. The
// paper reports no machine timings (its evaluation is analytical), so the
// benchmarks report the quantities its claims are about — facts derived and
// rule instantiations — as google-benchmark counters, alongside wall time.

#ifndef FACTLOG_BENCH_BENCH_UTIL_H_
#define FACTLOG_BENCH_BENCH_UTIL_H_

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <string>

#include "ast/parser.h"
#include "core/pipeline.h"
#include "eval/seminaive.h"

namespace factlog::bench {

/// Aborts the benchmark binary on error (benchmarks must not run on broken
/// inputs).
template <typename T>
T OrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::cerr << what << ": " << result.status().ToString() << "\n";
    std::abort();
  }
  return std::move(result).value();
}

inline ast::Program ParseOrDie(const std::string& text) {
  return OrDie(ast::ParseProgram(text), "parse");
}

/// Runs the full optimization pipeline, aborting on error.
inline core::PipelineResult Pipeline(const ast::Program& program) {
  return OrDie(core::OptimizeQuery(program, *program.query()), "pipeline");
}

/// Compiles the program's query under a strategy, aborting on error.
inline core::CompiledQuery Compile(const ast::Program& program,
                                   core::Strategy strategy) {
  return OrDie(core::CompileQuery(program, *program.query(), strategy),
               core::StrategyToString(strategy));
}

/// Evaluates and records the standard counters on `state`.
inline void RunAndCount(const ast::Program& program, const ast::Atom& query,
                        eval::Database* db, benchmark::State& state,
                        eval::EvalOptions opts = {}) {
  eval::EvalStats stats;
  auto answers = eval::EvaluateQuery(program, query, db, opts, &stats);
  if (!answers.ok()) {
    state.SkipWithError(answers.status().ToString().c_str());
    return;
  }
  state.counters["facts"] = static_cast<double>(stats.total_facts);
  state.counters["instantiations"] = static_cast<double>(stats.instantiations);
  state.counters["answers"] = static_cast<double>(answers->rows.size());
  benchmark::DoNotOptimize(answers->rows.cells().data());
}

}  // namespace factlog::bench

#endif  // FACTLOG_BENCH_BENCH_UTIL_H_
