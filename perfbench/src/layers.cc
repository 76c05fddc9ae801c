#include "layers.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "ast/parser.h"
#include "eval/seminaive.h"
#include "exec/parallel_seminaive.h"

namespace perfbench {

namespace {

using factlog::Result;
namespace api = factlog::api;
namespace ast = factlog::ast;
namespace core = factlog::core;
namespace eval = factlog::eval;
namespace exec = factlog::exec;

// The module each compile pass belongs to; the rest of the pipeline is core.
const std::map<std::string, std::string>& PassModules() {
  static const auto* modules = new std::map<std::string, std::string>{
      {"lint", "analysis"},
      {"magic-sets", "transform"},
      {"supplementary-magic", "transform"},
      {"counting", "transform"},
      {"linear-rewrite", "transform"},
      {"join-plan", "plan"},
  };
  return *modules;
}

std::string ModuleOfPass(const std::string& pass) {
  auto it = PassModules().find(pass);
  return it == PassModules().end() ? "core" : it->second;
}

double MaxOverMean(const std::vector<uint64_t>& shard_facts) {
  if (shard_facts.empty()) return 0;
  uint64_t max = 0, sum = 0;
  for (uint64_t f : shard_facts) {
    max = std::max(max, f);
    sum += f;
  }
  if (sum == 0) return 0;
  return static_cast<double>(max) * static_cast<double>(shard_facts.size()) /
         static_cast<double>(sum);
}

}  // namespace

int64_t TracedRead(const std::string& text, const ReadContext& ctx,
                   Tracer* tracer, LayerTotals* totals, Report* report) {
  api::Engine& engine = *ctx.engine;
  ++totals->decomposed_reads;
  ++totals->cache_lookups;
  std::shared_ptr<const core::CompiledQuery> plan;
  eval::EvalResult result;
  eval::AnswerSet answers;
  {
    ScopedSpan request(tracer, "request");
    ast::Program program;
    {
      ScopedSpan span(tracer, "ast.parse", request.id());
      Result<ast::Program> parsed = ast::ParseProgram(text);
      if (!parsed.ok() || !parsed->query().has_value()) {
        report->Fail("parse: " + text);
        return -1;
      }
      program = std::move(parsed).value();
    }
    api::QueryStats qs;
    {
      ScopedSpan span(tracer, "api.compile", request.id());
      auto compiled = engine.Compile(program, *program.query(),
                                     core::Strategy::kAuto, &qs);
      if (!compiled.ok()) {
        report->Fail("compile: " + compiled.status().ToString());
        return -1;
      }
      plan = std::move(compiled).value();
    }
    if (qs.cache_hit) {
      ++totals->cache_hits;
    } else {
      totals->compile_us += static_cast<double>(qs.compile_us);
      for (const core::PassTraceEntry& entry : plan->trace) {
        totals->pass_us[entry.pass] += static_cast<double>(entry.duration_us);
      }
    }
    totals->lint_warnings += plan->diagnostics.size();
    totals->factored_reads += plan->factoring_applied ? 1 : 0;
    totals->rules_out += plan->program.rules().size();

    eval::EvalOptions eopts = engine.options().eval;
    eopts.program_plan = &plan->plans;
    eopts.shared_edb = ctx.shared_edb;
    {
      ScopedSpan span(tracer, "eval.fixpoint", request.id());
      auto evaluated = eval::Evaluate(plan->program, &engine.db(), eopts);
      if (!evaluated.ok()) {
        report->Fail("fixpoint: " + evaluated.status().ToString());
        return -1;
      }
      result = std::move(evaluated).value();
    }
    {
      ScopedSpan span(tracer, "eval.extract", request.id());
      auto extracted = eval::ExtractAnswers(plan->query, &result,
                                            &engine.db(), ctx.shared_edb);
      if (!extracted.ok()) {
        report->Fail("extract: " + extracted.status().ToString());
        return -1;
      }
      answers = std::move(extracted).value();
    }
  }
  const eval::EvalStats& es = result.stats();
  totals->iterations += es.iterations;
  totals->derived_facts += es.total_facts;
  totals->instantiations += es.instantiations;
  totals->rows_matched += es.rows_matched;
  totals->replans += es.replans;
  totals->answers += answers.size();

  if (ctx.pool != nullptr) {
    // The same plan on the partitioned parallel fixpoint.
    exec::ParallelEvalOptions popts;
    popts.eval = engine.options().eval;
    popts.eval.program_plan = &plan->plans;
    popts.eval.shared_edb = ctx.shared_edb;
    popts.num_shards = ctx.num_shards;
    const exec::ThreadPool::Stats before = ctx.pool->stats();
    Result<eval::EvalResult> parallel = [&] {
      ScopedSpan span(tracer, "exec.fixpoint");
      return exec::EvaluateParallel(plan->program, &engine.db(), ctx.pool,
                                    popts);
    }();
    const exec::ThreadPool::Stats after = ctx.pool->stats();
    if (!parallel.ok() || parallel->stats().total_facts != es.total_facts) {
      report->Fail("parallel fixpoint disagrees with the sequential one");
      return -1;
    }
    totals->exec_tasks += after.executed - before.executed;
    totals->exec_steals += after.stolen - before.stolen;
    totals->shard_skew += MaxOverMean(parallel->stats().shard_facts);
    ++totals->parallel_reads;
  }

  if (ctx.engine_query) {
    const uint64_t recosted_before = engine.stats().plans_recosted;
    api::QueryStats qs;
    Clock::time_point start = Clock::now();
    Result<eval::AnswerSet> via_engine = [&] {
      ScopedSpan span(tracer, "api.query");
      return engine.Query(text, core::Strategy::kAuto, &qs);
    }();
    double wall_us = MicrosSince(start);
    if (!via_engine.ok() || via_engine->rows != answers.rows) {
      report->Fail("Engine::Query disagrees with the decomposed read: " +
                   text);
      return -1;
    }
    totals->api_overhead_us += std::max(
        0.0, wall_us - static_cast<double>(qs.compile_us + qs.execute_us));
    ++totals->api_queries;
    totals->plans_recosted += engine.stats().plans_recosted - recosted_before;
  }
  return static_cast<int64_t>(answers.size());
}

double CompileFraction(const Tracer& tracer, const LayerTotals& totals) {
  const double compile = tracer.Durations("ast.parse").Sum() + totals.compile_us;
  const double request = tracer.Durations("request").Sum();
  return request > 0 ? compile / request : 0.0;
}

double CacheHitFraction(const LayerTotals& totals) {
  return totals.cache_lookups == 0
             ? 0.0
             : static_cast<double>(totals.cache_hits) /
                   static_cast<double>(totals.cache_lookups);
}

void EmitLayerMetrics(const Tracer& tracer, const LayerTotals& t,
                      Report* report) {
  const std::map<std::string, double> self = tracer.SelfMicros();
  auto span_us = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  auto per = [](double total, uint64_t n) {
    return n == 0 ? 0.0 : total / static_cast<double>(n);
  };
  auto pass = [&](const char* name) {
    auto it = t.pass_us.find(name);
    return it == t.pass_us.end() ? 0.0 : it->second;
  };
  // The workload's reads: served reads when serving (a decomposed point read
  // shadows a served one there), else the decomposed reads.
  const uint64_t reads =
      t.served_reads > 0 ? t.served_reads : t.decomposed_reads;

  // ast / analysis
  report->Metric("ast.parse_us", per(span_us("ast.parse"), reads), "us");
  report->Metric("analysis.lint_us", per(pass("lint"), reads), "us");
  report->Metric("analysis.lint_warnings",
                 per(static_cast<double>(t.lint_warnings), t.decomposed_reads),
                 "count");

  // core: compile time not spent in another module's pass.
  double other_modules = 0;
  for (const auto& [name, us] : t.pass_us) {
    if (ModuleOfPass(name) != "core") other_modules += us;
  }
  report->Metric("core.compile_us",
                 per(std::max(0.0, t.compile_us - other_modules), reads), "us");
  for (const char* name : {"adorn", "classify", "normalize", "factorability",
                           "factoring", "section-5-cleanups"}) {
    report->Metric(std::string("core.pass_us.") + name, per(pass(name), reads),
                   "us");
  }
  report->Metric("core.factoring_applied_frac",
                 per(static_cast<double>(t.factored_reads), t.decomposed_reads),
                 "ratio");
  report->Metric("core.rules_out",
                 per(static_cast<double>(t.rules_out), t.decomposed_reads),
                 "count");

  // transform / plan
  for (const char* name : {"magic-sets", "supplementary-magic", "counting"}) {
    report->Metric(std::string("transform.pass_us.") + name,
                   per(pass(name), reads), "us");
  }
  report->Metric("plan.pass_us.join-plan", per(pass("join-plan"), reads), "us");
  report->Metric("plan.plans_recosted",
                 static_cast<double>(t.plans_recosted), "count");
  report->Metric("plan.replans", static_cast<double>(t.replans), "count");

  // api
  report->Metric("api.reads", static_cast<double>(reads), "count");
  report->Metric("api.cache_lookups", static_cast<double>(t.cache_lookups),
                 "count");
  report->Metric("api.cache_hit_frac", CacheHitFraction(t), "ratio");
  report->Metric("api.view_hit_frac",
                 per(static_cast<double>(t.view_hits), reads), "ratio");
  report->Metric("api.overhead_us", per(t.api_overhead_us, t.api_queries),
                 "us");

  // eval: the sequential fixpoint every workload's reads run.
  const uint64_t dec = t.decomposed_reads;
  report->Metric("eval.fixpoint_us", per(span_us("eval.fixpoint"), reads),
                 "us");
  report->Metric("eval.iterations", per(static_cast<double>(t.iterations), dec),
                 "count");
  report->Metric("eval.derived_facts",
                 per(static_cast<double>(t.derived_facts), dec), "count");
  report->Metric("eval.instantiations",
                 per(static_cast<double>(t.instantiations), dec), "count");
  report->Metric("eval.rows_matched",
                 per(static_cast<double>(t.rows_matched), dec), "count");
  report->Metric("eval.extract_us",
                 per(span_us("eval.extract") + t.extract_us, reads), "us");
  report->Metric("eval.answers", per(static_cast<double>(t.answers), reads),
                 "count");

  // exec: the parallel fixpoint on the same plans as the sequential one;
  // 0 throughout on workloads that do not measure it.
  const double par_us = per(span_us("exec.fixpoint"), t.parallel_reads);
  const double seq_us =
      t.parallel_reads == 0 ? 0.0 : per(span_us("eval.fixpoint"), dec);
  report->Metric("exec.fixpoint_us", par_us, "us");
  report->Metric("exec.width0_fixpoint_us", seq_us, "us");
  report->Metric("exec.speedup", par_us > 0 ? seq_us / par_us : 0.0, "ratio");
  report->Metric("exec.tasks",
                 per(static_cast<double>(t.exec_tasks), t.parallel_reads),
                 "count");
  report->Metric("exec.steals",
                 per(static_cast<double>(t.exec_steals), t.parallel_reads),
                 "count");
  report->Metric("exec.shard_skew", per(t.shard_skew, t.parallel_reads),
                 "ratio");

  // inc / serve / storage: 0 on workloads that neither serve nor update.
  const uint64_t updates =
      t.insert_apply_us.size() + t.delete_apply_us.size();
  report->Metric("inc.insert_us", t.insert_apply_us.Quantile(0.5), "us");
  report->Metric("inc.delete_us", t.delete_apply_us.Quantile(0.5), "us");
  report->Metric("inc.delta_passes",
                 per(static_cast<double>(t.delta_passes), updates), "count");
  report->Metric("inc.cone_input",
                 per(static_cast<double>(t.cone_input), updates), "count");
  report->Metric("inc.overdeleted",
                 per(static_cast<double>(t.overdeleted), updates), "count");
  report->Metric("inc.rederived",
                 per(static_cast<double>(t.rederived), updates), "count");
  report->Metric("inc.edge_store_edges",
                 static_cast<double>(t.edge_store_edges), "count");
  report->Metric("serve.queue_us", per(t.serve_queue_us, t.served_reads), "us");
  report->Metric("serve.execute_us", per(t.serve_execute_us, t.served_reads),
                 "us");
  report->Metric("serve.updates_per_epoch",
                 per(static_cast<double>(t.served_updates), t.epochs), "count");
  report->Metric("serve.rejected_frac",
                 per(static_cast<double>(t.serve_rejected), t.serve_submitted),
                 "ratio");
  report->Metric("storage.wal_bytes_per_update",
                 per(static_cast<double>(t.wal_bytes), updates), "B");
  report->Metric("storage.wal_records_per_update",
                 per(static_cast<double>(t.wal_records), updates), "count");
  report->Metric("storage.pool_hit_rate", t.pool_hit_rate, "ratio");
  report->Metric("storage.checkpoint_s", t.checkpoint_s, "s");
  report->Metric("storage.reopen_s", t.reopen_s, "s");

  // Isolation: compile-side share of a decomposed read, with its bases.
  report->Metric("isolation.compile_us",
                 per(tracer.Durations("ast.parse").Sum() + t.compile_us, dec),
                 "us");
  report->Metric("isolation.request_us",
                 per(tracer.Durations("request").Sum(), dec), "us");
  report->Metric("isolation.compile_frac", CompileFraction(tracer, t),
                 "ratio");

  // Tracing overhead on the engine path.
  const double untraced = t.untraced_read_us.Mean();
  const double traced = t.traced_read_us.Mean();
  report->Metric("trace.untraced_read_us", untraced, "us");
  report->Metric("trace.traced_read_us", traced, "us");
  report->Metric("trace.overhead_frac",
                 untraced > 0 ? traced / untraced - 1.0 : 0.0, "ratio");
}

}  // namespace perfbench
