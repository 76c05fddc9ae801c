// factlog optimizer CLI: compile a Datalog query with a selectable strategy.
//
//   usage: optimizer_cli <program.dl>
//            [--strategy auto|magic|supplementary-magic|factoring|counting|
//                        linear-rewrite]
//            [--stage trace|magic|factored|final]
//            [--explain] [--lint]
//            [--facts <facts.dl>]
//            [--threads <n>] [--shards <n>]
//            [--batch <queries.txt>] [--incremental] [--serve]
//            [--db <dir>]
//
// The program file must contain a `?- query.` line (optional with --batch
// and --lint).
//
// --lint runs only the static analyzer (analysis/lint.h) — the same checks
// that open every compilation — and prints a rustc-style report: diagnostics
// to stderr, the summary line to stdout. Exit 0 when the program is free of
// lint errors (warnings allowed), 11 (invalid argument) otherwise. The
// diagnostic codes (L001 unsafe rule, L003 arity mismatch, L104 cartesian
// product, ...) are tabulated in README.md.
// With --facts the final program is evaluated against the given ground facts
// and the answers are printed; otherwise the requested stage is printed
// (default: everything). `--stage trace` prints the structured pass trace
// (per-pass timings, rule counts, and decisions). `--explain` prints each
// rule's stored join plan: the evaluation order, the per-literal index
// columns the engines pre-build, and the driver literal the parallel
// fixpoint partitions by. After an evaluation (--facts/--db), --explain
// additionally re-prints the plan with the measured cardinality next to
// each literal's estimate (the engine's statistics catalog).
//
// --incremental (requires --facts) materializes the query as a live view and
// reads update commands from stdin, maintaining the answers with delta-sized
// work (counting / derivation-edge slices / SCC re-evaluation fallback)
// instead of re-running the fixpoint:
//
//   +e(1, 5).      insert a fact
//   -e(1, 2).      remove a fact
//   why t(1, 5).   print a derivation tree for a maintained fact, read off
//                  the view's derivation edge store (EDB and
//                  counting-maintained facts print as annotated leaves)
//   ?              print the current answers
//   lint           re-run the static analyzer against the engine's current
//                  schema and print the diagnostic report
//   stats          print maintenance counters — cumulative, edge-store
//                  gauges, and the per-update `last update` snapshot (cone
//                  sizes of the most recent delta) — plus storage counters
//                  with --db: buffer-pool hit rate, dirty pages, WAL bytes
//   checkpoint     (--db only) flush pages, persist the catalog, reset the
//                  WAL
//
//   $ printf '+e(2, 4).\n-e(1, 2).\n?\n' |
//       ./optimizer_cli tc.dl --facts facts.dl --incremental
//
// --serve (requires --facts) runs the same command loop with async dispatch:
// it starts the serving subsystem (MVCC snapshot reads, single-writer
// updates), submits `?` and `+`/`-` through the request queue, and prints
// each completion asynchronously with its queue/apply/execute latency and
// snapshot epoch. `stats` prints the serving counters; `why` and
// `checkpoint` are rejected. Defaults --threads to 2 when unset (serving
// needs a pool).
//
// --db <dir> opens (creating when absent) a disk-backed engine on the given
// database directory: facts load through the WAL, a previous session's
// checkpoint + WAL are recovered on open, and the interactive `checkpoint`
// command makes the current state durable. A reopened database answers
// without --facts:
//
//   $ ./optimizer_cli tc.dl --facts facts.dl --db /tmp/db   # save
//   $ ./optimizer_cli tc.dl --db /tmp/db                    # recover + query
//
// --threads n runs bottom-up evaluation on the parallel execution subsystem
// (n worker threads). --shards n hash-partitions every relation into n
// storage shards (the parallel fixpoint consumes delta shards in place);
// per-shard row counts appear in the stats output when n > 1.
// --batch f reads one query atom per line from f (e.g.
// "t(1, Y)."), submits all of them at once through the serving queue
// (api::Engine::StartServing + SubmitQuery), which evaluates them
// concurrently against the program and facts, and prints per-query stats
// plus a wall-clock summary. Like --serve, it defaults --threads to 2 when
// unset. It exits 11 when any query fails.
//
// Exit codes: 0 on success, 2 on usage errors, and 10 + StatusCode on
// pipeline/evaluation errors (11 = invalid argument, 12 = not found,
// 13 = failed precondition, 14 = resource exhausted); see
// StatusCodeToExitCode in common/status.h.
//
//   $ cat tc.dl
//   t(X, Y) :- e(X, Y).
//   t(X, Y) :- e(X, W), t(W, Y).
//   ?- t(1, Y).
//   $ cat facts.dl
//   e(1, 2). e(2, 3).
//   $ ./optimizer_cli tc.dl --facts facts.dl

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <fstream>
#include <future>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/lint.h"
#include "api/engine.h"
#include "ast/parser.h"
#include "common/diagnostic.h"
#include "core/pipeline.h"
#include "inc/incremental.h"
#include "plan/join_plan.h"

namespace {

factlog::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return factlog::Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

int Fail(const factlog::Status& status) {
  std::cerr << "error: " << status.ToString() << "\n";
  return factlog::StatusCodeToExitCode(status.code());
}

int Usage() {
  std::cerr << "usage: optimizer_cli <program.dl> "
               "[--strategy auto|magic|supplementary-magic|factoring|"
               "counting|linear-rewrite] "
               "[--stage trace|magic|factored|final] [--explain] [--lint] "
               "[--facts <facts.dl>] "
               "[--threads <n>] [--shards <n>] [--batch <queries.txt>] "
               "[--incremental] [--serve] [--db <dir>]\n";
  return 2;
}

// --lint mode: run only the static analyzer and print the rustc-style
// report — diagnostics to stderr, the summary line to stdout. Exit 0 when
// the program has no lint errors (warnings allowed), 11 otherwise.
int RunLint(const factlog::ast::Program& program) {
  using namespace factlog;
  const analysis::LintReport report = analysis::LintProgram(program);
  for (Severity severity : {Severity::kError, Severity::kWarning}) {
    for (const Diagnostic& d : report.diagnostics) {
      if (d.severity == severity) std::cerr << d.Render() << "\n";
    }
  }
  std::cout << "lint: " << report.errors() << " error"
            << (report.errors() == 1 ? "" : "s") << ", " << report.warnings()
            << " warning" << (report.warnings() == 1 ? "" : "s") << "\n";
  return report.ok() ? 0 : StatusCodeToExitCode(StatusCode::kInvalidArgument);
}

// The interactive `lint` command: re-lint against the engine's current
// schema (the database's relations feed the arity check), '%'-prefixed so
// the output nests in the REPL transcript.
void PrintLintReport(factlog::api::Engine* engine,
                     const factlog::ast::Program& program, std::ostream& out) {
  using namespace factlog;
  const analysis::LintReport report = engine->Lint(program);
  for (const Diagnostic& d : report.diagnostics) {
    out << "% " << d.ToString() << "\n";
  }
  out << "% lint: " << report.errors() << " errors, " << report.warnings()
      << " warnings over " << report.num_strata << " strata\n";
}

// Appends the storage counters of a persistent (--db) engine to `out`.
void PrintStorageStats(factlog::api::Engine* engine, std::ostream& out) {
  const factlog::api::PersistenceStats ps = engine->persistence_stats();
  char hit_rate[32];
  std::snprintf(hit_rate, sizeof(hit_rate), "%.3f", ps.storage.pool.hit_rate());
  out << "% storage: pool hit rate " << hit_rate << " ("
      << ps.storage.pool.hits << " hits, " << ps.storage.pool.misses
      << " misses, " << ps.storage.pool.evictions << " evictions), "
      << ps.storage.pool.dirty_pages << " dirty pages; WAL "
      << ps.storage.wal_bytes << " bytes @ epoch "
      << ps.storage.last_committed_epoch << "; " << ps.storage.num_pages
      << " pages (" << ps.storage.free_pages << " free), "
      << ps.storage.checkpoints << " checkpoints\n";
}

// The interactive `stats` commands' engine-counter line: plan-cache traffic
// plus the adaptive-planning counters — cached plans re-costed in place
// after extent drift, and mid-fixpoint driver switches.
void PrintEngineStats(factlog::api::Engine* engine, std::ostream& out) {
  const factlog::api::EngineStats es = engine->stats();
  out << "% engine: " << es.compiles << " compiles, " << es.cache_hits
      << " cache hits; plans_recosted " << es.plans_recosted << "; replans "
      << es.replans << "\n";
}

// The view's maintenance counters for the synchronous `stats` command:
// cumulative, edge-store gauges, and the per-update `last update` snapshot.
// `edges_owed` marks a restored view whose edge store is not built yet.
void PrintViewStats(const factlog::inc::ViewStats& stats, bool edges_owed,
                    std::ostream& out) {
  out << "% view: +" << stats.inserts_applied << " -" << stats.deletes_applied
      << " EDB rows; IDB +" << stats.idb_inserted << " -" << stats.idb_deleted
      << "; support updates " << stats.support_updates << "; overdeleted "
      << stats.overdeleted << ", rederived " << stats.rederived << "; cone "
      << stats.cone_input << " in / " << stats.cone_pruned << " pruned; "
      << stats.delta_passes << " delta passes\n";
  out << "% edges: "
      << (stats.edge_store_active
              ? std::to_string(stats.edge_store_edges) + " derivations over " +
                    std::to_string(stats.edge_store_facts) + " facts (+" +
                    std::to_string(stats.edges_added) + " -" +
                    std::to_string(stats.edges_removed) + ")"
              : std::string(stats.edge_store_dropped
                                ? "store dropped over budget "
                                  "(re-evaluation fallback)"
                            : edges_owed ? "built on first update or why"
                                         : "not tracked"))
      << "\n";
  const factlog::inc::ViewUpdateStats& lu = stats.last_update;
  out << "% last update: IDB +" << lu.idb_inserted << " -" << lu.idb_deleted
      << "; cone " << lu.cone_input << " in / " << lu.cone_pruned
      << " pruned / " << lu.overdeleted << " deleted; edges +"
      << lu.edges_added << " -" << lu.edges_removed << "\n";
}

// The `why <fact>.` target: the pipeline usually rewrites the query
// predicate (magic/factoring); when the asked fact uses the original query
// predicate, rebind the compiled query atom with its constants so
// `why t(1, 4).` explains the maintained fact behind that answer.
factlog::ast::Atom WhyTarget(const factlog::inc::MaterializedView* v,
                             const factlog::ast::Atom& query,
                             const factlog::ast::Atom& fact) {
  using namespace factlog;
  if (v == nullptr || v->Find(fact.predicate()) != nullptr ||
      fact.predicate() != query.predicate() ||
      !v->program().query().has_value() ||
      v->program().query()->predicate() == fact.predicate()) {
    return fact;
  }
  if (fact.arity() != query.arity()) return fact;
  std::map<std::string, ast::Term> bind;
  for (size_t i = 0; i < query.arity(); ++i) {
    const ast::Term& qa = query.args()[i];
    if (qa.IsVariable()) {
      bind.emplace(qa.var_name(), fact.args()[i]);
    } else if (!(qa == fact.args()[i])) {
      return fact;
    }
  }
  const ast::Atom& vq = *v->program().query();
  std::vector<ast::Term> args;
  for (size_t i = 0; i < vq.arity(); ++i) {
    const ast::Term& t = vq.args()[i];
    if (!t.IsVariable()) {
      args.push_back(t);
      continue;
    }
    auto it = bind.find(t.var_name());
    if (it == bind.end()) return fact;
    args.push_back(it->second);
  }
  return ast::Atom(vq.predicate(), std::move(args));
}

// --incremental / --serve: materialize the query as a live view, then run
// the command loop over stdin. With `serve` every query and update is
// submitted through the serving request queue and its completion (with
// snapshot epoch and latencies) prints whenever it finishes, possibly after
// later commands were already submitted; otherwise each command runs
// synchronously on the engine.
int RunRepl(factlog::api::Engine* engine, const factlog::ast::Program& program,
            const factlog::ast::Atom& query, factlog::core::Strategy strategy,
            bool serve) {
  using namespace factlog;
  auto handle = engine->Materialize(program, query, strategy);
  if (!handle.ok()) return Fail(handle.status());
  uint64_t session = 0;
  if (serve) {
    if (Status st = engine->StartServing(); !st.ok()) return Fail(st);
    session = engine->OpenSession();
  }

  // Completions print from pool workers / the writer thread; serialize them.
  std::mutex out_mu;
  auto answer = [&]() -> int {
    if (!serve) {
      api::QueryStats stats;
      auto answers = engine->Query(program, query, strategy, &stats);
      if (!answers.ok()) return Fail(answers.status());
      std::cout << "% answers (" << answers->rows.size() << " rows, "
                << (stats.view_hit ? "from view" : "recomputed") << ")\n"
                << answers->ToString(engine->db().store());
      return 0;
    }
    Status st = engine->SubmitQuery(
        session, program, query, strategy,
        [&out_mu, engine](serve::QueryResponse resp) {
          std::lock_guard<std::mutex> lock(out_mu);
          if (!resp.status.ok()) {
            std::cout << "% query error: " << resp.status.ToString() << "\n";
            return;
          }
          std::cout << "% answers @ epoch " << resp.epoch << " ("
                    << resp.answers.rows.size() << " rows, "
                    << (resp.view_hit ? "from view" : "evaluated")
                    << ", queue " << resp.queue_us << " us, execute "
                    << resp.execute_us << " us)\n"
                    << resp.answers.ToString(engine->db().store());
        });
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(out_mu);
      std::cout << "% query rejected: " << st.ToString() << "\n";
    }
    return 0;
  };
  auto update = [&](bool insert, const ast::Atom& fact) -> int {
    if (!serve) {
      auto start = std::chrono::steady_clock::now();
      Status st = insert ? engine->AddFact(fact) : engine->RemoveFact(fact);
      if (!st.ok()) return Fail(st);
      auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count();
      std::cout << "% " << (insert ? "+" : "-") << fact.ToString() << " ("
                << us << " us)\n";
      return 0;
    }
    Status st = engine->SubmitUpdate(
        session, insert, fact,
        [&out_mu, insert, rendered = fact.ToString()](
            serve::UpdateResponse resp) {
          std::lock_guard<std::mutex> lock(out_mu);
          if (!resp.status.ok()) {
            std::cout << "% " << (insert ? "+" : "-") << rendered
                      << " error: " << resp.status.ToString() << "\n";
            return;
          }
          std::cout << "% " << (insert ? "+" : "-") << rendered
                    << " -> epoch " << resp.epoch << " (queue "
                    << resp.queue_us << " us, apply " << resp.apply_us
                    << " us)\n";
        });
    if (!st.ok()) {
      std::lock_guard<std::mutex> lock(out_mu);
      std::cout << "% update rejected: " << st.ToString() << "\n";
    }
    return 0;
  };
  auto stats = [&]() -> int {
    std::lock_guard<std::mutex> lock(out_mu);
    if (serve) {
      serve::ServerStats s = engine->serving_stats();
      std::cout << "% serving: epoch " << engine->serving_epoch()
                << "; queries " << s.completed_queries << "/"
                << s.accepted_queries << " done (" << s.rejected_queries
                << " rejected); updates " << s.completed_updates << "/"
                << s.accepted_updates << " done (" << s.rejected_updates
                << " rejected); " << s.epochs_installed
                << " epochs installed; " << s.inflight << " in flight\n";
      PrintEngineStats(engine, std::cout);
      return 0;
    }
    auto vs = engine->ViewStatsFor(*handle);
    if (!vs.ok()) return Fail(vs.status());
    PrintViewStats(*vs, engine->view(*handle)->edge_store_owed(),
                   std::cout);
    PrintEngineStats(engine, std::cout);
    if (engine->persistent()) PrintStorageStats(engine, std::cout);
    return 0;
  };
  auto why = [&](std::string text) -> int {
    size_t b = text.find_first_not_of(" \t");
    text = b == std::string::npos ? std::string() : text.substr(b);
    if (!text.empty() && text.back() == '.') text.pop_back();
    auto fact = ast::ParseAtom(text);
    if (!fact.ok()) return Fail(fact.status());
    auto tree = engine->ExplainFromView(
        *handle, WhyTarget(engine->view(*handle), query, *fact));
    if (!tree.ok()) return Fail(tree.status());
    std::cout << *tree;
    return 0;
  };
  auto checkpoint = [&]() -> int {
    if (!engine->persistent()) {
      std::cout << "% no --db directory; nothing to checkpoint\n";
      return 0;
    }
    auto start = std::chrono::steady_clock::now();
    if (Status st = engine->Checkpoint(); !st.ok()) return Fail(st);
    auto us = std::chrono::duration_cast<std::chrono::microseconds>(
                  std::chrono::steady_clock::now() - start)
                  .count();
    auto ps = engine->persistence_stats();
    std::cout << "% checkpoint #" << ps.storage.checkpoints << " ("
              << ps.storage.num_pages << " pages, WAL reset, " << us
              << " us)\n";
    return 0;
  };

  int rc = answer();
  std::string line;
  while (rc == 0 && std::getline(std::cin, line)) {
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '%') continue;
    size_t end = line.find_last_not_of(" \t\r");
    std::string cmd = line.substr(begin, end - begin + 1);
    if (cmd == "?") {
      rc = answer();
    } else if (cmd == "lint") {
      // Lint is pure (no snapshot pin, no mutation), so it answers inline
      // even in serving mode.
      std::lock_guard<std::mutex> lock(out_mu);
      PrintLintReport(engine, program, std::cout);
    } else if (cmd == "stats") {
      rc = stats();
    } else if (!serve && cmd.rfind("why ", 0) == 0) {
      rc = why(cmd.substr(4));
    } else if (!serve && cmd == "checkpoint") {
      rc = checkpoint();
    } else if (cmd.size() >= 2 && (cmd[0] == '+' || cmd[0] == '-')) {
      std::string text = cmd.substr(1);
      if (!text.empty() && text.back() == '.') text.pop_back();
      auto fact = ast::ParseAtom(text);
      rc = fact.ok() ? update(cmd[0] == '+', *fact) : Fail(fact.status());
    } else {
      std::cerr << (serve ? "error: expected '+fact.', '-fact.', '?', "
                            "'lint', or 'stats', got: "
                          : "error: expected '+fact.', '-fact.', "
                            "'why <fact>.', '?', 'lint', 'stats', or "
                            "'checkpoint', got: ")
                << cmd << "\n";
      rc = StatusCodeToExitCode(StatusCode::kInvalidArgument);
    }
  }
  if (serve) {
    // Drain every in-flight completion (they reference out_mu) before the
    // callbacks' captures go out of scope.
    engine->CloseSession(session);
    engine->StopServing();
  }
  return rc;
}

// Renders per-shard row counts as " [shard rows: a, b, ...]"; empty for flat
// (single-shard) storage, where the split adds no information.
std::string ShardRowsSuffix(const std::vector<uint64_t>& shard_facts) {
  if (shard_facts.size() <= 1) return "";
  std::string out = " [shard rows:";
  for (size_t s = 0; s < shard_facts.size(); ++s) {
    out += (s == 0 ? " " : ", ") + std::to_string(shard_facts[s]);
  }
  out += "]";
  return out;
}

// --batch mode: every nonblank line of the batch file is a query atom posed
// against the program's rules. All of them are submitted at once through the
// serving queue, which evaluates them concurrently on the engine's pool
// against one snapshot and shares the plan cache between them.
int RunBatchFile(const factlog::ast::Program& program,
                 const std::string& batch_path, const std::string& facts_path,
                 factlog::core::Strategy strategy, size_t threads,
                 size_t shards) {
  using namespace factlog;
  auto batch_text = ReadFile(batch_path);
  if (!batch_text.ok()) return Fail(batch_text.status());

  std::vector<ast::Atom> queries;
  std::istringstream lines(*batch_text);
  for (std::string line; std::getline(lines, line);) {
    // Trim whitespace and an optional trailing '.'.
    size_t begin = line.find_first_not_of(" \t\r");
    if (begin == std::string::npos || line[begin] == '%') continue;
    size_t end = line.find_last_not_of(" \t\r.");
    if (end == std::string::npos || end < begin) continue;  // only ". " etc.
    auto query = ast::ParseAtom(line.substr(begin, end - begin + 1));
    if (!query.ok()) return Fail(query.status());
    queries.push_back(std::move(query).value());
  }

  api::EngineOptions options;
  options.num_threads = threads;
  options.num_shards = shards;
  api::Engine engine(options);
  if (!facts_path.empty()) {
    auto facts_text = ReadFile(facts_path);
    if (!facts_text.ok()) return Fail(facts_text.status());
    Status load = engine.LoadFacts(*facts_text);
    if (!load.ok()) return Fail(load);
  }

  // The whole file is in flight at once, so admission must take all of it.
  serve::ServeOptions serve_options;
  serve_options.max_queue = std::max(serve_options.max_queue, queries.size());
  serve_options.max_inflight_per_session =
      std::max(serve_options.max_inflight_per_session, queries.size());
  if (Status st = engine.StartServing(serve_options); !st.ok()) {
    return Fail(st);
  }
  const uint64_t session = engine.OpenSession();
  const auto start = std::chrono::steady_clock::now();
  std::vector<std::future<serve::QueryResponse>> pending;
  pending.reserve(queries.size());
  for (const ast::Atom& query : queries) {
    pending.push_back(engine.SubmitQuery(session, program, query, strategy));
  }
  std::vector<serve::QueryResponse> responses;
  responses.reserve(pending.size());
  for (auto& response : pending) responses.push_back(response.get());
  const int64_t wall_us =
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count();
  engine.StopServing();

  size_t failed = 0;
  int64_t sum_execute_us = 0;
  for (size_t i = 0; i < responses.size(); ++i) {
    const serve::QueryResponse& r = responses[i];
    sum_execute_us += r.execute_us;
    std::cout << "% [" << i << "] " << queries[i].ToString() << " : ";
    if (r.status.ok()) {
      std::cout << r.answers.size() << " answers, "
                << (r.cache_hit ? "cache hit" : "compiled") << ", queue "
                << r.queue_us << " us, execute " << r.execute_us << " us\n";
    } else {
      ++failed;
      std::cout << "error: " << r.status.ToString() << "\n";
    }
  }
  std::cout << "% batch: " << responses.size() << " queries ("
            << responses.size() - failed << " ok, " << failed << " failed) on "
            << threads << " threads in " << wall_us << " us wall ("
            << sum_execute_us << " us summed execute)\n";
  return failed == 0 ? 0 : StatusCodeToExitCode(StatusCode::kInvalidArgument);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace factlog;
  if (argc < 2) return Usage();
  std::string stage = "all";
  std::string facts_path;
  std::string batch_path;
  std::string db_path;
  size_t threads = 0;
  size_t shards = 1;
  bool incremental = false;
  bool serve = false;
  bool explain = false;
  bool lint_only = false;
  core::Strategy strategy = core::Strategy::kFactoring;
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--stage" && i + 1 < argc) {
      stage = argv[++i];
    } else if (arg == "--explain") {
      explain = true;
    } else if (arg == "--lint") {
      lint_only = true;
    } else if (arg == "--incremental") {
      incremental = true;
    } else if (arg == "--serve") {
      serve = true;
    } else if (arg == "--facts" && i + 1 < argc) {
      facts_path = argv[++i];
    } else if (arg == "--batch" && i + 1 < argc) {
      batch_path = argv[++i];
    } else if (arg == "--db" && i + 1 < argc) {
      db_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long parsed = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || parsed > 1024) {
        std::cerr << "invalid --threads value: " << argv[i] << "\n";
        return Usage();
      }
      threads = static_cast<size_t>(parsed);
    } else if (arg == "--shards" && i + 1 < argc) {
      char* end = nullptr;
      unsigned long parsed = std::strtoul(argv[++i], &end, 10);
      if (end == argv[i] || *end != '\0' || parsed == 0 || parsed > 4096) {
        std::cerr << "invalid --shards value: " << argv[i] << "\n";
        return Usage();
      }
      shards = static_cast<size_t>(parsed);
    } else if (arg == "--strategy" && i + 1 < argc) {
      auto parsed = core::StrategyFromString(argv[++i]);
      if (!parsed.has_value()) {
        std::cerr << "unknown strategy: " << argv[i] << "\n";
        return Usage();
      }
      strategy = *parsed;
    } else {
      std::cerr << "unknown argument: " << arg << "\n";
      return Usage();
    }
  }

  auto text = ReadFile(argv[1]);
  if (!text.ok()) return Fail(text.status());
  auto program = ast::ParseProgram(*text);
  if (!program.ok()) return Fail(program.status());

  if (lint_only) return RunLint(*program);

  if (!batch_path.empty()) {
    if (!db_path.empty()) {
      std::cerr << "error: --db and --batch are exclusive\n";
      return 2;
    }
    // Like --serve, the batch runs on the serving queue, which needs a pool.
    return RunBatchFile(*program, batch_path, facts_path, strategy,
                        threads == 0 ? 2 : threads, shards);
  }
  if (!program->query().has_value()) {
    std::cerr << "error: the program has no '?-' query\n";
    return StatusCodeToExitCode(StatusCode::kInvalidArgument);
  }

  // The paper pipeline (kFactoring) exposes every intermediate stage through
  // OptimizeQuery — one run yields the trace, the Magic/factored stages, and
  // the final program. Other strategies compile straight to a CompiledQuery.
  const bool wants_intermediates =
      stage == "all" || stage == "magic" || stage == "factored";
  if (wants_intermediates && stage != "all" &&
      strategy != core::Strategy::kFactoring) {
    std::cerr << "error: --stage " << stage
              << " shows a paper-pipeline intermediate; it requires "
                 "--strategy factoring\n";
    return 2;
  }
  core::CompiledQuery compiled;
  std::optional<core::PipelineResult> pipeline;
  if (strategy == core::Strategy::kFactoring) {
    auto full = core::OptimizeQuery(*program, *program->query());
    if (!full.ok()) return Fail(full.status());
    // Equivalent to CompileQuery(kFactoring) — tests assert they agree —
    // without compiling the pipeline a second time.
    compiled.strategy = core::Strategy::kFactoring;
    compiled.program = full->final_program();
    compiled.query = full->final_query();
    compiled.program.set_query(compiled.query);
    compiled.factoring_applied = full->factoring_applied;
    compiled.factor_class = full->factorability.cls;
    compiled.plans = full->plans;
    compiled.trace = full->trace;
    pipeline = std::move(full).value();
  } else {
    auto result = core::CompileQuery(*program, *program->query(), strategy);
    if (!result.ok()) return Fail(result.status());
    compiled = std::move(result).value();
  }

  if (stage == "all" || stage == "trace") {
    std::cout << "% --- pass trace (strategy: "
              << core::StrategyToString(compiled.strategy) << ") ---\n";
    std::istringstream lines(core::TraceToString(compiled.trace));
    for (std::string line; std::getline(lines, line);) {
      std::cout << "%   " << line << "\n";
    }
  }
  if ((stage == "all" || stage == "magic") && pipeline.has_value()) {
    std::cout << "% --- Magic program ---\n"
              << pipeline->magic.program.ToString();
  }
  if ((stage == "all" || stage == "factored") && pipeline.has_value() &&
      pipeline->factored.has_value()) {
    std::cout << "% --- factored program ---\n"
              << pipeline->factored->program.ToString();
  }
  if (stage == "all" || stage == "final") {
    std::cout << "% --- final program ---\n" << compiled.program.ToString();
  }
  if (explain) {
    // The stored join plan: per rule, the evaluation order, each literal's
    // index columns, and the driver literal the parallel fixpoint
    // partitions by.
    std::cout << "% --- join plan (" << compiled.plans.reordered_rules()
              << " of " << compiled.plans.rules.size()
              << " rules reordered) ---\n"
              << plan::Explain(compiled.program, compiled.plans);
  }

  if ((incremental || serve) && facts_path.empty() && db_path.empty()) {
    std::cerr << "error: --" << (incremental ? "incremental" : "serve")
              << " requires --facts or --db\n";
    return 2;
  }
  if (incremental && serve) {
    std::cerr << "error: --incremental and --serve are exclusive\n";
    return 2;
  }
  if (!facts_path.empty() || !db_path.empty()) {
    api::EngineOptions engine_options;
    // Serving runs the request queue on the engine's pool.
    engine_options.num_threads = (serve && threads == 0) ? 2 : threads;
    engine_options.num_shards = shards;
    // --db opens a disk-backed engine, recovering any previous session's
    // checkpoint + WAL; otherwise the engine is in-memory.
    std::unique_ptr<api::Engine> engine_owner;
    if (!db_path.empty()) {
      auto opened = api::Engine::Open(db_path, engine_options);
      if (!opened.ok()) return Fail(opened.status());
      engine_owner = std::move(opened).value();
      auto ps = engine_owner->persistence_stats();
      std::cout << "% db: " << db_path << " @ epoch "
                << ps.storage.last_committed_epoch << " ("
                << ps.facts_replayed << " WAL facts replayed, "
                << ps.views_restored << " views restored, "
                << ps.plans_restored << " plans warm, "
                << ps.plans_dropped << " plans dropped)\n";
    } else {
      engine_owner = std::make_unique<api::Engine>(engine_options);
    }
    api::Engine& engine = *engine_owner;
    if (!facts_path.empty()) {
      auto facts_text = ReadFile(facts_path);
      if (!facts_text.ok()) return Fail(facts_text.status());
      Status load = engine.LoadFacts(*facts_text);
      if (!load.ok()) return Fail(load);
    }
    if (incremental || serve) {
      return RunRepl(&engine, *program, *program->query(), strategy, serve);
    }
    api::QueryStats stats;
    auto answers = engine.Execute(compiled, &stats);
    if (!answers.ok()) return Fail(answers.status());
    std::cout << "% --- answers (" << answers->rows.size() << " rows, "
              << stats.eval.total_facts << " facts derived"
              << ShardRowsSuffix(stats.eval.shard_facts) << ") ---\n"
              << answers->ToString(engine.db().store());
    if (explain) {
      // The evaluation just fed the statistics catalog: re-print the plan
      // with the measured cardinality next to each literal's estimate.
      std::cout << "% --- join plan, estimated vs observed (replans "
                << stats.eval.replans << ", plans_recosted "
                << engine.stats().plans_recosted << ") ---\n"
                << plan::Explain(compiled.program, compiled.plans,
                                 &engine.stats_catalog());
    }
  }
  return 0;
}
