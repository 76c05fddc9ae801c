// Incremental-maintenance bench: the cost of keeping a materialized view
// correct under EDB updates versus re-running the fixpoint, across update
// batch sizes, emitting JSON to stdout so the perf trajectory can be tracked
// across PRs.
//
// The workload is left-linear TC with the bound query t(1, Y) — the
// canonical serving scenario: one expensive materialization, then a stream
// of single-edge updates. Two regimes are measured, because a deletion's
// cost depends on how much of the view it can invalidate:
//
//   * chain_plus_random: insertions of fresh random edges and their
//     deletions. Inserting is delta-sized; deleting a random edge in a
//     well-connected digraph used to be the regression — a reachability
//     cone (textbook DRed) spans almost the whole reachable set. The
//     edge-guided support cascade walks only facts that actually lost a
//     derivation and keeps facts with surviving alternate derivations, so
//     this row is a win too; the per-op counters (cone_input / cone_pruned /
//     over_deleted / rederived) show why.
//   * chain: deletion and re-insertion of edges near the chain's tail. The
//     affected cone is the short suffix, so maintenance is delta-sized —
//     the case incremental maintenance exists for.
//
// Every batch restores the initial EDB, and the maintained answers are
// verified against a from-scratch evaluation; a mismatch exits nonzero.
// `speedup_vs_reeval` is the regime's full re-evaluation time over
// per-update maintenance time.
//
//   usage: bench_incremental [--nodes N] [--edges M] [--reps R]
//                            [--batches 1,8,64] [--shards S] [--threads T]
//                            [--edge-budget E]
//
// --edge-budget caps the derivation-edge store (0 disables it entirely,
// forcing the fallback that re-derives the affected SCC on every delete) —
// the knob for comparing the two deletion paths on identical workloads. The
// fallback costs one SCC evaluation per delete, on the same engine the
// re-evaluation runs, so its delete rows sit near 1x. Views maintain inline,
// so --threads changes no view work; --shards lays out the EDB the view
// probes. Measured at --nodes 250 (Release, 4-vCPU shared host, three runs):
// without --threads/--shards, delete_random 1.4-1.9x and delete_tail
// 1.6-2.1x; with --threads 2 --shards 2, delete_random 0.7-1.0x and
// delete_tail 1.3-2.0x.
//
//   $ ./bench_incremental --nodes 250 | python3 -m json.tool

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "eval/seminaive.h"
#include "inc/incremental.h"
#include "workload/graph_gen.h"

namespace {

using namespace factlog;

constexpr char kLeftTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(1, Y).";

double MillisSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::milli>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

void MakeWorkload(int64_t nodes, int64_t edges, eval::Database* db) {
  workload::MakeChain(nodes, "e", db);
  workload::MakeRandomGraph(nodes, edges, /*seed=*/42, "e", db);
}

std::vector<size_t> ParseCountList(const char* arg) {
  std::vector<size_t> out;
  std::string s(arg);
  size_t pos = 0;
  while (pos < s.size()) {
    size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    std::string item = s.substr(pos, comma - pos);
    char* end = nullptr;
    unsigned long v = std::strtoul(item.c_str(), &end, 10);
    if (end == item.c_str() || *end != '\0' || v == 0 || v > 65536) return {};
    out.push_back(static_cast<size_t>(v));
    pos = comma + 1;
  }
  return out;
}

ast::Atom Edge(int64_t a, int64_t b) {
  return ast::Atom("e", {ast::Term::Int(a), ast::Term::Int(b)});
}

}  // namespace

int main(int argc, char** argv) {
  int64_t nodes = 250;
  int64_t edges = 500;
  int reps = 3;
  size_t shards = 1;
  size_t threads = 0;
  uint64_t edge_budget = uint64_t{1} << 22;
  std::vector<size_t> batches = {1, 8, 64};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--edges") == 0 && i + 1 < argc) {
      edges = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--edge-budget") == 0 && i + 1 < argc) {
      edge_budget = static_cast<uint64_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--batches") == 0 && i + 1 < argc) {
      batches = ParseCountList(argv[++i]);
      if (batches.empty()) {
        std::fprintf(stderr, "invalid --batches list: %s\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_incremental [--nodes N] [--edges M] "
                   "[--reps R] [--batches 1,8,64] [--shards S] "
                   "[--threads T] [--edge-budget E]\n");
      return 2;
    }
  }

  auto parsed = ast::ParseProgram(kLeftTc);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"incremental\",\n");
  std::printf("  \"schema_version\": 2,\n");
  std::printf("  \"program\": \"left_linear_tc\",\n");
  std::printf("  \"nodes\": %lld,\n", static_cast<long long>(nodes));
  std::printf("  \"edges\": %lld,\n", static_cast<long long>(edges));
  std::printf("  \"shards\": %zu,\n", shards);
  std::printf("  \"threads\": %zu,\n", threads);
  std::printf("  \"edge_budget\": %llu,\n",
              static_cast<unsigned long long>(edge_budget));
  std::printf("  \"reps\": %d,\n", reps);
  std::printf("  \"runs\": [");

  bool ok = true;
  bool first = true;
  std::minstd_rand rng(20260731);

  struct Scenario {
    const char* name;
    bool random_extras;
  };
  const Scenario scenarios[] = {{"chain_plus_random", true}, {"chain", false}};
  for (const Scenario& scenario : scenarios) {
    api::EngineOptions options;
    options.num_shards = shards;
    options.num_threads = threads;
    options.inc_max_derivation_edges = edge_budget;
    api::Engine engine(options);
    if (scenario.random_extras) {
      MakeWorkload(nodes, edges, &engine.db());
    } else {
      workload::MakeChain(nodes, "e", &engine.db());
    }
    auto plan = engine.Compile(*parsed, *parsed->query());
    if (!plan.ok()) {
      std::fprintf(stderr, "compile: %s\n", plan.status().ToString().c_str());
      return 1;
    }

    // Baseline: the fixpoint a non-incremental engine re-runs per update.
    double full_ms = 0;
    uint64_t tc_facts = 0;
    for (int r = 0; r < reps; ++r) {
      auto start = std::chrono::steady_clock::now();
      eval::EvalStats stats;
      auto answers = eval::EvaluateQuery((*plan)->program, (*plan)->query,
                                         &engine.db(), {}, &stats);
      double ms = MillisSince(start);
      if (!answers.ok()) {
        std::fprintf(stderr, "baseline: %s\n",
                     answers.status().ToString().c_str());
        return 1;
      }
      tc_facts = stats.total_facts;
      full_ms = (r == 0) ? ms : std::min(full_ms, ms);
    }
    auto handle = engine.Materialize(*parsed, *parsed->query());
    if (!handle.ok()) {
      std::fprintf(stderr, "materialize: %s\n",
                   handle.status().ToString().c_str());
      return 1;
    }
    auto baseline_answers = engine.Query(*parsed, *parsed->query());
    if (!baseline_answers.ok()) return 1;
    const size_t initial_answers = baseline_answers->rows.size();

    // Fresh random edges (absent from the graph) for the insert/delete
    // cycle; tail chain edges for the localized delete/re-insert cycle.
    auto fresh_edge = [&]() {
      while (true) {
        int64_t a = 1 + static_cast<int64_t>(rng() % nodes);
        int64_t b = 1 + static_cast<int64_t>(rng() % nodes);
        ast::Atom fact = Edge(a, b);
        auto row = engine.db().InternRow(fact);
        const eval::Relation* rel = engine.db().Find("e");
        if (row.ok() && rel != nullptr && !rel->Contains(row->data())) {
          return fact;
        }
      }
    };

    for (size_t batch : batches) {
      std::vector<ast::Atom> facts;
      facts.reserve(batch);
      const char* op_add;
      const char* op_remove;
      bool remove_first;
      if (scenario.random_extras) {
        op_add = "insert_random";
        op_remove = "delete_random";
        remove_first = false;
        for (size_t i = 0; i < batch; ++i) facts.push_back(fresh_edge());
      } else {
        op_add = "insert_tail";
        op_remove = "delete_tail";
        remove_first = true;
        for (size_t i = 0; i < batch && static_cast<int64_t>(i) < nodes - 1;
             ++i) {
          int64_t k = nodes - 1 - static_cast<int64_t>(i);
          facts.push_back(Edge(k, k + 1));
        }
      }

      struct Timed {
        const char* op;
        double total_ms;
        inc::ViewUpdateStats delta;  // counters accumulated over the batch
      };
      std::vector<Timed> timings;
      auto view_stats = [&]() -> inc::ViewStats {
        auto stats = engine.ViewStatsFor(*handle);
        return stats.ok() ? *stats : inc::ViewStats{};
      };
      auto run_adds = [&]() -> bool {
        const inc::ViewUpdateStats before = view_stats();
        auto start = std::chrono::steady_clock::now();
        for (const ast::Atom& f : facts) {
          Status st = engine.AddFact(f);
          if (!st.ok()) {
            std::fprintf(stderr, "AddFact: %s\n", st.ToString().c_str());
            return false;
          }
        }
        double ms = MillisSince(start);
        timings.push_back({op_add, ms, view_stats().Since(before)});
        return true;
      };
      auto run_removes = [&]() -> bool {
        const inc::ViewUpdateStats before = view_stats();
        auto start = std::chrono::steady_clock::now();
        for (const ast::Atom& f : facts) {
          Status st = engine.RemoveFact(f);
          if (!st.ok()) {
            std::fprintf(stderr, "RemoveFact: %s\n", st.ToString().c_str());
            return false;
          }
        }
        double ms = MillisSince(start);
        timings.push_back({op_remove, ms, view_stats().Since(before)});
        return true;
      };
      if (remove_first) {
        if (!run_removes() || !run_adds()) return 1;
      } else {
        if (!run_adds() || !run_removes()) return 1;
      }

      // Back at the initial EDB: the maintained answers must equal scratch.
      auto from_view = engine.Query(*parsed, *parsed->query());
      auto scratch = eval::EvaluateQuery((*plan)->program, (*plan)->query,
                                         &engine.db());
      bool matches = from_view.ok() && scratch.ok() &&
                     from_view->rows == scratch->rows &&
                     from_view->rows.size() == initial_answers;
      if (!matches) ok = false;

      for (const Timed& t : timings) {
        size_t updates = facts.size();
        double per_update = t.total_ms / static_cast<double>(updates);
        std::printf("%s\n    {\"workload\": \"%s\", \"tc_facts\": %llu, "
                    "\"full_reeval_ms\": %.3f, \"batch\": %zu, "
                    "\"op\": \"%s\", \"total_ms\": %.3f, "
                    "\"per_update_ms\": %.4f, \"speedup_vs_reeval\": %.1f, "
                    "\"cone_input\": %llu, \"cone_pruned\": %llu, "
                    "\"over_deleted\": %llu, \"rederived\": %llu, "
                    "\"edges_added\": %llu, \"edges_removed\": %llu, "
                    "\"matches\": %s}",
                    first ? "" : ",", scenario.name,
                    static_cast<unsigned long long>(tc_facts), full_ms, batch,
                    t.op, t.total_ms, per_update,
                    per_update > 0 ? full_ms / per_update : 0.0,
                    static_cast<unsigned long long>(t.delta.cone_input),
                    static_cast<unsigned long long>(t.delta.cone_pruned),
                    static_cast<unsigned long long>(t.delta.overdeleted),
                    static_cast<unsigned long long>(t.delta.rederived),
                    static_cast<unsigned long long>(t.delta.edges_added),
                    static_cast<unsigned long long>(t.delta.edges_removed),
                    matches ? "true" : "false");
        first = false;
      }
    }
  }
  std::printf("\n  ]\n}\n");

  if (!ok) {
    std::fprintf(stderr,
                 "FAIL: maintained view diverged from from-scratch "
                 "evaluation\n");
    return 1;
  }
  return 0;
}
