// Parallel-scaling bench: the semi-naive fixpoint with no pool
// (`sequential_ms`, eval::Evaluate) vs the same engine on pools on
// transitive-closure workloads, emitting per-(threads, shards) timings as
// JSON to stdout so the perf trajectory can be tracked across PRs. The JSON
// carries a schema_version (currently 3: per-rule instantiation counts and
// the planned-vs-left-to-right right-linear comparison added; 2 was the
// shard sweep) so records stay comparable as the bench evolves.
//
// Two workloads over the same chain-plus-random digraph, evaluated unbound:
//
//   * left-linear TC (the `runs` array) — the recursive occurrence leads its
//     rule, each iteration's delta shards drive the outer loop in place, and
//     the join is embarrassingly data-parallel;
//   * right-linear TC (the `right_linear` object) — the recursive occurrence
//     trails the source body, the workload the compile-time join plan
//     rewrites: plan order puts the delta occurrence first, so delta-shard
//     partitioning replaces the left-to-right baseline's per-shard re-scan
//     of the e-prefix. Both join orders run at every (threads, shards)
//     combination; rows_matched + instantiations is the total join work the
//     plan saves.
//
// Every run records head instantiations (per rule too), rows matched, and
// fact counts, all verified against the flat no-pool run; a mismatch
// exits nonzero.
//
//   usage: bench_parallel_scaling [--nodes N] [--edges M] [--reps R]
//                                 [--threads 1,2,4,8] [--shards 1,2,8]
//
//   $ ./bench_parallel_scaling --nodes 200 | python3 -m json.tool

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "ast/parser.h"
#include "eval/seminaive.h"
#include "exec/parallel_seminaive.h"
#include "exec/thread_pool.h"
#include "workload/graph_gen.h"

namespace {

using namespace factlog;

constexpr char kLeftTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y).";
constexpr char kRightTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- e(X, W), t(W, Y).";

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
    if (end == item.c_str() || *end != '\0' || v > 1024) return {};
    out.push_back(static_cast<size_t>(v));
    pos = comma + 1;
  }
  return out;
}

void PrintRuleCounts(const std::vector<uint64_t>& counts) {
  std::printf("[");
  for (size_t i = 0; i < counts.size(); ++i) {
    std::printf("%s%llu", i == 0 ? "" : ", ",
                static_cast<unsigned long long>(counts[i]));
  }
  std::printf("]");
}

// One measured configuration: best-of-reps wall time plus the (rep-invariant)
// join counters of the last rep.
struct RunStats {
  double ms = 0;
  uint64_t facts = 0;
  uint64_t instantiations = 0;
  uint64_t rows_matched = 0;
  std::vector<uint64_t> rule_instantiations;
  bool ok = false;
};

RunStats RunParallel(const ast::Program& program, int64_t nodes,
                     int64_t edges, int reps, exec::ThreadPool* pool,
                     size_t shards, eval::JoinOrder order) {
  RunStats out;
  for (int r = 0; r < reps; ++r) {
    eval::Database db(eval::StorageOptions{shards, {}});
    if (edges > 0) {
      MakeWorkload(nodes, edges, &db);
    } else {
      workload::MakeChain(nodes, "e", &db);
    }
    exec::ParallelEvalOptions popts;
    popts.num_shards = shards;
    popts.eval.join_order = order;
    auto start = std::chrono::steady_clock::now();
    auto result = exec::EvaluateParallel(program, &db, pool, popts);
    double ms = MillisSince(start);
    if (!result.ok()) {
      std::fprintf(stderr, "parallel: %s\n",
                   result.status().ToString().c_str());
      return out;
    }
    out.facts = result->stats().total_facts;
    out.instantiations = result->stats().instantiations;
    out.rows_matched = result->stats().rows_matched;
    out.rule_instantiations = result->stats().rule_instantiations;
    out.ms = (r == 0) ? ms : std::min(out.ms, ms);
  }
  out.ok = true;
  return out;
}

void PrintRunTail(const RunStats& run, uint64_t expected_facts) {
  std::printf("\"facts\": %llu, \"matches\": %s, \"instantiations\": %llu, "
              "\"rows_matched\": %llu, \"rule_instantiations\": ",
              static_cast<unsigned long long>(run.facts),
              run.facts == expected_facts ? "true" : "false",
              static_cast<unsigned long long>(run.instantiations),
              static_cast<unsigned long long>(run.rows_matched));
  PrintRuleCounts(run.rule_instantiations);
  std::printf("}");
}

}  // namespace

int main(int argc, char** argv) {
  int64_t nodes = 250;
  int64_t edges = 500;
  int reps = 3;
  std::vector<size_t> thread_counts = {1, 2, 4, 8};
  std::vector<size_t> shard_counts = {1, 2, 8};
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--edges") == 0 && i + 1 < argc) {
      edges = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      thread_counts = ParseCountList(argv[++i]);
      if (thread_counts.empty()) {
        std::fprintf(stderr, "invalid --threads list: %s\n", argv[i]);
        return 2;
      }
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shard_counts = ParseCountList(argv[++i]);
      if (shard_counts.empty()) {
        std::fprintf(stderr, "invalid --shards list: %s\n", argv[i]);
        return 2;
      }
      for (size_t s : shard_counts) {
        if (s == 0) {
          std::fprintf(stderr, "--shards values must be >= 1\n");
          return 2;
        }
      }
    } else {
      std::fprintf(stderr,
                   "usage: bench_parallel_scaling [--nodes N] [--edges M] "
                   "[--reps R] [--threads 1,2,4,8] [--shards 1,2,8]\n");
      return 2;
    }
  }

  auto left = ast::ParseProgram(kLeftTc);
  auto right = ast::ParseProgram(kRightTc);
  if (!left.ok() || !right.ok()) {
    std::fprintf(stderr, "parse failed\n");
    return 1;
  }

  // No pool, flat storage (left-linear): best of `reps`.
  uint64_t expected_facts = 0;
  double seq_ms = 0;
  for (int r = 0; r < reps; ++r) {
    eval::Database db;
    MakeWorkload(nodes, edges, &db);
    auto start = std::chrono::steady_clock::now();
    auto result = eval::Evaluate(*left, &db);
    double ms = MillisSince(start);
    if (!result.ok()) {
      std::fprintf(stderr, "sequential: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    expected_facts = result->stats().total_facts;
    seq_ms = (r == 0) ? ms : std::min(seq_ms, ms);
  }

  std::printf("{\n");
  std::printf("  \"bench\": \"parallel_scaling\",\n");
  std::printf("  \"schema_version\": 3,\n");
  std::printf("  \"workload\": \"left_tc_chain_plus_random\",\n");
  std::printf("  \"nodes\": %lld,\n", static_cast<long long>(nodes));
  std::printf("  \"edges\": %lld,\n", static_cast<long long>(edges));
  std::printf("  \"tc_facts\": %llu,\n",
              static_cast<unsigned long long>(expected_facts));
  std::printf("  \"reps\": %d,\n", reps);
  std::printf("  \"sequential_ms\": %.3f,\n", seq_ms);
  std::printf("  \"runs\": [");

  bool mismatch = false;
  bool first_run = true;
  for (size_t threads : thread_counts) {
    exec::ThreadPool pool(threads);
    for (size_t shards : shard_counts) {
      RunStats run = RunParallel(*left, nodes, edges, reps, &pool, shards,
                                 eval::JoinOrder::kPlanned);
      if (!run.ok) return 1;
      if (run.facts != expected_facts) mismatch = true;
      std::printf("%s\n    {\"threads\": %zu, \"shards\": %zu, "
                  "\"ms\": %.3f, \"speedup\": %.3f, ",
                  first_run ? "" : ",", threads, shards, run.ms,
                  run.ms > 0 ? seq_ms / run.ms : 0.0);
      PrintRunTail(run, expected_facts);
      first_run = false;
    }
  }
  std::printf("\n  ],\n");

  // Right-linear TC: the join-plan workload, on the pure chain — long
  // derivation chains mean many fixpoint iterations, which is exactly where
  // right-linear rules pay the per-shard prefix re-enumeration the plan
  // removes (dense graphs converge in a handful of iterations and hide it).
  // Planned order drives the rule with the delta occurrence; the
  // left-to-right baseline re-enumerates the e-prefix once per delta shard.
  // Identical fact sets and instantiation counts, strictly less total join
  // work planned.
  uint64_t right_expected = 0;
  {
    eval::Database db;
    workload::MakeChain(nodes, "e", &db);
    auto result = eval::Evaluate(*right, &db);
    if (!result.ok()) {
      std::fprintf(stderr, "right-linear sequential: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    right_expected = result->stats().total_facts;
  }
  std::printf("  \"right_linear\": {\n");
  std::printf("    \"workload\": \"right_tc_chain\",\n");
  std::printf("    \"tc_facts\": %llu,\n",
              static_cast<unsigned long long>(right_expected));
  std::printf("    \"runs\": [");
  first_run = true;
  // The headline aggregate covers the sharded (shards > 1) runs — the
  // partitioning scenario: the baseline's per-shard prefix re-scan is the
  // work the plan removes. Flat runs are still emitted individually (there
  // the two orders trade a delta scan for an e scan and land close).
  uint64_t planned_work = 0, ltr_work = 0;
  for (size_t threads : thread_counts) {
    exec::ThreadPool pool(threads);
    for (size_t shards : shard_counts) {
      for (eval::JoinOrder order :
           {eval::JoinOrder::kPlanned, eval::JoinOrder::kLeftToRight}) {
        RunStats run = RunParallel(*right, nodes, /*edges=*/0, reps, &pool,
                                   shards, order);
        if (!run.ok) return 1;
        if (run.facts != right_expected) mismatch = true;
        uint64_t work = run.instantiations + run.rows_matched;
        if (shards > 1) {
          if (order == eval::JoinOrder::kPlanned) {
            planned_work += work;
          } else {
            ltr_work += work;
          }
        }
        std::printf("%s\n      {\"join_order\": \"%s\", \"threads\": %zu, "
                    "\"shards\": %zu, \"ms\": %.3f, ",
                    first_run ? "" : ",",
                    order == eval::JoinOrder::kPlanned ? "planned"
                                                       : "left_to_right",
                    threads, shards, run.ms);
        PrintRunTail(run, right_expected);
        first_run = false;
      }
    }
  }
  std::printf("\n    ],\n");
  std::printf("    \"planned_sharded_join_work\": %llu,\n",
              static_cast<unsigned long long>(planned_work));
  std::printf("    \"left_to_right_sharded_join_work\": %llu,\n",
              static_cast<unsigned long long>(ltr_work));
  std::printf("    \"sharded_work_ratio\": %.3f\n",
              ltr_work > 0 ? static_cast<double>(planned_work) /
                                 static_cast<double>(ltr_work)
                           : 0.0);
  std::printf("  }\n}\n");

  if (mismatch) {
    std::fprintf(stderr, "FAIL: fact count diverged from the no-pool run\n");
    return 1;
  }
  return 0;
}
