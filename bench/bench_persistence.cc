// Persistence bench: what the disk-backed engine buys and what it costs,
// emitting JSON to stdout so the perf trajectory can be tracked across PRs.
//
// Two experiments:
//
//  1. Cold start. A transitive-closure view over a chain is materialized and
//     checkpointed; the engine is then torn down and reopened. Cold start =
//     Engine::Open (page-chain adoption + view restore from meta) plus the
//     first query, which answers from the restored view — against full
//     re-evaluation: an in-memory engine loading the same facts and running
//     the fixpoint from scratch. The speedup is the claim persistence makes:
//     restart without re-deriving the IDB. The reopened view's derivation
//     edge store is built on its first update or `why`, not at open:
//     `edge_store_edges_after_open` is 0.
//
//  2. Buffer-pool sweep. An EDB ~4x larger than the frame budget (budget =
//     25% of its page count) is scanned repeatedly through full queries, so
//     the clock hand is always evicting. Reports the pool hit rate and the
//     scan throughput under eviction — the "dataset larger than RAM still
//     evaluates" cost curve.
//
//   usage: bench_persistence [--nodes N] [--facts F] [--iters K]
//
//   $ ./bench_persistence | python3 -m json.tool

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>

#include "api/engine.h"
#include "storage/page.h"

namespace {

using namespace factlog;

using Clock = std::chrono::steady_clock;

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double>>(b - a)
      .count();
}

constexpr char kLeftTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).";
constexpr char kScan[] = "s(X, Y) :- r(X, Y). ?- s(X, Y).";

std::string ChainFacts(int64_t nodes) {
  std::string out;
  for (int64_t i = 1; i < nodes; ++i) {
    out += "e(" + std::to_string(i) + ", " + std::to_string(i + 1) + ").\n";
  }
  return out;
}

std::string WideFacts(int64_t facts) {
  std::string out;
  for (int64_t i = 0; i < facts; ++i) {
    out += "r(" + std::to_string(i) + ", " + std::to_string(i * 2 + 1) +
           ").\n";
  }
  return out;
}

struct TempDb {
  explicit TempDb(const char* tag) {
    path = (std::filesystem::temp_directory_path() /
            (std::string("factlog_bench_") + tag))
               .string();
    std::filesystem::remove_all(path);
    std::filesystem::create_directories(path);
  }
  ~TempDb() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string path;
};

int Die(const char* what, const Status& st) {
  std::fprintf(stderr, "%s: %s\n", what, st.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t nodes = 500;
  int64_t facts = 150000;
  int iters = 5;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--facts") == 0 && i + 1 < argc) {
      facts = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--iters") == 0 && i + 1 < argc) {
      iters = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_persistence [--nodes N] [--facts F] "
                   "[--iters K]\n");
      return 2;
    }
  }

  // ---- Experiment 1: cold start vs full re-evaluation -----------------------
  TempDb cold_db("cold");
  const std::string chain = ChainFacts(nodes);
  double save_s = 0, open_s = 0, cold_query_s = 0, reeval_s = 0;
  size_t answers_cold = 0, answers_reeval = 0;
  uint64_t views_restored = 0;
  uint64_t edges_after_open = 0;
  std::string view_key;
  {
    auto t0 = Clock::now();
    auto engine = api::Engine::Open(cold_db.path);
    if (!engine.ok()) return Die("open", engine.status());
    if (Status st = (*engine)->LoadFacts(chain); !st.ok()) {
      return Die("load", st);
    }
    auto h = (*engine)->Materialize(kLeftTc);
    if (!h.ok()) return Die("materialize", h.status());
    view_key = h->key;
    if (Status st = (*engine)->Checkpoint(); !st.ok()) {
      return Die("checkpoint", st);
    }
    save_s = SecondsBetween(t0, Clock::now());
  }
  {
    auto t0 = Clock::now();
    auto engine = api::Engine::Open(cold_db.path);
    if (!engine.ok()) return Die("reopen", engine.status());
    open_s = SecondsBetween(t0, Clock::now());
    views_restored = (*engine)->persistence_stats().views_restored;
    auto vs = (*engine)->ViewStatsFor(api::ViewHandle{view_key});
    if (!vs.ok()) return Die("view stats", vs.status());
    edges_after_open = vs->edge_store_edges;
    auto t1 = Clock::now();
    auto a = (*engine)->Query(kLeftTc);
    if (!a.ok()) return Die("cold query", a.status());
    cold_query_s = SecondsBetween(t1, Clock::now());
    answers_cold = a->rows.size();
  }
  {
    auto t0 = Clock::now();
    api::Engine engine;
    if (Status st = engine.LoadFacts(chain); !st.ok()) return Die("load", st);
    auto a = engine.Query(kLeftTc);
    if (!a.ok()) return Die("reeval query", a.status());
    reeval_s = SecondsBetween(t0, Clock::now());
    answers_reeval = a->rows.size();
  }
  const double cold_total_s = open_s + cold_query_s;

  // ---- Experiment 2: scans under eviction at a 25% frame budget -------------
  TempDb sweep_db("sweep");
  const int64_t rows_per_page =
      static_cast<int64_t>((storage::kPageSize - storage::kPageHeaderSize) /
                           (2 * sizeof(eval::ValueId) + 2));
  const int64_t data_pages = (facts + rows_per_page - 1) / rows_per_page;
  api::EngineOptions sweep_opts;
  sweep_opts.storage_frame_budget =
      static_cast<size_t>(data_pages / 4 > 0 ? data_pages / 4 : 1);
  double sweep_load_s = 0, sweep_scan_s = 0;
  uint64_t sweep_hits = 0, sweep_misses = 0, sweep_evictions = 0;
  uint64_t sweep_pages = 0;
  size_t scan_rows = 0;
  {
    auto engine = api::Engine::Open(sweep_db.path, sweep_opts);
    if (!engine.ok()) return Die("sweep open", engine.status());
    auto t0 = Clock::now();
    if (Status st = (*engine)->LoadFacts(WideFacts(facts)); !st.ok()) {
      return Die("sweep load", st);
    }
    if (Status st = (*engine)->Checkpoint(); !st.ok()) {
      return Die("sweep checkpoint", st);
    }
    sweep_load_s = SecondsBetween(t0, Clock::now());
    const auto before = (*engine)->persistence_stats().storage.pool;
    t0 = Clock::now();
    for (int k = 0; k < iters; ++k) {
      auto a = (*engine)->Query(kScan);
      if (!a.ok()) return Die("sweep scan", a.status());
      scan_rows = a->rows.size();
    }
    sweep_scan_s = SecondsBetween(t0, Clock::now());
    const auto after = (*engine)->persistence_stats().storage.pool;
    sweep_hits = after.hits - before.hits;
    sweep_misses = after.misses - before.misses;
    sweep_evictions = after.evictions - before.evictions;
    sweep_pages = (*engine)->persistence_stats().storage.num_pages;
  }
  const double sweep_hit_rate =
      sweep_hits + sweep_misses > 0
          ? static_cast<double>(sweep_hits) /
                static_cast<double>(sweep_hits + sweep_misses)
          : 0.0;
  const double scan_rows_per_s =
      sweep_scan_s > 0 ? static_cast<double>(facts) * iters / sweep_scan_s
                       : 0.0;

  std::printf("{\n");
  std::printf("  \"bench\": \"persistence\",\n");
  std::printf("  \"schema_version\": 1,\n");
  std::printf("  \"cold_start\": {\n");
  std::printf("    \"program\": \"left_linear_tc_view\",\n");
  std::printf("    \"chain_nodes\": %lld,\n", static_cast<long long>(nodes));
  std::printf("    \"answers\": %zu,\n", answers_cold);
  std::printf("    \"answers_match_reeval\": %s,\n",
              answers_cold == answers_reeval ? "true" : "false");
  std::printf("    \"views_restored\": %llu,\n",
              static_cast<unsigned long long>(views_restored));
  std::printf("    \"edge_store_edges_after_open\": %llu,\n",
              static_cast<unsigned long long>(edges_after_open));
  std::printf("    \"save_s\": %.4f,\n", save_s);
  std::printf("    \"open_s\": %.4f,\n", open_s);
  std::printf("    \"first_query_s\": %.4f,\n", cold_query_s);
  std::printf("    \"cold_total_s\": %.4f,\n", cold_total_s);
  std::printf("    \"reeval_total_s\": %.4f,\n", reeval_s);
  std::printf("    \"speedup_vs_reeval\": %.2f\n",
              cold_total_s > 0 ? reeval_s / cold_total_s : 0.0);
  std::printf("  },\n");
  std::printf("  \"buffer_pool_sweep\": {\n");
  std::printf("    \"facts\": %lld,\n", static_cast<long long>(facts));
  std::printf("    \"data_pages\": %lld,\n",
              static_cast<long long>(data_pages));
  std::printf("    \"total_pages\": %llu,\n",
              static_cast<unsigned long long>(sweep_pages));
  std::printf("    \"frame_budget\": %zu,\n", sweep_opts.storage_frame_budget);
  std::printf("    \"scan_iters\": %d,\n", iters);
  std::printf("    \"scan_answers\": %zu,\n", scan_rows);
  std::printf("    \"load_and_checkpoint_s\": %.4f,\n", sweep_load_s);
  std::printf("    \"scan_s\": %.4f,\n", sweep_scan_s);
  std::printf("    \"scan_rows_per_s\": %.0f,\n", scan_rows_per_s);
  std::printf("    \"pool_hits\": %llu,\n",
              static_cast<unsigned long long>(sweep_hits));
  std::printf("    \"pool_misses\": %llu,\n",
              static_cast<unsigned long long>(sweep_misses));
  std::printf("    \"pool_evictions\": %llu,\n",
              static_cast<unsigned long long>(sweep_evictions));
  std::printf("    \"pool_hit_rate\": %.3f\n", sweep_hit_rate);
  std::printf("  }\n");
  std::printf("}\n");
  return 0;
}
