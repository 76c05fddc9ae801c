// Serving bench: open-loop latency and throughput of the async serving
// subsystem under mixed read/write load, emitting JSON to stdout so the perf
// trajectory can be tracked across PRs.
//
// The scenario is the canonical serving one: a transitive-closure view over
// a random digraph is materialized and served — reads are frozen-view
// snapshot hits, writes stream single-edge inserts/deletes through the
// single-writer maintenance path, each installing a new MVCC epoch. Load is
// OPEN-LOOP: requests arrive on a fixed schedule regardless of completions
// (the honest way to measure a queue — closed-loop hides queueing delay by
// self-throttling), and a request's latency runs from its scheduled arrival
// to its completion callback, so dispatch and queue delay count.
//
// A calibration phase first measures closed-loop service times for reads and
// writes; the offered rate is then set to ~60% of the mix's capacity, in the
// stable region where percentiles are meaningful. Rejections (backpressure)
// are reported, not retried.
//
//   usage: bench_serving [--nodes N] [--edges M] [--requests R]
//                        [--shards S] [--threads T] [--utilization U]
//
//   $ ./bench_serving --requests 4000 | python3 -m json.tool

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "workload/graph_gen.h"

namespace {

using namespace factlog;

constexpr char kLeftTc[] =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(1, Y).";

using Clock = std::chrono::steady_clock;

double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration_cast<std::chrono::duration<double, std::micro>>(
             b - a)
      .count();
}

ast::Atom Edge(int64_t a, int64_t b) {
  return ast::Atom("e", {ast::Term::Int(a), ast::Term::Int(b)});
}

// Completion times recorded from pool workers / the writer thread.
struct LatencyRecorder {
  std::mutex mu;
  std::vector<double> us;
  void Add(double v) {
    std::lock_guard<std::mutex> lock(mu);
    us.push_back(v);
  }
};

double Percentile(std::vector<double> sorted, double p) {
  if (sorted.empty()) return 0.0;
  size_t idx = static_cast<size_t>(p / 100.0 * static_cast<double>(sorted.size()));
  if (idx >= sorted.size()) idx = sorted.size() - 1;
  return sorted[idx];
}

}  // namespace

int main(int argc, char** argv) {
  int64_t nodes = 120;
  int64_t edges = 240;
  size_t requests = 2000;
  size_t shards = 2;
  size_t threads = 1;
  double utilization = 0.6;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--nodes") == 0 && i + 1 < argc) {
      nodes = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--edges") == 0 && i + 1 < argc) {
      edges = std::atoll(argv[++i]);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = static_cast<size_t>(std::atoll(argv[++i]));
    } else if (std::strcmp(argv[i], "--utilization") == 0 && i + 1 < argc) {
      utilization = std::atof(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_serving [--nodes N] [--edges M] "
                   "[--requests R] [--shards S] [--threads T] "
                   "[--utilization U]\n");
      return 2;
    }
  }
  if (threads == 0) threads = 1;  // serving needs a pool

  auto parsed = ast::ParseProgram(kLeftTc);
  if (!parsed.ok()) {
    std::fprintf(stderr, "parse: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const ast::Atom query = *parsed->query();

  api::EngineOptions options;
  options.num_shards = shards;
  options.num_threads = threads;
  api::Engine engine(options);
  workload::MakeChain(nodes, "e", &engine.db());
  workload::MakeRandomGraph(nodes, edges, /*seed=*/42, "e", &engine.db());
  if (auto h = engine.Materialize(*parsed, query); !h.ok()) {
    std::fprintf(stderr, "materialize: %s\n", h.status().ToString().c_str());
    return 1;
  }
  serve::ServeOptions serve_options;
  if (Status st = engine.StartServing(serve_options); !st.ok()) {
    std::fprintf(stderr, "serve: %s\n", st.ToString().c_str());
    return 1;
  }
  uint64_t session = engine.OpenSession();

  std::minstd_rand rng(20260807);
  // Fresh-edge writes: insert a random absent edge, delete it again a few
  // writes later (FIFO), so the EDB stays near its initial size and deletes
  // exercise recursive deletion on recently-added edges.
  std::deque<ast::Atom> inserted;
  auto next_write = [&](bool* insert) -> ast::Atom {
    if (inserted.size() >= 8) {
      *insert = false;
      ast::Atom victim = inserted.front();
      inserted.pop_front();
      return victim;
    }
    *insert = true;
    int64_t a = 1 + static_cast<int64_t>(rng() % nodes);
    int64_t b = 1 + static_cast<int64_t>(rng() % nodes);
    ast::Atom fact = Edge(a, b);
    inserted.push_back(fact);
    return fact;
  };

  // ---- Calibration: closed-loop service times ------------------------------
  const size_t kCalReads = 200, kCalWrites = 60;
  auto cal_start = Clock::now();
  for (size_t i = 0; i < kCalReads; ++i) {
    auto resp = engine.SubmitQuery(session, *parsed, query).get();
    if (!resp.status.ok()) {
      std::fprintf(stderr, "calibration read: %s\n",
                   resp.status.ToString().c_str());
      return 1;
    }
  }
  double read_service_us = MicrosBetween(cal_start, Clock::now()) / kCalReads;
  cal_start = Clock::now();
  for (size_t i = 0; i < kCalWrites; ++i) {
    bool insert = false;
    ast::Atom fact = next_write(&insert);
    auto resp = engine.SubmitUpdate(session, insert, fact).get();
    if (!resp.status.ok()) {
      std::fprintf(stderr, "calibration write: %s\n",
                   resp.status.ToString().c_str());
      return 1;
    }
  }
  double write_service_us = MicrosBetween(cal_start, Clock::now()) / kCalWrites;

  std::printf("{\n");
  std::printf("  \"bench\": \"serving\",\n");
  std::printf("  \"schema_version\": 1,\n");
  std::printf("  \"program\": \"left_linear_tc_view\",\n");
  std::printf("  \"nodes\": %lld,\n", static_cast<long long>(nodes));
  std::printf("  \"edges\": %lld,\n", static_cast<long long>(edges));
  std::printf("  \"shards\": %zu,\n", shards);
  std::printf("  \"threads\": %zu,\n", threads);
  std::printf("  \"requests_per_run\": %zu,\n", requests);
  std::printf("  \"utilization\": %.2f,\n", utilization);
  std::printf("  \"closed_loop_read_service_us\": %.1f,\n", read_service_us);
  std::printf("  \"closed_loop_write_service_us\": %.1f,\n", write_service_us);
  std::printf("  \"runs\": [");

  const int kReadPcts[] = {99, 90, 50};
  bool first = true;
  for (int read_pct : kReadPcts) {
    double read_frac = read_pct / 100.0;
    double mean_service_us =
        read_frac * read_service_us + (1.0 - read_frac) * write_service_us;
    double offered_qps = utilization * 1e6 / mean_service_us;
    auto interarrival = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double, std::micro>(1e6 / offered_qps));

    LatencyRecorder read_lat, write_lat;
    std::atomic<size_t> accepted{0}, completed{0}, rejected{0}, errors{0};
    std::atomic<int64_t> last_done_ns{0};
    std::bernoulli_distribution is_read(read_frac);

    auto t0 = Clock::now();
    auto note_done = [&] {
      last_done_ns.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                               t0)
              .count(),
          std::memory_order_relaxed);
      completed.fetch_add(1, std::memory_order_release);
    };
    for (size_t i = 0; i < requests; ++i) {
      auto scheduled = t0 + interarrival * static_cast<int64_t>(i);
      std::this_thread::sleep_until(scheduled);
      if (is_read(rng)) {
        Status st = engine.SubmitQuery(
            session, *parsed, query, core::Strategy::kAuto,
            [&, scheduled](serve::QueryResponse resp) {
              if (resp.status.ok()) {
                read_lat.Add(MicrosBetween(scheduled, Clock::now()));
              } else {
                errors.fetch_add(1);
              }
              note_done();
            });
        if (st.ok()) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      } else {
        bool insert = false;
        ast::Atom fact = next_write(&insert);
        Status st = engine.SubmitUpdate(
            session, insert, fact, [&, scheduled](serve::UpdateResponse resp) {
              if (resp.status.ok()) {
                write_lat.Add(MicrosBetween(scheduled, Clock::now()));
              } else {
                errors.fetch_add(1);
              }
              note_done();
            });
        if (st.ok()) {
          accepted.fetch_add(1);
        } else {
          rejected.fetch_add(1);
        }
      }
    }
    while (completed.load(std::memory_order_acquire) < accepted.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    double wall_s = last_done_ns.load() / 1e9;
    double achieved_qps =
        wall_s > 0 ? static_cast<double>(completed.load()) / wall_s : 0;

    std::sort(read_lat.us.begin(), read_lat.us.end());
    std::sort(write_lat.us.begin(), write_lat.us.end());
    std::printf(
        "%s\n    {\"read_pct\": %d, \"offered_qps\": %.0f, "
        "\"achieved_qps\": %.0f, \"completed\": %zu, \"rejected\": %zu, "
        "\"errors\": %zu, "
        "\"read_p50_us\": %.1f, \"read_p95_us\": %.1f, \"read_p99_us\": "
        "%.1f, "
        "\"write_p50_us\": %.1f, \"write_p95_us\": %.1f, \"write_p99_us\": "
        "%.1f}",
        first ? "" : ",", read_pct, offered_qps, achieved_qps,
        completed.load(), rejected.load(), errors.load(),
        Percentile(read_lat.us, 50), Percentile(read_lat.us, 95),
        Percentile(read_lat.us, 99), Percentile(write_lat.us, 50),
        Percentile(write_lat.us, 95), Percentile(write_lat.us, 99));
    first = false;
  }
  serve::ServerStats stats = engine.serving_stats();
  std::printf("\n  ],\n");
  std::printf("  \"epochs_installed\": %llu,\n",
              static_cast<unsigned long long>(stats.epochs_installed));
  std::printf("  \"final_epoch\": %llu\n",
              static_cast<unsigned long long>(engine.serving_epoch()));
  std::printf("}\n");

  engine.CloseSession(session);
  engine.StopServing();
  return 0;
}
