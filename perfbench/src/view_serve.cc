// view_serve: a durable engine with a materialized left-linear closure view
// over a circulant graph, served to three closed-loop clients on a
// pool of two workers. Two readers alternate whole-view scans and bound
// point queries against pinned snapshots; one writer inserts random edges
// and deletes them again eight updates later, so the EDB stays level. This
// is the workload where incremental maintenance (inc), the serving front end
// (serve) and the WAL (storage) do the work. The WAL is fsynced once per
// installed epoch.

#include <algorithm>
#include <atomic>
#include <deque>
#include <filesystem>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "ast/parser.h"
#include "eval/seminaive.h"
#include "layers.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace api = factlog::api;
namespace ast = factlog::ast;
namespace eval = factlog::eval;
using Edge = std::pair<int64_t, int64_t>;

constexpr int64_t kNodes = 150;
const std::vector<int64_t> kSteps = {1, 4, 16, 64};  // circulant steps
constexpr int kHotConstants = 16;   // bound constants of point queries
constexpr size_t kInsertedDepth = 8;  // inserted edges live this long
constexpr size_t kPoolWorkers = 2;
constexpr size_t kShards = 2;
constexpr int kReaders = 2;
constexpr int kSetups = 7;

constexpr const char* kView =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(X, Y).";
constexpr const char* kPointPrefix =
    "t(X, Y) :- e(X, Y). t(X, Y) :- t(X, W), e(W, Y). ?- t(";
constexpr const char* kEdges = "q(X, Y) :- e(X, Y). ?- q(X, Y).";

ast::Atom EdgeAtom(const Edge& e) {
  return ast::Atom("e", {ast::Term::Int(e.first), ast::Term::Int(e.second)});
}

// A request's text and its parse: clients submit parsed programs.
struct Parsed {
  std::string text;
  ast::Program program;
  ast::Atom query;
};

Parsed Parse(const std::string& text) {
  auto program = ast::ParseProgram(text);
  return Parsed{text, *program, *program->query()};
}

// The writer's traffic: insert a random absent edge, and once eight are
// live, delete the oldest instead. `live` is the EDB as acknowledged.
class WriteStream {
 public:
  WriteStream(uint64_t seed, std::set<Edge> initial)
      : rng_(seed), live_(std::move(initial)) {}

  std::pair<bool, Edge> Next() {
    if (inserted_.size() >= kInsertedDepth) return {false, inserted_.front()};
    for (;;) {
      Edge e{rng_.Between(1, kNodes), rng_.Between(1, kNodes - 1)};
      if (e.second >= e.first) ++e.second;
      if (live_.count(e) == 0) return {true, e};
    }
  }
  void Acknowledge(bool insert, const Edge& e) {
    if (insert) {
      live_.insert(e);
      inserted_.push_back(e);
    } else {
      live_.erase(e);
      inserted_.pop_front();
    }
  }
  const std::set<Edge>& live() const { return live_; }

 private:
  Rng rng_;
  std::set<Edge> live_;
  std::deque<Edge> inserted_;
};

struct Served {
  std::unique_ptr<api::Engine> engine;
  api::ViewHandle view;
  std::string dir;
};

std::vector<std::string> EdgeRows(const std::set<Edge>& edges) {
  std::vector<std::string> rows;
  for (const Edge& e : edges) {
    rows.push_back(std::to_string(e.first) + "\t" + std::to_string(e.second) +
                   "\t");
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// The view equals a from-scratch evaluation of its program.
void CheckViewFresh(api::Engine* engine, const char* when, Report* report) {
  auto from_view = engine->Query(kView);
  Parsed view = Parse(kView);
  auto fresh = eval::EvaluateQuery(view.program, view.query, &engine->db());
  report->Check(from_view.ok() && fresh.ok() && from_view->rows == fresh->rows,
                std::string("view_serve: view differs from re-evaluation ") +
                    when);
}

// Every acknowledged update is visible: the EDB holds exactly `live`.
void CheckEdges(api::Engine* engine, const std::set<Edge>& live,
                const char* when, Report* report) {
  auto edges = engine->Query(kEdges);
  report->Check(edges.ok() && CanonicalRows(*edges, engine->db().store()) ==
                                  EdgeRows(live),
                std::string("view_serve: EDB differs from acknowledged "
                            "updates ") +
                    when);
}

// Stops serving and checks the view; then closes the engine, reopens its
// directory, and checks that every acknowledged update survived and the
// restored view is still exact. Deletes the directory and returns the time
// Engine::Open took.
double StopAndCheck(Served* served, const std::set<Edge>& live,
                    Report* report) {
  if (!served->engine->StopServing().ok()) {
    report->Fail("view_serve: StopServing");
  }
  CheckViewFresh(served->engine.get(), "after serving", report);
  CheckEdges(served->engine.get(), live, "after serving", report);
  served->engine.reset();
  double reopen_s = 0;
  {
    Clock::time_point start = Clock::now();
    auto reopened = api::Engine::Open(served->dir);
    reopen_s = SecondsSince(start);
    if (!reopened.ok()) {
      report->Fail("view_serve: reopen: " + reopened.status().ToString());
    } else {
      CheckEdges(reopened->get(), live, "after reopen", report);
      CheckViewFresh(reopened->get(), "after reopen", report);
    }
  }
  std::filesystem::remove_all(served->dir);
  return reopen_s;
}

}  // namespace

void RunViewServe(const Options& options, Report* report) {
  Rng rng(options.seed);
  const std::vector<Edge> edges =
      Circulant(1, kNodes, kSteps, &rng);
  const std::string facts = PairFacts("e", edges);
  std::vector<Parsed> points;
  for (int64_t node : rng.Distinct(1, kNodes, kHotConstants)) {
    points.push_back(Parse(kPointPrefix + std::to_string(node) + ", Y)."));
  }
  const Parsed scan = Parse(kView);

  // Set-up: open a fresh database, load, materialize the view, warm the
  // point plans, checkpoint, and start serving. False when it failed.
  EndToEnd e2e;
  LayerTotals totals;
  Samples checkpoint_s;
  Served served;
  // Closes the served engine, if any, and deletes its directory.
  auto discard = [&] {
    if (served.engine == nullptr) return;
    served.engine.reset();
    std::filesystem::remove_all(served.dir);
  };
  auto set_up = [&](int i) {
    discard();
    served.dir = options.workdir + "/view_serve_db_" + std::to_string(i);
    std::filesystem::remove_all(served.dir);
    Clock::time_point start = Clock::now();
    api::EngineOptions engine_options;
    engine_options.num_threads = kPoolWorkers;
    engine_options.num_shards = kShards;
    auto opened = api::Engine::Open(served.dir, engine_options);
    if (!opened.ok()) {
      report->Fail("view_serve: Open: " + opened.status().ToString());
      return false;
    }
    served.engine = std::move(opened).value();
    api::Engine& engine = *served.engine;
    bool ok = engine.LoadFacts(facts).ok();
    auto view = engine.Materialize(kView);
    ok = ok && view.ok();
    for (int k = 0; ok && k < kHotConstants; ++k) {
      ok = engine.Query(points[k].program, points[k].query).ok();
    }
    Clock::time_point checkpoint_start = Clock::now();
    ok = ok && engine.Checkpoint().ok();
    checkpoint_s.Add(SecondsSince(checkpoint_start));
    ok = ok && engine.StartServing().ok();
    e2e.setup_s.Add(SecondsSince(start));
    if (!ok) {
      report->Fail("view_serve: setup failed");
      return false;
    }
    served.view = *view;
    return true;
  };
  for (int i = 0; i < SetupsBefore(kSetups); ++i) {
    if (!set_up(i)) {
      discard();
      return;
    }
  }
  api::Engine& engine = *served.engine;
  totals.checkpoint_s = checkpoint_s.Quantile(0.5);

  WriteStream writes(options.seed * 7919 + 1,
                     std::set<Edge>(edges.begin(), edges.end()));
  std::atomic<uint64_t> attempted{0}, failed{0};
  auto read = [&](uint64_t session, const Parsed& p,
                  factlog::serve::QueryResponse* resp) {
    attempted.fetch_add(1);
    Clock::time_point start = Clock::now();
    *resp = engine.SubmitQuery(session, p.program, p.query).get();
    double us = MicrosSince(start);
    if (!resp->status.ok()) failed.fetch_add(1);
    return resp->status.ok() ? us : -1.0;
  };
  auto write = [&](uint64_t session, factlog::serve::UpdateResponse* resp) {
    auto [insert, edge] = writes.Next();
    attempted.fetch_add(1);
    *resp = engine.SubmitUpdate(session, insert, EdgeAtom(edge)).get();
    if (!resp->status.ok()) {
      failed.fetch_add(1);
      return false;
    }
    writes.Acknowledge(insert, edge);
    return insert;
  };

  if (!options.trace) {
    std::mutex mu;  // guards e2e
    std::atomic<int> readers_left{kReaders};
    Clock::time_point start = Clock::now();
    auto keep_measuring = [&] {
      std::lock_guard<std::mutex> lock(mu);
      return KeepMeasuring(start, options.seconds, e2e);
    };
    std::vector<std::thread> clients;
    for (int r = 0; r < kReaders; ++r) {
      clients.emplace_back([&, r] {
        const uint64_t session = engine.OpenSession();
        // Readers alternate scans and point queries, each taking the point
        // constants in turn from its own offset.
        size_t next_point = r * points.size() / kReaders;
        for (uint64_t i = 0; keep_measuring(); ++i) {
          const bool is_scan = i % 2 == 0;
          const Parsed& p =
              is_scan ? scan : points[next_point++ % points.size()];
          factlog::serve::QueryResponse resp;
          double us = read(session, p, &resp);
          if (us < 0) continue;
          std::lock_guard<std::mutex> lock(mu);
          (is_scan ? e2e.scan : e2e.query).Add(p.text, us);
        }
        engine.CloseSession(session);
        readers_left.fetch_sub(1);
      });
    }
    clients.emplace_back([&] {
      const uint64_t session = engine.OpenSession();
      while (readers_left.load() > 0) {
        factlog::serve::UpdateResponse resp;
        write(session, &resp);
      }
      engine.CloseSession(session);
    });
    for (std::thread& t : clients) t.join();
  } else {
    // Single-client pass of cycles: a whole-view scan, a point query, an
    // update. The first quarter runs untraced, as the tracing baseline.
    Tracer tracer;
    const uint64_t session = engine.OpenSession();
    size_t next_point = 0;
    ReadContext ctx;
    ctx.engine = &engine;
    ctx.shared_edb = true;
    ctx.engine_query = false;
    auto served_read = [&](const Parsed& p, bool traced) {
      factlog::serve::QueryResponse resp;
      Clock::time_point start = Clock::now();
      double us = [&] {
        if (!traced) return read(session, p, &resp);
        ScopedSpan span(&tracer, "serve.read");
        return read(session, p, &resp);
      }();
      if (us < 0 || !traced) return std::make_pair(us, resp);
      us = MicrosSince(start);
      ++totals.served_reads;
      totals.view_hits += resp.view_hit ? 1 : 0;
      totals.serve_queue_us += static_cast<double>(resp.queue_us);
      totals.serve_execute_us += static_cast<double>(resp.execute_us);
      totals.api_overhead_us += std::max(
          0.0, us - static_cast<double>(resp.queue_us + resp.execute_us));
      ++totals.api_queries;
      return std::make_pair(us, resp);
    };
    auto cycle = [&](bool traced) {
      // A whole-view scan: answer extraction from the frozen view.
      auto [scan_us, scan_resp] = served_read(scan, traced);
      if (traced && scan_us >= 0 && scan_resp.view_hit) {
        totals.extract_us += static_cast<double>(scan_resp.execute_us);
      }
      // A point query: decomposed against the live database (the writer is
      // idle between this client's own updates), then served.
      const Parsed& p = points[next_point++ % points.size()];
      if (traced) {
        attempted.fetch_add(1);
        if (TracedRead(p.text, ctx, &tracer, &totals, report) < 0) {
          failed.fetch_add(1);
        }
      }
      double point_us = served_read(p, traced).first;
      if (point_us >= 0) {
        (traced ? totals.traced_read_us : totals.untraced_read_us).Add(point_us);
      }
      // An update, maintained through the view and logged to the WAL.
      factlog::serve::UpdateResponse resp;
      bool inserted = [&] {
        if (!traced) return write(session, &resp);
        ScopedSpan span(&tracer, "inc.update");
        return write(session, &resp);
      }();
      if (!traced || !resp.status.ok()) return;
      (inserted ? totals.insert_apply_us : totals.delete_apply_us)
          .Add(static_cast<double>(resp.apply_us));
      auto stats = engine.ViewStatsFor(served.view);
      if (stats.ok()) {
        totals.delta_passes += stats->last_update.delta_passes;
        totals.cone_input += stats->last_update.cone_input;
        totals.overdeleted += stats->last_update.overdeleted;
        totals.rederived += stats->last_update.rederived;
      }
    };
    const auto untraced_end =
        Clock::now() + std::chrono::duration<double>(options.seconds / 4);
    while (Clock::now() < untraced_end) cycle(false);
    const factlog::storage::StorageStats storage_before =
        engine.persistence_stats().storage;
    const factlog::serve::ServerStats server_before = engine.serving_stats();
    const auto deadline =
        Clock::now() + std::chrono::duration<double>(options.seconds);
    while (Clock::now() < deadline) cycle(true);
    engine.CloseSession(session);
    const factlog::storage::StorageStats storage_after =
        engine.persistence_stats().storage;
    const factlog::serve::ServerStats server_after = engine.serving_stats();
    totals.wal_bytes = storage_after.wal_bytes - storage_before.wal_bytes;
    totals.wal_records =
        storage_after.wal_records_logged - storage_before.wal_records_logged;
    totals.pool_hit_rate = storage_after.pool.hit_rate();
    totals.served_updates =
        server_after.completed_updates - server_before.completed_updates;
    totals.epochs =
        server_after.epochs_installed - server_before.epochs_installed;
    totals.serve_rejected =
        (server_after.rejected_queries - server_before.rejected_queries) +
        (server_after.rejected_updates - server_before.rejected_updates);
    totals.serve_submitted =
        totals.serve_rejected +
        (server_after.accepted_queries - server_before.accepted_queries) +
        (server_after.accepted_updates - server_before.accepted_updates);
    auto stats = engine.ViewStatsFor(served.view);
    if (stats.ok()) totals.edge_store_edges = stats->edge_store_edges;
    tracer.WriteJsonLines(options.workdir + "/view_serve.spans.jsonl");
    totals.reopen_s = StopAndCheck(&served, writes.live(), report);
    report->CountOps(attempted.load(), failed.load());
    EmitLayerMetrics(tracer, totals, report);
    return;
  }

  StopAndCheck(&served, writes.live(), report);
  report->CountOps(attempted.load(), failed.load());
  for (int i = SetupsBefore(kSetups); i < kSetups; ++i) {
    bool ok = set_up(i);
    discard();
    if (!ok) return;
  }
  ReportEndToEnd(e2e, report);
}

}  // namespace perfbench
