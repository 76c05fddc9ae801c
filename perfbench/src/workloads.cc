#include "workloads.h"

#include <sched.h>

namespace perfbench {

size_t AvailableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  int count = CPU_COUNT(&set);
  return count > 0 ? static_cast<size_t>(count) : 1;
}

void ReportEndToEnd(const EndToEnd& e2e, Report* report) {
  ReportBest("query", e2e.query, report);
  ReportBest("scan", e2e.scan, report);
  report->Metric("setup_s", e2e.setup_s.Quantile(0.5), "s");
  report->Metric("peak_rss_mb", PeakRssMb(), "MB");
}

bool KeepMeasuring(Clock::time_point start, double seconds,
                   const EndToEnd& e2e) {
  const double elapsed = SecondsSince(start);
  if (elapsed < seconds) return true;
  return elapsed < 2 * seconds && (e2e.query.FewestRuns() < kMinRuns ||
                                   e2e.scan.FewestRuns() < kMinRuns);
}

void RunSingleClient(
    const Options& options, EndToEnd* e2e,
    const std::function<ReadRequest()>& next, const ReadContext& ctx,
    const std::function<void(const Tracer&, const LayerTotals&)>& check_traced,
    Report* report) {
  factlog::api::Engine& engine = *ctx.engine;
  uint64_t attempted = 0, failed = 0;
  // One read through the engine facade; -1 when it failed.
  auto engine_read = [&](const ReadRequest& request) {
    ++attempted;
    Clock::time_point start = Clock::now();
    bool ok = engine.Query(request.text).ok();
    double us = MicrosSince(start);
    if (!ok) ++failed;
    return ok ? us : -1.0;
  };

  if (!options.trace) {
    Clock::time_point start = Clock::now();
    while (KeepMeasuring(start, options.seconds, *e2e)) {
      ReadRequest request = next();
      double us = engine_read(request);
      if (us < 0) continue;
      (request.scan ? e2e->scan : e2e->query).Add(request.text, us);
    }
    report->CountOps(attempted, failed);
    return;
  }

  LayerTotals totals;
  Tracer tracer;
  const auto untraced_end =
      Clock::now() + std::chrono::duration<double>(options.seconds / 4);
  while (Clock::now() < untraced_end) {
    double us = engine_read(next());
    if (us >= 0) totals.untraced_read_us.Add(us);
  }
  const auto deadline =
      Clock::now() + std::chrono::duration<double>(options.seconds);
  while (Clock::now() < deadline) {
    ++attempted;
    if (TracedRead(next().text, ctx, &tracer, &totals, report) < 0) ++failed;
  }
  report->CountOps(attempted, failed);
  totals.traced_read_us = tracer.Durations("request");
  EmitLayerMetrics(tracer, totals, report);
  tracer.WriteJsonLines(options.workdir + "/" + options.workload +
                        ".spans.jsonl");
  check_traced(tracer, totals);
}

}  // namespace perfbench
