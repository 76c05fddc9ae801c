// The benchmark's workloads. Each sets itself up, runs its closed loop (or,
// with --trace 1, its single-client traced pass), checks its outputs outside
// the timed loop, and records its metrics in the report.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <functional>
#include <string>

#include "api/engine.h"
#include "harness.h"
#include "layers.h"

namespace perfbench {

void RunAdhocCompile(const Options& options, Report* report);
void RunClosureEval(const Options& options, Report* report);
void RunViewServe(const Options& options, Report* report);

/// CPUs this process may run on (the affinity mask, as nproc reports it).
size_t AvailableCpus();

/// The end-to-end metrics every workload reports, in order.
struct EndToEnd {
  BestLatencies query;  // bound point queries
  BestLatencies scan;   // whole-relation reads
  Samples setup_s;
};
void ReportEndToEnd(const EndToEnd& e2e, Report* report);

/// Of a workload's `total` set-ups, the ones run before its timed loop (the
/// last of them serves the traffic). The rest run after the loop, so the
/// median set-up time spans the run rather than one moment of a shared host.
inline constexpr int SetupsBefore(int total) { return total / 2 + 1; }

/// Whether a closed loop started at `start` keeps going: for `seconds`, and
/// past that, for at most `seconds` more, until every distinct request of
/// `e2e` has run kMinRuns times.
bool KeepMeasuring(Clock::time_point start, double seconds,
                   const EndToEnd& e2e);

/// A read of a single-client workload: a program text with a `?-` query.
struct ReadRequest {
  std::string text;
  bool scan = false;  // a whole-relation read, else a bound point query
};

/// Drives one closed-loop client over `next()` requests on `ctx.engine`.
/// --trace 0: times Engine::Query per request text into `e2e`, which the
/// caller reports once its set-ups are done. --trace 1: runs a quarter of
/// --seconds untraced, then --seconds of TracedRead, writes the spans to
/// <workdir>/<workload>.spans.jsonl, reports the per-layer metrics, and
/// hands the spans and totals to `check_traced` for the workload's own
/// isolation check.
void RunSingleClient(
    const Options& options, EndToEnd* e2e,
    const std::function<ReadRequest()>& next, const ReadContext& ctx,
    const std::function<void(const Tracer&, const LayerTotals&)>& check_traced,
    Report* report);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
