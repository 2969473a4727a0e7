#include "analysis/runner.h"

#include <algorithm>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace gmark {

std::string TimingResult::ToCell() const {
  if (!status.ok()) return "-";
  return FormatFixed(seconds, 3);
}

TimingResult TimeQuery(const QueryEngine& engine, const Graph& graph,
                       const Query& query, const ResourceBudget& budget,
                       const TimingProtocol& protocol) {
  TimingResult result;
  Span span = TraceSpan("query.time", "query");
  if (span.active()) {
    span.SetAttribute("engine", EngineKindCode(engine.kind()));
  }
  MetricRegistry* metrics = GlobalMetrics();

  auto run_once = [&](double* seconds, EvalContext* ctx) -> Status {
    WallTimer timer;
    auto count = engine.Evaluate(graph, query, budget, ctx);
    *seconds = timer.ElapsedSeconds();
    GMARK_RETURN_NOT_OK(count.status());
    result.count = count.ValueOrDie();
    return Status::OK();
  };
  auto record_failure = [&] {
    if (metrics != nullptr) {
      metrics->Add("query.failures", 1);
    }
  };

  // The profile rides on the cold run, which the protocol excludes from
  // timing anyway — so profiling overhead never perturbs the reported
  // seconds. With cold runs disabled it rides on the first warm run.
  EvalContext ctx;
  ctx.profile = &result.profile;
  bool profiled = false;

  if (protocol.cold_run) {
    double cold = 0;
    result.status = run_once(&cold, &ctx);
    profiled = true;
    if (!result.status.ok()) {  // Failed runs fail cold too.
      record_failure();
      return result;
    }
  }
  std::vector<double> times;
  for (int i = 0; i < protocol.warm_runs; ++i) {
    double t = 0;
    result.status = run_once(&t, profiled ? nullptr : &ctx);
    profiled = true;
    if (!result.status.ok()) {
      record_failure();
      return result;
    }
    times.push_back(t);
    if (metrics != nullptr) {
      metrics->Observe("query.warm_run_nanos", static_cast<uint64_t>(t * 1e9));
    }
  }
  std::sort(times.begin(), times.end());
  int lo = protocol.trim_each_side;
  int hi = static_cast<int>(times.size()) - protocol.trim_each_side;
  if (hi <= lo) {  // Degenerate protocol: use everything.
    lo = 0;
    hi = static_cast<int>(times.size());
  }
  double sum = 0;
  for (int i = lo; i < hi; ++i) sum += times[static_cast<size_t>(i)];
  result.seconds = sum / static_cast<double>(hi - lo);
  result.status = Status::OK();
  return result;
}

}  // namespace gmark
