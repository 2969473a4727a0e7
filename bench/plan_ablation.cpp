// Plan ablation: the selectivity-driven planner (src/plan/) against
// written-order execution on the Fig. 12 diversity workloads {Len,
// Dis, Con}, across the four engine simulators {P, S, G, D}.
//
// For every (preset, engine, query) the query runs twice under the
// §7.1 timing protocol — once with the identity plan, once planned —
// and the table reports total warm seconds plus how many queries the
// planner improved. Planning must never change results: whenever both
// runs complete, any count divergence exits non-zero (the CI bench
// smoke relies on this gate). A second gate re-runs every planned
// query at 2 and 8 evaluation threads and requires the counts to match
// the planned serial run — plans are pure functions of (query, schema,
// layout), so thread count must not move a single row.
//
// GMARK_SMOKE=1 shrinks the graph and workloads for CI; GMARK_FULL=1
// restores paper-scale parameters; GMARK_THREADS overrides the
// thread-identity sweep.

#include <cstdio>
#include <cstdlib>
#include <vector>

#include "analysis/runner.h"
#include "bench_util.h"
#include "core/use_cases.h"
#include "parallel/executor.h"
#include "parallel/parallel_generator.h"
#include "plan/planner.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

namespace {

struct AblationCell {
  double unplanned_seconds = 0.0;
  double planned_seconds = 0.0;
  int ok_runs = 0;       // Both modes completed within budget.
  int improved = 0;      // Planned run was strictly faster.
  int skipped = 0;       // At least one mode failed in budget.
};

bool ThreadIdentityHolds(const Graph& graph, const Query& query,
                         const ResourceBudget& budget, const Planner& planner,
                         EngineKind kind, uint64_t expected,
                         const std::vector<int>& thread_counts) {
  for (int threads : thread_counts) {
    Executor executor(threads);
    EvalOptions opts;
    opts.executor = &executor;
    opts.planner = &planner;
    auto engine = MakeEngine(kind, opts);
    auto result = engine->Evaluate(graph, query, budget);
    if (!result.ok()) {
      // Budget kills near the ceiling may be timing-dependent; only a
      // completed run with a different answer is a correctness bug.
      continue;
    }
    if (result.ValueOrDie() != expected) {
      std::fprintf(stderr,
                   "FAIL: %s planned count diverged at k=%d (%llu vs "
                   "serial %llu)\n",
                   EngineKindCode(kind), threads,
                   static_cast<unsigned long long>(result.ValueOrDie()),
                   static_cast<unsigned long long>(expected));
      return false;
    }
  }
  return true;
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Plan ablation: selectivity-driven planning vs written order",
      "extends paper Fig. 12 (engine comparison on diverse workloads)");

  const int64_t nodes =
      bench::SmokeMode() ? 500 : (bench::FullMode() ? 4000 : 2000);
  const size_t num_queries =
      bench::SmokeMode() ? 6 : (bench::FullMode() ? 30 : 12);
  const ResourceBudget budget =
      bench::FullMode() ? ResourceBudget::Limited(60.0, 200000000)
                        : ResourceBudget::Limited(2.0, 20000000);
  TimingProtocol protocol;
  if (!bench::FullMode()) protocol.warm_runs = 3;
  const std::vector<int> thread_counts = bench::ThreadCounts({2, 8});

  GraphConfiguration config = MakeBibConfig(nodes, 7);
  const Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  const Planner planner(&config.schema);
  QueryGenerator generator(&config.schema);
  std::printf("Bib n=%lld, %zu queries per workload, thread identity at",
              static_cast<long long>(nodes), num_queries);
  for (int k : thread_counts) std::printf(" k=%d", k);
  std::printf("\n\n");

  bool ok = true;
  for (WorkloadPreset preset : {WorkloadPreset::kLen, WorkloadPreset::kDis,
                                WorkloadPreset::kCon}) {
    auto workload =
        generator.Generate(MakePresetWorkload(preset, num_queries, 19));
    if (!workload.ok()) {
      std::fprintf(stderr, "FAIL: workload %s: %s\n",
                   WorkloadPresetName(preset),
                   workload.status().ToString().c_str());
      ok = false;
      continue;
    }

    std::printf("--- workload %s ---\n", WorkloadPresetName(preset));
    std::printf("  %-8s %12s %12s %8s %10s\n", "engine", "written(s)",
                "planned(s)", "speedup", "improved");
    for (EngineKind kind : AllEngineKinds()) {
      auto unplanned_engine = MakeEngine(kind);
      EvalOptions planned_opts;
      planned_opts.planner = &planner;
      auto planned_engine = MakeEngine(kind, planned_opts);

      AblationCell cell;
      for (const GeneratedQuery& gq : workload->queries) {
        const TimingResult unplanned =
            TimeQuery(*unplanned_engine, graph, gq.query, budget, protocol);
        const TimingResult planned =
            TimeQuery(*planned_engine, graph, gq.query, budget, protocol);
        if (planned.ok() && !planned.profile.planned) {
          std::fprintf(stderr,
                       "FAIL: %s planned run left profile.planned unset\n",
                       EngineKindCode(kind));
          ok = false;
        }
        if (!unplanned.ok() || !planned.ok()) {
          // A query only one mode finishes is a budget artifact, not a
          // correctness signal — but a disagreement on the count from
          // two completed runs is the bug this binary exists to catch.
          ++cell.skipped;
          continue;
        }
        if (unplanned.count != planned.count) {
          std::fprintf(
              stderr,
              "FAIL: %s/%s count diverged (written %llu, planned %llu)\n",
              WorkloadPresetName(preset), EngineKindCode(kind),
              static_cast<unsigned long long>(unplanned.count),
              static_cast<unsigned long long>(planned.count));
          ok = false;
          ++cell.skipped;
          continue;
        }
        cell.unplanned_seconds += unplanned.seconds;
        cell.planned_seconds += planned.seconds;
        ++cell.ok_runs;
        if (planned.seconds < unplanned.seconds) ++cell.improved;
        ok = ThreadIdentityHolds(graph, gq.query, budget, planner, kind,
                                 planned.count, thread_counts) &&
             ok;
      }
      if (cell.ok_runs > 0) {
        std::printf("  %-8s %12.3f %12.3f %7.2fx %6d/%-3d%s\n",
                    EngineKindCode(kind), cell.unplanned_seconds,
                    cell.planned_seconds,
                    cell.planned_seconds > 0.0
                        ? cell.unplanned_seconds / cell.planned_seconds
                        : 0.0,
                    cell.improved, cell.ok_runs,
                    cell.skipped > 0 ? " (some skipped in budget)" : "");
      } else {
        std::printf("  %-8s (no query completed in both modes)\n",
                    EngineKindCode(kind));
      }
    }
    std::printf("\n");
  }

  if (!ok) {
    std::fprintf(stderr, "plan_ablation: identity check FAILED\n");
    return 1;
  }
  std::printf("identity gate: planned == written-order on every completed "
              "query, at every thread count\n");
  return 0;
}
