// Fig. 12(a)-(c): query execution times for the diverse workloads
// {Len, Dis, Con} across the four engine simulators {P, S, G, D} and
// increasing graph sizes, split by selectivity class (one block per
// panel: constant, linear, quadratic).
//
// Protocol per §7.1: per query one cold run plus warm runs (trimmed
// average); queries carry the count(distinct) aggregate; each cell
// averages the class's queries; "-" marks failures (budget exhausted),
// which the paper also observes.
//
// `--threads k` (k > 1) appends a per-engine parallel-speedup section:
// each engine re-runs the Len workload on the largest graph with a
// k-worker frontier-parallel evaluator, counts checked identical to the
// serial run (divergence exits non-zero). Cypher's DFS is inherently
// sequential and is expected to show ~1x.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <vector>

#include "analysis/runner.h"
#include "bench_util.h"
#include "core/use_cases.h"
#include "parallel/executor.h"
#include "parallel/parallel_generator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

namespace {

struct Cell {
  double total = 0;
  int ok_runs = 0;
  int timeouts = 0;
  int mem_failures = 0;

  std::string Render() const {
    if (ok_runs == 0) {
      if (timeouts + mem_failures == 0) return "-";
      // Failure-only cell: say WHY (from the evaluation profiles) —
      // T = wall-clock budget, M = tuple (memory) budget.
      std::string tag = "-(";
      if (timeouts > 0) tag += 'T';
      if (mem_failures > 0) tag += 'M';
      return tag + ")";
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f%s",
                  total / static_cast<double>(ok_runs),
                  timeouts + mem_failures > 0 ? "*" : "");
    return buf;
  }
};

/// Per-engine serial-vs-parallel rerun of one workload on one graph:
/// total warm seconds across the queries each path completed, counts
/// checked identical per query. Returns false on count divergence.
bool RunEngineSpeedup(const Graph& graph, const Workload& workload,
                      const ResourceBudget& budget,
                      const TimingProtocol& protocol, int threads) {
  std::printf("\n--- parallel evaluation speedup (Len workload, largest "
              "graph, k=%d) ---\n",
              threads);
  Executor executor(threads);
  EvalOptions opts;
  opts.executor = &executor;
  bool ok = true;
  for (EngineKind kind : AllEngineKinds()) {
    auto serial_engine = MakeEngine(kind);
    auto parallel_engine = MakeEngine(kind, opts);
    double serial_seconds = 0.0, parallel_seconds = 0.0;
    int ok_runs = 0, failures = 0;
    for (const GeneratedQuery& gq : workload.queries) {
      TimingResult serial =
          TimeQuery(*serial_engine, graph, gq.query, budget, protocol);
      TimingResult parallel =
          TimeQuery(*parallel_engine, graph, gq.query, budget, protocol);
      if (serial.ok() != parallel.ok()) {
        // Budget kills are timing-dependent near the ceiling; a
        // serial/parallel disagreement on *whether* a query fits the
        // budget is not a correctness failure, so skip, don't gate.
        ++failures;
        continue;
      }
      if (!serial.ok()) {
        ++failures;
        continue;
      }
      if (serial.count != parallel.count) {
        std::fprintf(stderr,
                     "FAIL: %s engine count diverged at k=%d (%llu serial, "
                     "%llu parallel)\n",
                     EngineKindCode(kind), threads,
                     static_cast<unsigned long long>(serial.count),
                     static_cast<unsigned long long>(parallel.count));
        ok = false;
        continue;
      }
      serial_seconds += serial.seconds;
      parallel_seconds += parallel.seconds;
      ++ok_runs;
    }
    if (ok_runs > 0 && parallel_seconds > 0.0) {
      std::printf("  %-8s serial %8.3fs  parallel %8.3fs  speedup %5.2fx"
                  "  (%d queries%s%s)\n",
                  EngineKindCode(kind), serial_seconds, parallel_seconds,
                  serial_seconds / parallel_seconds, ok_runs,
                  failures > 0 ? ", some failed in budget" : "",
                  kind == EngineKind::kCypher ? "; DFS is serial" : "");
    } else {
      std::printf("  %-8s (no query completed within budget)\n",
                  EngineKindCode(kind));
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  int eval_threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      eval_threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: fig12_engines [--threads k]\n"
                   "  --threads k  append per-engine parallel speedup rows "
                   "(k evaluation workers)\n");
      return 2;
    }
  }
  bench::PrintHeader(
      "Fig. 12: engine comparison on diverse workloads (Bib)",
      "paper Fig. 12(a) constant, (b) linear, (c) quadratic");
  std::vector<int64_t> sizes =
      bench::Sizes({500, 1000, 2000}, {2000, 4000, 8000, 16000});
  const size_t num_queries = bench::FullMode() ? 30 : 6;
  ResourceBudget budget =
      bench::FullMode() ? ResourceBudget::Limited(60.0, 200000000)
                        : ResourceBudget::Limited(2.0, 20000000);
  TimingProtocol protocol;
  if (!bench::FullMode()) protocol.warm_runs = 3;

  GraphConfiguration base = MakeBibConfig(sizes.front(), 7);
  QueryGenerator generator(&base.schema);

  // Pre-generate graphs (shared across workloads and engines).
  std::vector<Graph> graphs;
  for (int64_t n : sizes) {
    GraphConfiguration config = base;
    config.num_nodes = n;
    graphs.push_back(ParallelGenerateGraph(config).ValueOrDie());
  }

  // cell[(class, preset, engine, size_index)]
  std::map<std::tuple<QuerySelectivity, WorkloadPreset, EngineKind, size_t>,
           Cell>
      cells;
  for (WorkloadPreset preset : {WorkloadPreset::kLen, WorkloadPreset::kDis,
                                WorkloadPreset::kCon}) {
    auto workload =
        generator.Generate(MakePresetWorkload(preset, num_queries, 19));
    if (!workload.ok()) continue;
    for (EngineKind kind : AllEngineKinds()) {
      auto engine = MakeEngine(kind);
      for (size_t si = 0; si < graphs.size(); ++si) {
        for (const GeneratedQuery& gq : workload->queries) {
          TimingResult result =
              TimeQuery(*engine, graphs[si], gq.query, budget, protocol);
          Cell& cell =
              cells[{*gq.target_class, preset, kind, si}];
          if (result.ok()) {
            cell.total += result.seconds;
            ++cell.ok_runs;
          } else if (result.profile.peak_tuples >= budget.max_tuples) {
            // The profile survives failed runs: a peak at the tuple
            // ceiling is a memory blowup, anything else ran out of
            // wall clock.
            ++cell.mem_failures;
          } else {
            ++cell.timeouts;
          }
        }
      }
    }
  }

  for (QuerySelectivity cls :
       {QuerySelectivity::kConstant, QuerySelectivity::kLinear,
        QuerySelectivity::kQuadratic}) {
    std::printf("\n--- panel: %s queries (seconds, avg per class) ---\n",
                QuerySelectivityName(cls));
    std::printf("%-10s", "wl/sys");
    for (int64_t n : sizes) {
      std::printf("  %9lld", static_cast<long long>(n));
    }
    std::printf("\n");
    for (WorkloadPreset preset : {WorkloadPreset::kLen, WorkloadPreset::kDis,
                                  WorkloadPreset::kCon}) {
      for (EngineKind kind : AllEngineKinds()) {
        std::printf("%s/%-7s", WorkloadPresetName(preset),
                    EngineKindCode(kind));
        for (size_t si = 0; si < graphs.size(); ++si) {
          auto it = cells.find({cls, preset, kind, si});
          std::printf("  %9s", it == cells.end() ? "-"
                                                  : it->second.Render()
                                                        .c_str());
        }
        std::printf("\n");
      }
    }
  }
  std::printf(
      "\n(* = some queries of the class failed within budget;\n"
      " -(T) all failed on the time budget, -(M) all failed on the tuple\n"
      " budget, -(TM) a mix — classified from the per-query evaluation\n"
      " profiles)\n"
      "expected shape (paper): P fastest on constant and on small linear;\n"
      "S overtakes on larger linear and on quadratic; G slowest/deviating;\n"
      "quadratic panel roughly an order of magnitude above the others.\n");

  if (eval_threads > 1) {
    auto len_workload = generator.Generate(
        MakePresetWorkload(WorkloadPreset::kLen, num_queries, 19));
    if (len_workload.ok() &&
        !RunEngineSpeedup(graphs.back(), *len_workload, budget, protocol,
                          eval_threads)) {
      std::fprintf(stderr, "fig12_engines: parallel identity check FAILED\n");
      return 1;
    }
  }
  return 0;
}
