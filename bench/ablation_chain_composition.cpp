// Ablation: evaluating binary chain queries as one composed RPQ
// (product-graph BFS, the reference evaluator's fast path) versus
// conjunct-at-a-time join evaluation with materialized intermediates.
// This design choice is what makes counting quadratic queries on
// 10K+-node instances feasible: the composed BFS never materializes
// the quadratic intermediate relations the join plan builds.

#include <benchmark/benchmark.h>

#include "core/use_cases.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace {

using namespace gmark;

struct Fixture {
  Fixture() {
    config = MakeBibConfig(2000, 7);
    graph = new Graph(ParallelGenerateGraph(config).ValueOrDie());
    QueryGenerator generator(&config.schema);
    workload = generator
                   .Generate(MakePresetWorkload(WorkloadPreset::kCon, 6, 31))
                   .ValueOrDie();
  }
  GraphConfiguration config;
  Graph* graph;
  Workload workload;
};

Fixture& GetFixture() {
  static Fixture fixture;
  return fixture;
}

void BM_ChainAsComposedRpq(benchmark::State& state) {
  Fixture& f = GetFixture();
  ReferenceEvaluator eval(f.graph);
  for (auto _ : state) {
    uint64_t total = 0;
    for (const GeneratedQuery& gq : f.workload.queries) {
      total += eval.CountDistinct(gq.query).ValueOr(0);
    }
    benchmark::DoNotOptimize(total);
  }
}

void BM_ChainAsJoins(benchmark::State& state) {
  Fixture& f = GetFixture();
  ReferenceEvaluator eval(f.graph);
  for (auto _ : state) {
    uint64_t total = 0;
    for (const GeneratedQuery& gq : f.workload.queries) {
      BudgetTracker budget(ResourceBudget::Limited(60.0, 400000000));
      auto rel = eval.EvaluateRuleJoin(gq.query.rules[0], &budget);
      if (rel.ok()) total += rel->value.row_count();
    }
    benchmark::DoNotOptimize(total);
  }
}

BENCHMARK(BM_ChainAsComposedRpq)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_ChainAsJoins)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
