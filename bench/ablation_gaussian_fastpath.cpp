// Ablation: the Gaussian fast path of the graph generator (paper §4:
// "exploiting the average information of the Gaussian distributions to
// avoid entirely constructing the vectors"). Compares generation time
// with the optimization on vs off, on schemas with Gaussian-heavy
// constraints.

#include <benchmark/benchmark.h>

#include "core/use_cases.h"
#include "parallel/parallel_generator.h"

namespace {

using namespace gmark;

void RunGeneration(benchmark::State& state, UseCase use_case,
                   bool fast_path) {
  const int64_t n = state.range(0);
  GraphConfiguration config = MakeUseCase(use_case, n, 42);
  GeneratorOptions options;
  options.gaussian_fast_path = fast_path;
  size_t edges = 0;
  for (auto _ : state) {
    CountingSink sink;
    Status st = ParallelGenerateToSink(config, &sink, options);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
    edges = sink.count();
    benchmark::DoNotOptimize(edges);
  }
  state.counters["edges"] =
      benchmark::Counter(static_cast<double>(edges));
  state.SetItemsProcessed(static_cast<int64_t>(edges) *
                          static_cast<int64_t>(state.iterations()));
}

void BM_Bib_FastPath(benchmark::State& state) {
  RunGeneration(state, UseCase::kBib, true);
}
void BM_Bib_SlotVectors(benchmark::State& state) {
  RunGeneration(state, UseCase::kBib, false);
}
void BM_Lsn_FastPath(benchmark::State& state) {
  RunGeneration(state, UseCase::kLsn, true);
}
void BM_Lsn_SlotVectors(benchmark::State& state) {
  RunGeneration(state, UseCase::kLsn, false);
}

BENCHMARK(BM_Bib_FastPath)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Bib_SlotVectors)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Lsn_FastPath)->Arg(100000)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Lsn_SlotVectors)->Arg(100000)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
