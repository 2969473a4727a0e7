// Table 3: graph generation wall time for varying sizes and schemas.
//
// The paper reports 100K/1M/10M/100M nodes for Bib, LSN, WD, SP on an
// i7-920. Edges stream into a counting sink, so the measurement covers
// exactly the Fig. 5 algorithm (drawing, shuffling, zipping), not graph
// indexing. Expected shape: times scale ~linearly in emitted edges; WD
// is the slowest schema by an order of magnitude (densest instances).

#include <cstdio>

#include "bench_util.h"
#include "core/use_cases.h"
#include "parallel/parallel_generator.h"
#include "util/timer.h"

using namespace gmark;

int main() {
  bench::PrintHeader("Table 3: graph generation time",
                     "paper Table 3 (scalability of the generator)");
  std::vector<int64_t> sizes = bench::Sizes({100000, 1000000},
                                            {100000, 1000000, 10000000});
  std::printf("%-6s", "");
  for (int64_t n : sizes) {
    if (n >= 1000000) {
      std::printf("  %11lldM", static_cast<long long>(n / 1000000));
    } else {
      std::printf("  %11lldK", static_cast<long long>(n / 1000));
    }
  }
  std::printf("\n");

  for (UseCase use_case :
       {UseCase::kBib, UseCase::kLsn, UseCase::kWd, UseCase::kSp}) {
    std::printf("%-6s", UseCaseName(use_case));
    for (int64_t n : sizes) {
      GraphConfiguration config = MakeUseCase(use_case, n, 42);
      CountingSink sink;
      WallTimer timer;
      Status st = ParallelGenerateToSink(config, &sink);
      double seconds = timer.ElapsedSeconds();
      if (!st.ok()) {
        std::printf("  %12s", "-");
        continue;
      }
      char cell[64];
      if (sink.count() >= 1000000) {
        std::snprintf(cell, sizeof(cell), "%.3fs/%.1fME", seconds,
                      static_cast<double>(sink.count()) / 1e6);
      } else {
        std::snprintf(cell, sizeof(cell), "%.3fs/%zuKE", seconds,
                      sink.count() / 1000);
      }
      std::printf("  %12s", cell);
    }
    std::printf("\n");
  }
  std::printf(
      "\n(cells: seconds / millions of edges emitted)\n"
      "expected shape (paper): near-linear scaling per schema; WD slowest\n"
      "due to instance density, Bib fastest.\n");
  return 0;
}
