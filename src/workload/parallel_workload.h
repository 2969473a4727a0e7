// Deterministic parallel version of the Fig. 6 workload generator.
//
// The serial generator threaded one RandomEngine through every query,
// which serialized the whole run — the last single-threaded stage of
// the Fig. 1 pipeline. Queries are statistically independent, so the
// loop chunks over the shared ThreadPool exactly like the graph
// generator (src/parallel/): query index i draws from the SplitMix64
// stream DeriveSeed(config.seed, i, phase), shared read-only structures
// (the schema graph, its walk-count tables, and G_sel with its chain
// tables when selectivity control is on) are built once up front, and
// results merge back in request-index order.
// The output is therefore a pure function of the configuration — byte-
// identical at any thread count, including the 1-thread inline path
// that QueryGenerator::Generate now delegates to.
//
// Unlike the graph generator, chunking is NOT part of the output
// contract here: seeds are derived per query index, never per chunk,
// so chunking only controls task granularity.

#ifndef GMARK_WORKLOAD_PARALLEL_WORKLOAD_H_
#define GMARK_WORKLOAD_PARALLEL_WORKLOAD_H_

#include "query/workload_config.h"
#include "util/result.h"
#include "workload/query_generator.h"

namespace gmark {

/// \brief Scheduling options for parallel workload generation. They
/// never affect the generated workload, only how the work runs.
struct ParallelWorkloadOptions {
  /// Worker threads: 0 means hardware concurrency, 1 runs inline on
  /// the calling thread (the serial path).
  int num_threads = 1;
};

/// \brief Run Fig. 6 with options.num_threads workers: generate
/// config.num_queries queries, each from its own seed-derived RNG
/// stream, preserving the serial path's per-index shape/selectivity
/// round-robin, skip records, and request-index query names.
Result<Workload> ParallelGenerateWorkload(
    const QueryGenerator& generator, const WorkloadConfiguration& config,
    const ParallelWorkloadOptions& options = {});

namespace internal {

/// \brief The RNG stream phase reserved for workload queries (the `b`
/// coordinate of DeriveSeed). Exposed so tests can pin the derivation.
inline constexpr uint64_t kWorkloadQueryPhase = 0x514;

}  // namespace internal

}  // namespace gmark

#endif  // GMARK_WORKLOAD_PARALLEL_WORKLOAD_H_
