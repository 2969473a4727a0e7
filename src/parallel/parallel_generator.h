// The Fig. 5 graph generator, chunked and deterministic.
//
// Each unit of work — one slot-vector chunk, one shuffle, one
// edge-emission chunk — derives its own RNG stream from the config seed
// and its *logical* coordinates (constraint index, phase, chunk index)
// via SplitMix64 (util/random.h). Work units share no mutable state:
// slot chunks build private vectors, emission chunks build private
// buffers, and results are replayed in canonical (constraint, chunk)
// order. The output is therefore a pure function of (config,
// chunk_size) and is bit-for-bit identical at any thread count,
// including 1 (every task inline), and regardless of whether the shards
// of an indexed build lived in memory (ShardedSink) or on disk
// (SpillSink).
//
// Constraints run one at a time in canonical order: a constraint's slot
// chunks, its shuffles (one task per materialized side) and its
// emission chunks each fan out over the workers, and its slot vectors
// are freed before the next constraint starts. This soundly
// parallelizes the paper's algorithm because constraint draws are
// statistically independent (§4) and chunking a degree distribution
// across node ranges preserves it exactly (i.i.d. draws).

#ifndef GMARK_PARALLEL_PARALLEL_GENERATOR_H_
#define GMARK_PARALLEL_PARALLEL_GENERATOR_H_

#include <cstdint>

#include "core/graph_config.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "util/result.h"

namespace gmark {

/// \brief Fig. 5: generate all edges with options.num_threads workers
/// (0 = hardware concurrency) and stream them into `sink` in canonical
/// order on the calling thread. Emission runs in windows of one chunk
/// per worker; each window is drained into `sink` and freed before the
/// next starts, so resident edge memory stays ~ num_threads *
/// chunk_size edges and the spill options are not needed (they are
/// ignored). (GenerateStats lives in graph/generator.h.)
Status ParallelGenerateToSink(const GraphConfiguration& config,
                              EdgeSink* sink,
                              const GeneratorOptions& options = {},
                              GenerateStats* stats = nullptr);

/// \brief Parallel generation of a fully indexed in-memory graph,
/// shard-native: edges flow from the ShardStore straight into
/// per-predicate CSRs on the same thread pool (Graph::Builder), with no
/// global edge vector and no backward pair vectors. Shards are
/// canonically numbered by constraint, so each predicate's shard ranges
/// are static; the spill options are honored — past the threshold
/// (checked against the expected edge total before generation starts)
/// the shards stage on disk and the builder's two passes stream them
/// back, so graphs whose raw edge list exceeds RAM remain indexable. The
/// resulting CSRs are byte-identical at any thread count, spilled or
/// not.
Result<Graph> ParallelGenerateGraph(const GraphConfiguration& config,
                                    const GeneratorOptions& options = {},
                                    GenerateStats* stats = nullptr);

namespace internal {

/// \brief The auto-spill decision: true when options enable spilling
/// (spill_threshold_bytes >= 0) and `total_edges` edges exceed the
/// threshold. Exposed for tests.
bool ShouldSpill(const GeneratorOptions& options, int64_t total_edges);

}  // namespace internal

}  // namespace gmark

#endif  // GMARK_PARALLEL_PARALLEL_GENERATOR_H_
