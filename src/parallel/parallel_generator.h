// Deterministic parallel version of the Fig. 5 graph generator.
//
// The serial generator threads one RandomEngine through every
// constraint, which serializes the whole run. Here each unit of work —
// one slot-vector chunk, one shuffle, one edge-emission chunk — derives
// its own RNG stream from the config seed and its *logical* coordinates
// (constraint index, phase, chunk index) via SplitMix64 (util/random.h).
// Work units share no mutable state: slot chunks build private vectors,
// emission chunks hand private buffers to a ShardStore, and results are
// replayed in canonical (constraint, chunk) order. The output is
// therefore a pure function of (config, chunk_size) and is bit-for-bit
// identical at any thread count, including 1, and regardless of whether
// the shards lived in memory (ShardedSink) or on disk (SpillSink).
//
// This soundly parallelizes the paper's algorithm because constraint
// draws are statistically independent (§4); chunking a degree
// distribution across node ranges preserves it exactly (i.i.d. draws),
// and the global shuffle of each materialized side runs as its own
// single task between the build and emission phases.
//
// Note the parallel path does NOT reproduce the serial GenerateEdges
// stream for the same seed (the draws are partitioned differently); it
// reproduces *itself* across thread counts, which is the property the
// determinism tests pin down.

#ifndef GMARK_PARALLEL_PARALLEL_GENERATOR_H_
#define GMARK_PARALLEL_PARALLEL_GENERATOR_H_

#include <cstdint>

#include "core/graph_config.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "util/result.h"

namespace gmark {

/// \brief Parallel Fig. 5: generate all edges with
/// options.num_threads workers (0 = hardware concurrency) and stream
/// them into `sink` in canonical order on the calling thread, without
/// ever materializing the full edge set in one vector. Once the exact
/// edge total is known (after the slot-building phase), the shards are
/// kept in memory or spilled to per-shard temp files according to
/// options.spill_dir / options.spill_threshold_bytes; either way the
/// bytes reaching `sink` are identical. (GenerateStats lives in
/// graph/generator.h.)
Status ParallelGenerateToSink(const GraphConfiguration& config,
                              EdgeSink* sink,
                              const GeneratorOptions& options = {},
                              GenerateStats* stats = nullptr);

/// \brief Parallel generation of a fully indexed in-memory graph,
/// shard-native: edges flow from the ShardStore straight into
/// per-predicate CSRs on the same thread pool (Graph::Builder), with no
/// global edge vector and no backward pair vectors. Shards are
/// canonically numbered by constraint, so each predicate's shard ranges
/// are static; the spill options are honored — past the threshold the
/// shards stage on disk and the builder's two passes stream them back,
/// so graphs whose raw edge list exceeds RAM remain indexable. The
/// resulting CSRs are byte-identical at any thread count, spilled or
/// not.
Result<Graph> ParallelGenerateGraph(const GraphConfiguration& config,
                                    const GeneratorOptions& options = {},
                                    GenerateStats* stats = nullptr);

namespace internal {

/// \brief The auto-spill decision: true when options enable spilling
/// (spill_threshold_bytes >= 0) and the exact edge total exceeds the
/// threshold. Exposed for tests.
bool ShouldSpill(const GeneratorOptions& options, int64_t total_edges);

}  // namespace internal

}  // namespace gmark

#endif  // GMARK_PARALLEL_PARALLEL_GENERATOR_H_
