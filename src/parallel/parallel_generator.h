// The Fig. 5 graph generator, chunked and deterministic.
//
// Each unit of work — one slot-vector chunk, one shuffle, one
// edge-emission chunk — derives its own RNG stream from the config seed
// and its *logical* coordinates (constraint index, phase, chunk index)
// via SplitMix64 (util/random.h). Work units share no mutable state:
// slot chunks build private vectors, emission chunks write private
// buffers, and results are consumed in canonical (constraint, chunk)
// order. The output is therefore a pure function of (config,
// chunk_size) and is bit-for-bit identical at any thread count,
// including 1 (every task inline).
//
// Constraints run one at a time in canonical order: a constraint's slot
// chunks, its shuffles (one task per materialized side) and its
// emission chunks each fan out over the workers. This soundly
// parallelizes the paper's algorithm because constraint draws are
// statistically independent (§4) and chunking a degree distribution
// across node ranges preserves it exactly (i.i.d. draws).
//
// An emission chunk is a pure function of its constraint's shuffled
// slot vectors and its (constraint, emit, chunk) stream, so the edges
// are never staged: the sink path drains each window of chunks and
// frees it, and the indexed path keeps the slot vectors (4 bytes a
// slot) and re-emits each chunk whenever the CSR build replays it.

#ifndef GMARK_PARALLEL_PARALLEL_GENERATOR_H_
#define GMARK_PARALLEL_PARALLEL_GENERATOR_H_

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
/// chunk_size edges. `stats`, when given, receives the edge count, the
/// largest window's bytes and the layout and generate times, and is
/// recorded into GlobalMetrics() as ParallelGenerateGraph records it.
/// (GenerateStats lives in graph/generator.h.)
Status ParallelGenerateToSink(const GraphConfiguration& config,
                              EdgeSink* sink,
                              const GeneratorOptions& options = {},
                              GenerateStats* stats = nullptr);

/// \brief Parallel generation of a fully indexed in-memory graph,
/// without staging its edges. The walk keeps each constraint's shuffled
/// slot vectors, trimmed to its edge count (at most 8 bytes per edge);
/// each predicate's stream re-emits its (constraint, chunk) pairs from
/// them whenever Graph::Build replays a chunk, and frees them once
/// the predicate's forward CSR is built. Peak memory is those slots
/// plus the CSRs and the build's group histograms. The CSRs are
/// byte-identical at any thread count. A layout of 2^32 or more nodes
/// fails with OutOfRange (Graph::CheckNodeLimit) before any slot is
/// drawn or any edge reaches `sink`.
///
/// When `sink` is non-null, every edge is also streamed into it during
/// the walk, in canonical order and through the same windows as
/// ParallelGenerateToSink, so it receives exactly the bytes that call
/// would write: one generation yields both the file and the graph.
Result<Graph> ParallelGenerateGraph(const GraphConfiguration& config,
                                    const GeneratorOptions& options = {},
                                    GenerateStats* stats = nullptr,
                                    EdgeSink* sink = nullptr);

}  // namespace gmark

#endif  // GMARK_PARALLEL_PARALLEL_GENERATOR_H_
