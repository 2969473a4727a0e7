// Edge sinks, options and statistics of the gMark graph generation
// algorithm (Fig. 5 of the paper).
//
// For each eta(T1, T2, a) = (Din, Dout) the generator draws an out-slot
// vector over T1 nodes and an in-slot vector over T2 nodes, shuffles
// both, zips them, and emits min(|vsrc|, |vtrg|) a-labeled edges. This
// is linear in input + output and never backtracks; constraints that
// cannot be met exactly are relaxed (Thm. 3.6 makes exact satisfaction
// NP-complete), while the *types* of the distributions are preserved.
// The one implementation is the chunked generator of
// parallel/parallel_generator.h (ParallelGenerateToSink,
// ParallelGenerateGraph); on one thread it runs inline.

#ifndef GMARK_GRAPH_GENERATOR_H_
#define GMARK_GRAPH_GENERATOR_H_

#include <cstdint>
#include <vector>

#include "core/graph_config.h"
#include "graph/graph.h"
#include "util/result.h"

namespace gmark {

class MetricRegistry;

/// \brief Receives generated edges one at a time; implementations write
/// to memory, disk, or just count.
class EdgeSink {
 public:
  virtual ~EdgeSink() = default;
  virtual void Append(NodeId source, PredicateId predicate, NodeId target) = 0;
  /// \brief Edges appended so far (uniform across output formats).
  virtual size_t count() const = 0;
};

/// \brief Sink that discards edges and counts them (scalability runs).
class CountingSink : public EdgeSink {
 public:
  void Append(NodeId, PredicateId, NodeId) override { ++count_; }
  size_t count() const override { return count_; }

 private:
  size_t count_ = 0;
};

/// \brief Sink that collects edges in memory.
class VectorSink : public EdgeSink {
 public:
  void Append(NodeId source, PredicateId predicate, NodeId target) override {
    edges_.push_back(Edge{source, predicate, target});
  }
  size_t count() const override { return edges_.size(); }
  std::vector<Edge>& edges() { return edges_; }
  const std::vector<Edge>& edges() const { return edges_; }

 private:
  std::vector<Edge> edges_;
};

/// \brief Tuning knobs for the generator.
struct GeneratorOptions {
  /// Paper §4: when a side is Gaussian, skip materializing its slot
  /// vector and sample that side uniformly per edge instead (the
  /// Gaussian's concentration around its mean makes the shuffled vector
  /// statistically indistinguishable from uniform slot assignment).
  /// Ablation: bench/ablation_gaussian_fastpath.
  bool gaussian_fast_path = true;

  /// Worker threads of the generator. 0 means "use hardware
  /// concurrency"; 1 runs every task inline on the calling thread.
  int num_threads = 1;

  /// Nodes (slot building) or edges (emission) per task. The output is
  /// a function of (seed, chunk_size) and is independent of
  /// num_threads; constraints smaller than one chunk run as a single
  /// task.
  int64_t chunk_size = 1 << 16;
};

/// \brief Observability for one generation run (benchmarks, tests, and
/// `gmark_cli --stats`; also what pipebench reports as
/// `parallel.peak_edge_mb`).
struct GenerateStats {
  size_t total_edges = 0;
  /// High-water mark of the bytes held to produce edges: for
  /// ParallelGenerateGraph the slot vectors kept for the CSR build's
  /// replays (4 bytes per kept slot, at most 8 per edge; a sink's
  /// emission windows are not counted); for ParallelGenerateToSink the
  /// largest emission window (~ one chunk per worker).
  size_t peak_resident_edge_bytes = 0;
  /// Phase breakdown for indexed generation (zero when the phase did
  /// not run): node layout; the constraint walk that builds and keeps
  /// the slot vectors (and drains a sink, when given one); the
  /// per-predicate CSR build, which emits every chunk twice.
  double layout_seconds = 0.0;
  double generate_seconds = 0.0;
  double index_seconds = 0.0;
  /// Chunk-group tasks of the CSR build (forward counting sort /
  /// backward transpose; Graph::BuildStats), summed over predicates.
  /// More forward groups than predicates means intra-predicate
  /// parallelism engaged. The cap is 2x num_threads (1 on one thread),
  /// and the build-wide group budget holds the forward total to at most
  /// the cap plus the predicate count.
  size_t index_forward_groups = 0;
  size_t index_transpose_groups = 0;
  /// Graph::IndexBytes() of the built graph: the CSR offsets and
  /// targets of both directions (zero when the build failed).
  size_t index_bytes = 0;

  /// \brief Publish this run into a metric registry (gen.* counters and
  /// gauges; see README "Observability"). Null registry is a no-op.
  void Record(MetricRegistry* metrics) const;
};

}  // namespace gmark

#endif  // GMARK_GRAPH_GENERATOR_H_
