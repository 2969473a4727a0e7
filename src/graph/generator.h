// The gMark graph generation algorithm (Fig. 5 of the paper).
//
// For each eta(T1, T2, a) = (Din, Dout) the generator draws an out-slot
// vector over T1 nodes and an in-slot vector over T2 nodes, shuffles
// both, zips them, and emits min(|vsrc|, |vtrg|) a-labeled edges. This
// is linear in input + output and never backtracks; constraints that
// cannot be met exactly are relaxed (Thm. 3.6 makes exact satisfaction
// NP-complete), while the *types* of the distributions are preserved.

#ifndef GMARK_GRAPH_GENERATOR_H_
#define GMARK_GRAPH_GENERATOR_H_

#include <cstdint>
#include <string>
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

  /// Worker threads for the parallel generator (src/parallel/). 0 means
  /// "use hardware concurrency"; 1 runs the parallel algorithm inline
  /// on the calling thread. Ignored by the serial GenerateEdges path.
  int num_threads = 1;

  /// Nodes (slot building) or edges (emission) per parallel task. The
  /// output of the parallel generator is a function of (seed,
  /// chunk_size) and is independent of num_threads; constraints smaller
  /// than one chunk degenerate to a single task, i.e. the serial path.
  int64_t chunk_size = 1 << 16;

  /// Spill-to-disk control for the parallel generator (src/parallel/
  /// spill_sink.h). When >= 0 and the exact edge total (known after the
  /// slot-building phase) exceeds this many bytes, edge shards are
  /// written to per-shard temp files and streamed back in canonical
  /// order at drain time, so peak edge memory is ~ num_threads *
  /// chunk_size edges instead of the whole graph. 0 means "always
  /// spill"; -1 (default) disables spilling. The emitted edge stream is
  /// byte-identical either way. Ignored by the serial GenerateEdges
  /// path and by ParallelGenerateGraph (an indexed graph needs the full
  /// edge vector resident anyway).
  int64_t spill_threshold_bytes = -1;

  /// Parent directory for spill files; empty means the system temp
  /// directory. Each run creates (and removes) its own subdirectory.
  std::string spill_dir;

  /// Intra-predicate parallelism cap for the shard-native CSR build:
  /// each predicate's edge stream is split into at most this many
  /// contiguous chunk groups (chunked count-scan-scatter; see
  /// graph/graph.h). 0 = auto (2x the worker count; 1 when running
  /// inline on one thread). 1 everywhere reproduces the
  /// historical one-task-per-predicate build — same bytes, group
  /// boundaries never change the output, just no intra-predicate
  /// fan-out (chunked_build_test's max_groups=1 reference).
  int index_max_groups = 0;
};

/// \brief Observability for one generation run (benchmarks, tests, and
/// `gmark_cli --stats`; also what pipebench reports as
/// `parallel.peak_edge_mb`).
struct GenerateStats {
  size_t total_edges = 0;
  /// High-water mark of edge bytes resident in the staging store: the
  /// whole edge set for in-memory paths, ~ the in-flight chunks for the
  /// spill path.
  size_t peak_resident_edge_bytes = 0;
  bool spilled = false;
  /// Phase breakdown for indexed generation (zero when the phase did
  /// not run): node layout, edge generation, per-predicate CSR
  /// indexing.
  double layout_seconds = 0.0;
  double generate_seconds = 0.0;
  double index_seconds = 0.0;
  /// Chunk-group tasks of the CSR build (forward counting sort /
  /// backward transpose), summed over predicates. More forward groups
  /// than predicates means intra-predicate parallelism engaged.
  size_t index_forward_groups = 0;
  size_t index_transpose_groups = 0;

  /// \brief Publish this run into a metric registry (gen.* counters and
  /// gauges; see README "Observability"). Null registry is a no-op.
  void Record(MetricRegistry* metrics) const;
};

/// \brief Run the Fig. 5 algorithm, streaming edges into `sink`.
Status GenerateEdges(const GraphConfiguration& config, EdgeSink* sink,
                     const GeneratorOptions& options = {});

/// \brief Convenience: generate and index a full in-memory graph.
/// Indexing runs through Graph::Builder on an inline executor — the
/// 1-thread special case of the shard-native parallel build.
Result<Graph> GenerateGraph(const GraphConfiguration& config,
                            const GeneratorOptions& options = {},
                            GenerateStats* stats = nullptr);

namespace internal {

/// Local node index within one type; uint32 keeps slot vectors compact
/// (100M-node scalability runs would need 1.6GB with 64-bit slots).
using SlotIndex = uint32_t;

/// \brief Per-constraint decisions shared by the serial and parallel
/// generators: endpoint geometry, which sides materialize slot vectors,
/// and the expected slot counts of implicit-but-specified sides.
struct ConstraintPlan {
  int64_t n_src = 0;
  int64_t n_trg = 0;
  NodeId src_base = 0;
  NodeId trg_base = 0;
  /// A side is implicit when it is non-specified (uniform sampling is
  /// its definition) or Gaussian under the fast path; implicit sides
  /// are sampled per edge instead of materialized.
  bool out_implicit = true;
  bool in_implicit = true;
  /// Expected slot counts of implicit-but-specified sides; -1 when the
  /// side does not constrain the edge count.
  int64_t expected_out_slots = -1;
  int64_t expected_in_slots = -1;

  bool empty() const { return n_src == 0 || n_trg == 0; }
};

/// \brief Compute the plan for one constraint (fails if a materialized
/// side exceeds the SlotIndex range).
Result<ConstraintPlan> PlanConstraint(const EdgeConstraint& c,
                                      const NodeLayout& layout,
                                      const GeneratorOptions& options);

/// \brief Line 8 of Fig. 5: resolve the emitted edge count from the two
/// slot counts (-1 = side does not constrain), falling back to the
/// predicate occurrence constraint when neither side does.
Result<int64_t> ResolveEdgeCount(const EdgeConstraint& c,
                                 const GraphSchema& schema,
                                 const NodeLayout& layout, int64_t out_slots,
                                 int64_t in_slots);

/// \brief Append to `slots` each local index j in [lo, hi) repeated
/// draw(dist) times. The serial path calls it with [0, node_count); the
/// parallel path calls it once per chunk with a chunk-derived RNG.
Status BuildSlotRange(const DistributionSpec& dist, int64_t lo, int64_t hi,
                      int64_t support_max, RandomEngine* rng,
                      std::vector<SlotIndex>* slots);

}  // namespace internal

}  // namespace gmark

#endif  // GMARK_GRAPH_GENERATOR_H_
