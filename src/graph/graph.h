// In-memory directed edge-labeled graph: the substrate that holds
// generated instances for query evaluation. Nodes are dense ids laid
// out contiguously by type (NodeLayout); adjacency is CSR per predicate,
// forward and backward, so regular path queries can traverse both a and
// a^- in O(1) per neighbor.
//
// Memory model. The graph is a per-predicate partition of CSR indexes
// and nothing else: there is no global edge list, and construction
// never materializes one. A predicate's forward CSR spans only its
// source range and its backward CSR only its target range (the
// endpoint type ranges of the schema, passed as StreamSpec hints), so
// each direction holds `range + 1` uint32_t offsets rather than one
// per node of the layout, plus one uint32_t node id per edge. A node
// outside the range has an empty span. uint32_t offsets cap a
// predicate at 2^32 - 1 edges and uint32_t targets cap the layout at
// 2^32 - 1 nodes; a larger build fails with OutOfRange (CheckEdgeLimit,
// CheckNodeLimit), never wraps, and the node limit is checked before
// anything is allocated.
//
// Each predicate's forward CSR is built by a chunked two-pass counting
// sort over a replayable edge stream: the stream's fixed sub-chunks
// are grouped into contiguous chunk groups, each group counts degrees
// into its own private histogram, an exclusive scan across groups
// rewrites every histogram in place into that group's per-node scatter
// cursors (and fills the offsets), and each group then scatters its
// edges into its disjoint bucket slices — fully lock-free, because no
// two groups ever touch the same target index. The backward CSR is
// derived from the finished forward CSR by the same count-scan-scatter
// routine run over its node ranges (a transpose), so the build never
// holds (target, source) pair vectors either. The streams are
// re-emitted, not staged: the generator (ParallelGenerateGraph) keeps
// each constraint's shuffled slot vectors, 4 bytes a slot, and replays
// a chunk by emitting it again. Peak memory during a generated build
// is therefore the resident slots (released once the forward scatter
// is done, before the transpose allocates) plus the CSRs and the group
// histograms: 8 bytes per node of the source range per forward group,
// 4 per node of the target range per transpose group.
//
// Group budget. The histograms, not the CSR, set the build's peak, so
// groups are rationed build-wide. The per-predicate cap is 2x the
// executor's workers, or 1 on an inline executor (serial chunking only
// adds scan passes). One group is worth the build's total edges over
// the cap (never under 4096 edges), and a predicate gets one group per
// worth it holds, up to the cap. A predicate below its share is one
// group; a skewed one still fans out; every predicate still runs
// concurrently in every phase.
//
// Determinism. Group boundaries never change the output: within one
// bucket, chunk-group order concatenates back to exactly the stream
// order (the same stability argument as the serial counting sort), so
// the CSRs are byte-identical at any thread count and any group count —
// including one group per predicate, which is precisely the historical
// per-predicate-task build. One consequence of the transpose: within
// one backward adjacency list, sources appear in forward-CSR order
// (ascending source, stream order per source), not in raw stream order
// as the historical pair-scatter produced — the neighbor *sets* are
// identical, and the order is deterministic at any thread count.

#ifndef GMARK_GRAPH_GRAPH_H_
#define GMARK_GRAPH_GRAPH_H_

#include <cstdint>
#include <functional>
#include <span>
#include <utility>
#include <vector>

#include "core/graph_config.h"
#include "util/result.h"

namespace gmark {

class Executor;  // parallel/executor.h

/// \brief One labeled edge (source, predicate, target).
struct Edge {
  NodeId source;
  PredicateId predicate;
  NodeId target;

  bool operator==(const Edge&) const = default;
};

/// \brief Immutable graph instance with per-predicate CSR indexes.
class Graph {
 public:
  /// \brief Receives contiguous blocks of an edge stream.
  using EdgeBlockVisitor = std::function<Status(std::span<const Edge>)>;

  /// \brief A chunk-addressable replayable stream: invoking it replays
  /// the sub-chunks [chunk_begin, chunk_end) of one predicate's edge
  /// stream, in chunk order, through the visitor. Concatenating every
  /// chunk in order yields the canonical stream. The build replays
  /// every chunk twice (degree-count pass, then scatter pass), so any
  /// chunk range must yield identical edges across passes.
  using ChunkedEdgeStream = std::function<Status(
      size_t chunk_begin, size_t chunk_end, const EdgeBlockVisitor&)>;

  /// \brief One predicate's chunked edge stream plus its metadata.
  struct StreamSpec {
    ChunkedEdgeStream stream;
    /// Edge count of each sub-chunk; its size is the chunk count, and
    /// no chunks means empty adjacency. Chunk groups are balanced by
    /// these counts, which keeps a skewed predicate's groups even.
    std::vector<size_t> chunk_edges;
    /// Node-range hints: every source in [source_begin, source_end),
    /// every target in [target_begin, target_end). The forward CSR's
    /// offsets and the count histograms span the source range, the
    /// backward ones the target range. A hint past the layout or with
    /// begin > end fails the build before any stream is replayed; an
    /// edge outside its declared range fails it too.
    NodeId source_begin = 0;
    NodeId source_end = 0;
    NodeId target_begin = 0;
    NodeId target_end = 0;
    /// Called once the stream has been consumed for the last time —
    /// the hook that lets the generator free a predicate's slot
    /// vectors as soon as its forward CSR is built.
    std::function<void()> release;
  };

  /// \brief Per-build observability (benchmarks and `--stats`).
  struct BuildStats {
    /// Chunk-group tasks of the forward counting sort / the backward
    /// transpose, summed over predicates. forward_groups above the
    /// predicate count means intra-predicate parallelism engaged; the
    /// group budget holds it to at most the cap plus the predicate
    /// count.
    size_t forward_groups = 0;
    size_t transpose_groups = 0;
  };

  /// \brief Streaming per-predicate CSR construction: predicate p is
  /// `streams[p]`. Each stream is split into contiguous chunk groups
  /// that run as independent tasks on `executor`: chunked counting sort
  /// for the forward CSR, then a chunked counting transpose for the
  /// backward CSR — no pair vectors, no global edge list, no locks
  /// (groups write disjoint bucket slices). Both run the same barrier
  /// phases (count, scan, scatter), each submitting every predicate's
  /// groups before one wait, so the build parallelizes across
  /// predicates AND within one predicate; with an inline (1-thread)
  /// executor the same code is the serial path, byte-identical output
  /// either way. Streaming an edge whose predicate is not p, or whose
  /// endpoints fall outside the layout, fails the build. A layout over
  /// CheckNodeLimit or a bad hint fails with OutOfRange before anything
  /// is allocated or any stream is replayed.
  static Result<Graph> Build(NodeLayout layout,
                             std::vector<StreamSpec> streams,
                             Executor* executor,
                             BuildStats* stats = nullptr);

  /// \brief Build from a node layout and an edge list. Edges referencing
  /// nodes outside the layout or unknown predicates are rejected. This
  /// is the stream build over per-predicate runs of `edges` with an
  /// inline executor (the 1-thread special case); each stream's
  /// node-range hints are its predicate's min/max source and target.
  static Result<Graph> Build(NodeLayout layout, size_t predicate_count,
                             std::vector<Edge> edges);

  int64_t num_nodes() const { return layout_.total_nodes(); }
  size_t num_edges() const { return num_edges_; }
  size_t predicate_count() const { return predicate_count_; }
  const NodeLayout& layout() const { return layout_; }

  TypeId TypeOf(NodeId node) const { return layout_.TypeOf(node); }

  /// \brief Targets of a-labeled edges out of `node` (empty outside
  /// the predicate's source range). Node ids are stored as uint32_t:
  /// a built layout never exceeds CheckNodeLimit.
  std::span<const uint32_t> OutNeighbors(PredicateId a, NodeId node) const {
    return Neighbors(forward_[a], node);
  }

  /// \brief Sources of a-labeled edges into `node` (i.e. a^- neighbors;
  /// empty outside the predicate's target range).
  std::span<const uint32_t> InNeighbors(PredicateId a, NodeId node) const {
    return Neighbors(backward_[a], node);
  }

  /// \brief Number of a-labeled edges.
  size_t EdgeCount(PredicateId a) const { return forward_[a].targets.size(); }

  /// \brief Zero-copy scan of every a-labeled edge in forward-CSR order:
  /// fn(source, target) per edge, no materialized pair vector. This is
  /// the base-relation scan engines and writers use.
  template <typename Fn>
  void ForEachEdge(PredicateId a, Fn&& fn) const {
    const Csr& csr = forward_[a];
    for (NodeId v = 0; v < csr.range; ++v) {
      for (uint32_t i = csr.offsets[v]; i < csr.offsets[v + 1]; ++i) {
        fn(csr.begin + v, NodeId{csr.targets[i]});
      }
    }
  }

  /// \brief Bytes held by the CSR indexes: offsets and targets of both
  /// directions, over every predicate.
  size_t IndexBytes() const;

  /// \brief OutOfRange unless `edges` fits a uint32_t offset: the
  /// per-predicate edge limit of the CSR.
  static Status CheckEdgeLimit(uint64_t edges);

  /// \brief OutOfRange unless every id of a `nodes`-node layout fits a
  /// uint32_t target: the node limit of the CSR. Every build checks it
  /// before it allocates anything.
  static Status CheckNodeLimit(int64_t nodes);

 private:
  /// One direction of one predicate: adjacency of the nodes
  /// [begin, begin + range), offsets indexed by `node - begin`.
  struct Csr {
    NodeId begin = 0;
    NodeId range = 0;
    std::vector<uint32_t> offsets;  // range + 1 entries, none if empty.
    std::vector<uint32_t> targets;  // Global node ids.
  };

  static std::span<const uint32_t> Neighbors(const Csr& csr, NodeId node) {
    // Unsigned: a node below `begin` wraps past `range` too.
    const NodeId v = node - csr.begin;
    if (v >= csr.range) return {};
    return {csr.targets.data() + csr.offsets[v],
            csr.targets.data() + csr.offsets[v + 1]};
  }

  NodeLayout layout_;
  size_t predicate_count_ = 0;
  size_t num_edges_ = 0;
  std::vector<Csr> forward_;
  std::vector<Csr> backward_;
};

}  // namespace gmark

#endif  // GMARK_GRAPH_GRAPH_H_
