// The schema graph G_S of paper §5.2.3(a): nodes are pairs of a node
// type and an accumulated selectivity triple; an edge labeled with a
// symbol (predicate or inverse) tracks how the triple evolves when a
// path is extended by that symbol. Plus the distance matrix D
// (§5.2.3(b)) and uniform path sampling inside G_S via nb_path-style
// dynamic programming (§5.2.4).

#ifndef GMARK_SELECTIVITY_SCHEMA_GRAPH_H_
#define GMARK_SELECTIVITY_SCHEMA_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/schema.h"
#include "query/query.h"
#include "selectivity/selectivity_class.h"
#include "util/random.h"
#include "util/result.h"

namespace gmark {

/// \brief Index of a node inside the schema graph.
using SchemaNodeId = uint32_t;

/// \brief A schema-graph node (T, (t1, o, Type(T))).
struct SchemaGraphNode {
  TypeId type = 0;
  SelTriple triple;

  std::string ToString(const GraphSchema& schema) const;
};

/// \brief A schema-graph edge, labeled with the extending symbol.
struct SchemaGraphEdge {
  SchemaNodeId from = 0;
  SchemaNodeId to = 0;
  Symbol symbol;
};

/// \brief An nb_path walk-count table (§5.2.4): at(len, v) is the
/// number of walks of exactly `len` edges from node v into the table's
/// accepting set, saturated at kCap so weighted draws stay finite. Row
/// `len` does not depend on max_len, so one table serves every length
/// up to its max_len. Immutable once its builder has filled it.
class WalkCounts {
 public:
  static constexpr double kCap = 1e12;

  WalkCounts(size_t node_count, int max_len)
      : node_count_(node_count),
        max_len_(max_len),
        counts_(static_cast<size_t>(max_len + 1) * node_count, 0.0) {}

  int max_len() const { return max_len_; }
  double at(int len, SchemaNodeId v) const {
    return counts_[static_cast<size_t>(len) * node_count_ + v];
  }
  double& at(int len, SchemaNodeId v) {
    return counts_[static_cast<size_t>(len) * node_count_ + v];
  }

  /// \brief Walks from v of any length in `range` (clipped to
  /// [0, max_len]), summed shortest first.
  double InRange(SchemaNodeId v, IntRange range) const {
    double total = 0.0;
    for (int len = std::max(range.min, 0);
         len <= std::min(range.max, max_len_); ++len) {
      total += at(len, v);
    }
    return total;
  }

 private:
  size_t node_count_;
  int max_len_;
  std::vector<double> counts_;
};

/// \brief G_S plus its distance matrix and path sampling.
///
/// Thread-safety: after Build returns, every const method is safe to
/// call from any number of threads concurrently. This is by
/// construction, not by locking — Distance, CountPaths, CountWalksTo
/// and SamplePath recompute into locals or read a caller-owned table
/// (no mutable caches), and SamplePath draws only from the caller-owned
/// RandomEngine. The parallel workload generator
/// (workload/parallel_workload.h) relies on this: one SchemaGraph, and
/// one set of WalkCounts built from it per workload, are shared
/// read-only by every query task.
class SchemaGraph {
 public:
  /// \brief Build the reachable part of G_S: starting from the identity
  /// triple of every type, close under symbol extension via the algebra.
  static SchemaGraph Build(const GraphSchema& schema);

  const std::vector<SchemaGraphNode>& nodes() const { return nodes_; }
  size_t node_count() const { return nodes_.size(); }

  /// \brief Outgoing edges of a node.
  std::span<const SchemaGraphEdge> OutEdges(SchemaNodeId n) const {
    return {edges_.data() + out_offsets_[n],
            edges_.data() + out_offsets_[n + 1]};
  }

  /// \brief Node index of (type, identity triple); every type has one.
  SchemaNodeId StartNode(TypeId type) const { return start_nodes_[type]; }

  /// \brief Find a node by content.
  std::optional<SchemaNodeId> FindNode(TypeId type, SelTriple triple) const;

  /// \brief Shortest-path distance in edges; -1 when unreachable.
  /// (The paper's distance matrix D, computed lazily on first use.)
  int Distance(SchemaNodeId from, SchemaNodeId to) const;

  /// \brief Number of paths (walks) of exactly `length` edges from
  /// `from` to `to`, saturated at a large cap to avoid overflow.
  double CountPaths(SchemaNodeId from, SchemaNodeId to, int length) const;

  /// \brief The nb_path DP toward a fixed target: at(len, v) = number
  /// of walks of `len` edges from v to `to`, for len in [0, max_len].
  /// What CountPaths and SamplePath compute per call; a caller that
  /// draws many paths builds it once per target, and sums a length
  /// range of it with WalkCounts::InRange.
  WalkCounts CountWalksTo(SchemaNodeId to, int max_len) const;

  /// \brief Sample, uniformly over all (from -> to) walks whose length
  /// lies within `length`, one walk; returns its symbol sequence.
  ///
  /// This is the nb_path two-step procedure of §5.2.4: lengths are
  /// weighted by their path counts, then the walk is drawn edge by edge
  /// with counts as weights. Fails with NotFound when no such walk
  /// exists.
  Result<PathExpr> SamplePath(SchemaNodeId from, SchemaNodeId to,
                              IntRange length, RandomEngine* rng) const;

  /// \brief SamplePath drawing from `walks_to`, which must be
  /// CountWalksTo(to, m) for some m >= length.max: the same draws, the
  /// same result, without rebuilding the table.
  Result<PathExpr> SamplePath(SchemaNodeId from, SchemaNodeId to,
                              IntRange length, const WalkCounts& walks_to,
                              RandomEngine* rng) const;

  /// \brief Render the graph for debugging / docs.
  std::string ToString(const GraphSchema& schema) const;

 private:
  std::vector<SchemaGraphNode> nodes_;
  std::vector<SchemaGraphEdge> edges_;   // grouped by source node
  std::vector<size_t> out_offsets_;      // node_count + 1
  std::vector<SchemaNodeId> start_nodes_;  // per TypeId
};

}  // namespace gmark

#endif  // GMARK_SELECTIVITY_SCHEMA_GRAPH_H_
