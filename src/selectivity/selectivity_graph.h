// The selectivity graph G_sel of paper §5.2.3(c): same nodes as the
// schema graph; an edge (n, n') exists when G_S contains a path from n
// to n' whose length lies within the configured per-conjunct path
// length range [lmin, lmax]. A chain query's conjunct sequence is a walk
// in G_sel from an identity node to a node whose accumulated triple has
// the desired selectivity class.

#ifndef GMARK_SELECTIVITY_SELECTIVITY_GRAPH_H_
#define GMARK_SELECTIVITY_SELECTIVITY_GRAPH_H_

#include <vector>

#include "selectivity/schema_graph.h"

namespace gmark {

/// \brief G_sel with nb_path-weighted walk sampling (§5.2.4).
///
/// G_sel depends only on (schema graph, per-conjunct length range), so
/// ParallelGenerateWorkload builds one instance per workload and shares
/// it with every selectivity-controlled query.
///
/// Thread-safety: after Build returns, all const methods are safe for
/// concurrent callers. CountChains and SampleConjunctChain recompute
/// into locals or read a caller-owned table (no mutable caches) and
/// draw only from the caller-owned RandomEngine; the referenced
/// SchemaGraph is itself read-only (it must outlive this object).
class SelectivityGraph {
 public:
  /// \brief Derive G_sel from G_S for a per-conjunct length range.
  static SelectivityGraph Build(const SchemaGraph* schema_graph,
                                IntRange path_length);

  bool HasEdge(SchemaNodeId from, SchemaNodeId to) const;
  const std::vector<SchemaNodeId>& Successors(SchemaNodeId n) const {
    return successors_[n];
  }
  size_t node_count() const { return successors_.size(); }
  const SchemaGraph& schema_graph() const { return *schema_graph_; }
  IntRange path_length() const { return path_length_; }

  /// \brief Sample a walk of exactly `num_conjuncts` G_sel edges that
  /// starts at some type's identity node and ends at a node whose
  /// accumulated triple belongs to `target`; uniform over such walks
  /// via nb_path dynamic programming. Returns the node sequence
  /// (num_conjuncts + 1 entries). NotFound if no such walk exists.
  Result<std::vector<SchemaNodeId>> SampleConjunctChain(
      QuerySelectivity target, int num_conjuncts, RandomEngine* rng) const;

  /// \brief SampleConjunctChain drawing from `chains`, which must be
  /// CountChains(target, m) for some m >= num_conjuncts: the same
  /// draws, the same walk, without rebuilding the table.
  Result<std::vector<SchemaNodeId>> SampleConjunctChain(
      QuerySelectivity target, const WalkCounts& chains, int num_conjuncts,
      RandomEngine* rng) const;

  /// \brief Walk counts toward target-class end nodes: at(i, v) =
  /// number of G_sel walks of i edges from v to a node whose triple is
  /// in `target` (saturated), for i in [0, max_len].
  WalkCounts CountChains(QuerySelectivity target, int max_len) const;

  /// \brief True if at least one chain of `num_conjuncts` conjuncts with
  /// the target class exists.
  bool ChainExists(QuerySelectivity target, int num_conjuncts) const;

 private:
  const SchemaGraph* schema_graph_ = nullptr;
  IntRange path_length_;
  std::vector<std::vector<SchemaNodeId>> successors_;
};

}  // namespace gmark

#endif  // GMARK_SELECTIVITY_SELECTIVITY_GRAPH_H_
