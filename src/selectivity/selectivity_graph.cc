#include "selectivity/selectivity_graph.h"

#include <algorithm>

namespace gmark {

SelectivityGraph SelectivityGraph::Build(const SchemaGraph* schema_graph,
                                         IntRange path_length) {
  SelectivityGraph g;
  g.schema_graph_ = schema_graph;
  g.path_length_ = path_length;
  const size_t n = schema_graph->node_count();
  g.successors_.resize(n);

  // For each source node, run a layered reachability sweep up to lmax;
  // a target is a successor when reachable at some depth in range.
  // Walks (not simple paths) are intended, matching SamplePath.
  for (SchemaNodeId src = 0; src < n; ++src) {
    std::vector<bool> reachable_now(n, false);
    std::vector<bool> in_range(n, false);
    reachable_now[src] = true;
    for (int depth = 1; depth <= path_length.max; ++depth) {
      std::vector<bool> next(n, false);
      for (SchemaNodeId v = 0; v < n; ++v) {
        if (!reachable_now[v]) continue;
        for (const auto& e : schema_graph->OutEdges(v)) {
          next[e.to] = true;
        }
      }
      if (depth >= path_length.min) {
        for (SchemaNodeId v = 0; v < n; ++v) {
          if (next[v]) in_range[v] = true;
        }
      }
      reachable_now.swap(next);
    }
    for (SchemaNodeId v = 0; v < n; ++v) {
      if (in_range[v]) g.successors_[src].push_back(v);
    }
  }
  return g;
}

bool SelectivityGraph::HasEdge(SchemaNodeId from, SchemaNodeId to) const {
  const auto& succ = successors_[from];
  return std::find(succ.begin(), succ.end(), to) != succ.end();
}

WalkCounts SelectivityGraph::CountChains(QuerySelectivity target,
                                         int max_len) const {
  const size_t n = successors_.size();
  WalkCounts counts(n, max_len);
  for (SchemaNodeId v = 0; v < n; ++v) {
    if (ClassOf(schema_graph_->nodes()[v].triple) == target) {
      counts.at(0, v) = 1.0;
    }
  }
  for (int len = 1; len <= max_len; ++len) {
    for (SchemaNodeId v = 0; v < n; ++v) {
      double total = 0.0;
      for (SchemaNodeId w : successors_[v]) total += counts.at(len - 1, w);
      counts.at(len, v) = std::min(total, WalkCounts::kCap);
    }
  }
  return counts;
}

Result<std::vector<SchemaNodeId>> SelectivityGraph::SampleConjunctChain(
    QuerySelectivity target, int num_conjuncts, RandomEngine* rng) const {
  if (num_conjuncts < 1) {
    return Status::InvalidArgument("a chain needs at least one conjunct");
  }
  return SampleConjunctChain(target, CountChains(target, num_conjuncts),
                             num_conjuncts, rng);
}

Result<std::vector<SchemaNodeId>> SelectivityGraph::SampleConjunctChain(
    QuerySelectivity target, const WalkCounts& chains, int num_conjuncts,
    RandomEngine* rng) const {
  if (num_conjuncts < 1) {
    return Status::InvalidArgument("a chain needs at least one conjunct");
  }
  if (chains.max_len() < num_conjuncts) {
    return Status::InvalidArgument(
        "chain-count table shorter than the conjunct count");
  }

  // Choose the starting identity node, weighted by chain counts.
  const auto& nodes = schema_graph_->nodes();
  std::vector<SchemaNodeId> starts;
  std::vector<double> weights;
  for (SchemaNodeId v = 0; v < nodes.size(); ++v) {
    // Identity-triple nodes — (1,=,1) or (N,=,N) — are the only valid
    // walk origins ("a node with selectivity triple (?,=,?)", §5.2.4).
    if (nodes[v].triple == IdentityTriple(nodes[v].triple.left)) {
      starts.push_back(v);
      weights.push_back(chains.at(num_conjuncts, v));
    }
  }
  size_t pick = rng->WeightedIndex(weights);
  if (pick == weights.size()) {
    return Status::NotFound(
        std::string("no ") + QuerySelectivityName(target) + " chain with " +
        std::to_string(num_conjuncts) + " conjuncts exists in this schema");
  }

  std::vector<SchemaNodeId> walk{starts[pick]};
  SchemaNodeId current = starts[pick];
  for (int remaining = num_conjuncts; remaining > 0; --remaining) {
    const auto& succ = successors_[current];
    std::vector<double> w;
    w.reserve(succ.size());
    for (SchemaNodeId s : succ) w.push_back(chains.at(remaining - 1, s));
    size_t chosen = rng->WeightedIndex(w);
    if (chosen == w.size()) {
      return Status::Internal("conjunct chain sampling dead end");
    }
    current = succ[chosen];
    walk.push_back(current);
  }
  return walk;
}

bool SelectivityGraph::ChainExists(QuerySelectivity target,
                                   int num_conjuncts) const {
  const WalkCounts counts = CountChains(target, num_conjuncts);
  const auto& nodes = schema_graph_->nodes();
  for (SchemaNodeId v = 0; v < nodes.size(); ++v) {
    if (nodes[v].triple == IdentityTriple(nodes[v].triple.left) &&
        counts.at(num_conjuncts, v) > 0.0) {
      return true;
    }
  }
  return false;
}

}  // namespace gmark
