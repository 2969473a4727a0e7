#include "graph/stats.h"

#include <cmath>

#include "util/string_util.h"

namespace gmark {

GraphStats ComputeStats(const Graph& graph) {
  GraphStats stats;
  stats.num_nodes = graph.num_nodes();
  stats.num_edges = graph.num_edges();
  const NodeLayout& layout = graph.layout();
  stats.nodes_per_type.resize(layout.type_count());
  for (size_t t = 0; t < layout.type_count(); ++t) {
    stats.nodes_per_type[t] = layout.CountOf(static_cast<TypeId>(t));
  }
  stats.edges_per_predicate.resize(graph.predicate_count());
  for (PredicateId p = 0; p < graph.predicate_count(); ++p) {
    stats.edges_per_predicate[p] = graph.EdgeCount(p);
  }
  stats.density = stats.num_nodes > 0
                      ? static_cast<double>(stats.num_edges) /
                            static_cast<double>(stats.num_nodes)
                      : 0.0;
  return stats;
}

namespace {

DegreeStats SummarizeDegrees(const Graph& graph, PredicateId predicate,
                             TypeId type, bool out_direction) {
  const NodeLayout& layout = graph.layout();
  const NodeId base = layout.OffsetOf(type);
  const int64_t count = layout.CountOf(type);
  DegreeStats stats;
  if (count == 0) return stats;
  double sum = 0.0, sum_sq = 0.0;
  for (int64_t j = 0; j < count; ++j) {
    NodeId v = base + static_cast<NodeId>(j);
    int64_t deg = out_direction
                      ? static_cast<int64_t>(
                            graph.OutNeighbors(predicate, v).size())
                      : static_cast<int64_t>(
                            graph.InNeighbors(predicate, v).size());
    sum += static_cast<double>(deg);
    sum_sq += static_cast<double>(deg) * static_cast<double>(deg);
    stats.max = std::max(stats.max, deg);
    if (deg > 0) ++stats.nonzero_nodes;
  }
  stats.mean = sum / static_cast<double>(count);
  double var = sum_sq / static_cast<double>(count) - stats.mean * stats.mean;
  stats.stddev = var > 0.0 ? std::sqrt(var) : 0.0;
  return stats;
}

}  // namespace

DegreeStats OutDegreeStats(const Graph& graph, PredicateId predicate,
                           TypeId source_type) {
  return SummarizeDegrees(graph, predicate, source_type, /*out=*/true);
}

DegreeStats InDegreeStats(const Graph& graph, PredicateId predicate,
                          TypeId target_type) {
  return SummarizeDegrees(graph, predicate, target_type, /*out=*/false);
}

std::string GraphStats::ToString(const GraphSchema& schema) const {
  std::string out = StrCat("nodes: ", num_nodes, ", edges: ", num_edges,
                           ", density: ", FormatDouble(density), '\n');
  for (size_t t = 0; t < nodes_per_type.size(); ++t) {
    StrAppend(&out, "  type ", schema.TypeName(static_cast<TypeId>(t)), ": ",
              nodes_per_type[t], " nodes\n");
  }
  for (size_t p = 0; p < edges_per_predicate.size(); ++p) {
    StrAppend(&out, "  predicate ",
              schema.PredicateName(static_cast<PredicateId>(p)), ": ",
              edges_per_predicate[p], " edges\n");
  }
  return out;
}

}  // namespace gmark
