#include "selectivity/schema_graph.h"

#include <algorithm>
#include <deque>
#include <map>

#include "util/string_util.h"

namespace gmark {

namespace {

Status CheckPathLength(IntRange length) {
  if (length.min < 0 || length.max < length.min) {
    return Status::InvalidArgument("invalid path length range " +
                                   length.ToString());
  }
  return Status::OK();
}

}  // namespace

std::string SchemaGraphNode::ToString(const GraphSchema& schema) const {
  return "(" + schema.TypeName(type) + ", " + triple.ToString() + ")";
}

SchemaGraph SchemaGraph::Build(const GraphSchema& schema) {
  SchemaGraph g;
  std::map<std::pair<TypeId, uint8_t>, SchemaNodeId> index;
  auto intern = [&](TypeId type, SelTriple triple) -> SchemaNodeId {
    auto key = std::make_pair(type, triple.Encode());
    auto it = index.find(key);
    if (it != index.end()) return it->second;
    SchemaNodeId id = static_cast<SchemaNodeId>(g.nodes_.size());
    g.nodes_.push_back(SchemaGraphNode{type, triple});
    index.emplace(key, id);
    return id;
  };

  // Seed with the identity node of every type (sel_{A,A}(epsilon)).
  g.start_nodes_.resize(schema.type_count());
  std::deque<SchemaNodeId> worklist;
  for (TypeId t = 0; t < schema.type_count(); ++t) {
    SelType category =
        schema.IsFixedType(t) ? SelType::kOne : SelType::kN;
    SchemaNodeId id = intern(t, IdentityTriple(category));
    g.start_nodes_[t] = id;
    worklist.push_back(id);
  }

  // Closure: extend each discovered node by every symbol the schema
  // allows from its type; the triple evolves by composition.
  std::vector<SchemaGraphEdge> raw_edges;
  std::vector<bool> expanded;
  while (!worklist.empty()) {
    SchemaNodeId id = worklist.front();
    worklist.pop_front();
    if (id < expanded.size() && expanded[id]) continue;
    if (expanded.size() < g.nodes_.size()) expanded.resize(g.nodes_.size());
    expanded[id] = true;
    const SchemaGraphNode node = g.nodes_[id];
    for (const EdgeConstraint& c : schema.edge_constraints()) {
      // Forward symbol a: usable when the node's type is the source.
      if (c.source_type == node.type) {
        SelTriple step = SymbolTriple(schema, c, /*inverse=*/false);
        SelTriple next = Compose(node.triple, step);
        SchemaNodeId to = intern(c.target_type, next);
        raw_edges.push_back(
            SchemaGraphEdge{id, to, Symbol::Fwd(c.predicate)});
        if (to >= expanded.size() || !expanded[to]) worklist.push_back(to);
      }
      // Inverse symbol a^-: usable when the node's type is the target.
      if (c.target_type == node.type) {
        SelTriple step = SymbolTriple(schema, c, /*inverse=*/true);
        SelTriple next = Compose(node.triple, step);
        SchemaNodeId to = intern(c.source_type, next);
        raw_edges.push_back(
            SchemaGraphEdge{id, to, Symbol::Inv(c.predicate)});
        if (to >= expanded.size() || !expanded[to]) worklist.push_back(to);
      }
    }
  }

  // Group edges by source (CSR).
  g.out_offsets_.assign(g.nodes_.size() + 1, 0);
  for (const auto& e : raw_edges) ++g.out_offsets_[e.from + 1];
  for (size_t i = 1; i < g.out_offsets_.size(); ++i) {
    g.out_offsets_[i] += g.out_offsets_[i - 1];
  }
  g.edges_.resize(raw_edges.size());
  std::vector<size_t> cursor(g.out_offsets_.begin(),
                             g.out_offsets_.end() - 1);
  for (const auto& e : raw_edges) g.edges_[cursor[e.from]++] = e;
  return g;
}

std::optional<SchemaNodeId> SchemaGraph::FindNode(TypeId type,
                                                  SelTriple triple) const {
  for (SchemaNodeId i = 0; i < nodes_.size(); ++i) {
    if (nodes_[i].type == type && nodes_[i].triple == triple) return i;
  }
  return std::nullopt;
}

int SchemaGraph::Distance(SchemaNodeId from, SchemaNodeId to) const {
  // BFS; the graph is small (|Theta| x #triples), so recomputing per
  // call keeps the class immutable and thread-compatible.
  std::vector<int> dist(nodes_.size(), -1);
  std::deque<SchemaNodeId> queue{from};
  dist[from] = 0;
  while (!queue.empty()) {
    SchemaNodeId v = queue.front();
    queue.pop_front();
    if (v == to) return dist[v];
    for (const auto& e : OutEdges(v)) {
      if (dist[e.to] < 0) {
        dist[e.to] = dist[v] + 1;
        queue.push_back(e.to);
      }
    }
  }
  return dist[to];
}

WalkCounts SchemaGraph::CountWalksTo(SchemaNodeId to, int max_len) const {
  WalkCounts counts(nodes_.size(), max_len);
  counts.at(0, to) = 1.0;
  for (int len = 1; len <= max_len; ++len) {
    for (SchemaNodeId v = 0; v < nodes_.size(); ++v) {
      double total = 0.0;
      for (const auto& e : OutEdges(v)) {
        total += counts.at(len - 1, e.to);
      }
      counts.at(len, v) = std::min(total, WalkCounts::kCap);
    }
  }
  return counts;
}

double SchemaGraph::CountPaths(SchemaNodeId from, SchemaNodeId to,
                               int length) const {
  if (length < 0) return 0.0;
  return CountWalksTo(to, length).at(length, from);
}

Result<PathExpr> SchemaGraph::SamplePath(SchemaNodeId from, SchemaNodeId to,
                                         IntRange length,
                                         RandomEngine* rng) const {
  GMARK_RETURN_NOT_OK(CheckPathLength(length));
  return SamplePath(from, to, length, CountWalksTo(to, length.max), rng);
}

Result<PathExpr> SchemaGraph::SamplePath(SchemaNodeId from, SchemaNodeId to,
                                         IntRange length,
                                         const WalkCounts& walks_to,
                                         RandomEngine* rng) const {
  GMARK_RETURN_NOT_OK(CheckPathLength(length));
  if (walks_to.max_len() < length.max) {
    return Status::InvalidArgument(
        "walk-count table shorter than the path length range " +
        length.ToString());
  }
  // Step 1: draw the length, weighted by the number of walks.
  std::vector<double> length_weights;
  for (int len = length.min; len <= length.max; ++len) {
    length_weights.push_back(walks_to.at(len, from));
  }
  size_t pick = rng->WeightedIndex(length_weights);
  if (pick == length_weights.size()) {
    return Status::NotFound("no path of length " + length.ToString() +
                            " between the requested schema-graph nodes");
  }
  int len = length.min + static_cast<int>(pick);

  // Step 2: walk edge by edge, weighting each step by the number of
  // completions (the nb_path draw of §5.2.4).
  PathExpr path;
  SchemaNodeId current = from;
  for (int remaining = len; remaining > 0; --remaining) {
    auto edges = OutEdges(current);
    std::vector<double> weights;
    weights.reserve(edges.size());
    for (const auto& e : edges) {
      weights.push_back(walks_to.at(remaining - 1, e.to));
    }
    size_t chosen = rng->WeightedIndex(weights);
    if (chosen == weights.size()) {
      return Status::Internal("path sampling dead end (count table bug)");
    }
    path.push_back(edges[chosen].symbol);
    current = edges[chosen].to;
  }
  if (current != to) {
    return Status::Internal("path sampling ended at the wrong node");
  }
  return path;
}

std::string SchemaGraph::ToString(const GraphSchema& schema) const {
  std::string out;
  for (SchemaNodeId v = 0; v < nodes_.size(); ++v) {
    StrAppend(&out, v, ": ", nodes_[v].ToString(schema), '\n');
    for (const auto& e : OutEdges(v)) {
      StrAppend(&out, "    --", schema.PredicateName(e.symbol.predicate),
                e.symbol.inverse ? "^-" : "", "--> ", e.to, ": ",
                nodes_[e.to].ToString(schema), '\n');
    }
  }
  return out;
}

}  // namespace gmark
