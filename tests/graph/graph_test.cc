#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/use_cases.h"
#include "csr_spans.h"
#include "graph/generator.h"
#include "parallel/executor.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

NodeLayout TinyLayout() {
  GraphConfiguration config;
  config.num_nodes = 6;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(6)).ok());
  return NodeLayout::Create(config).ValueOrDie();
}

std::vector<std::pair<NodeId, NodeId>> CollectEdges(const Graph& g,
                                                    PredicateId p) {
  std::vector<std::pair<NodeId, NodeId>> out;
  g.ForEachEdge(p, [&out](NodeId s, NodeId t) { out.emplace_back(s, t); });
  return out;
}

TEST(GraphTest, BuildsAdjacencyBothDirections) {
  std::vector<Edge> edges{{0, 0, 1}, {0, 0, 2}, {1, 0, 2}, {3, 1, 0}};
  Graph g = Graph::Build(TinyLayout(), 2, edges).ValueOrDie();
  EXPECT_EQ(g.num_nodes(), 6);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_EQ(g.EdgeCount(0), 3u);
  EXPECT_EQ(g.EdgeCount(1), 1u);

  auto out0 = g.OutNeighbors(0, 0);
  EXPECT_EQ(std::vector<NodeId>(out0.begin(), out0.end()),
            (std::vector<NodeId>{1, 2}));
  auto in2 = g.InNeighbors(0, 2);
  std::vector<NodeId> in2v(in2.begin(), in2.end());
  std::sort(in2v.begin(), in2v.end());
  EXPECT_EQ(in2v, (std::vector<NodeId>{0, 1}));
  EXPECT_TRUE(g.OutNeighbors(1, 2).empty());
  auto in0p1 = g.InNeighbors(1, 0);
  EXPECT_EQ(std::vector<NodeId>(in0p1.begin(), in0p1.end()),
            (std::vector<NodeId>{3}));
}

TEST(GraphTest, ForEachEdgeRoundTrips) {
  std::vector<Edge> edges{{0, 0, 1}, {2, 0, 3}, {4, 0, 5}};
  Graph g = Graph::Build(TinyLayout(), 1, edges).ValueOrDie();
  auto pairs = CollectEdges(g, 0);
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (std::pair<NodeId, NodeId>{0, 1}));
  EXPECT_EQ(pairs[2], (std::pair<NodeId, NodeId>{4, 5}));
}

TEST(GraphTest, CsrSpanViewsMatchForEachEdge) {
  std::vector<Edge> edges{{0, 0, 1}, {0, 0, 2}, {1, 0, 2}, {3, 1, 0}};
  Graph g = Graph::Build(TinyLayout(), 2, edges).ValueOrDie();
  for (PredicateId p = 0; p < 2; ++p) {
    // ForEachEdge walks the forward spans of [0, num_nodes) in order.
    std::vector<std::pair<NodeId, NodeId>> walked, reversed;
    for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
      for (NodeId w : g.OutNeighbors(p, v)) walked.emplace_back(v, w);
      for (NodeId u : g.InNeighbors(p, v)) reversed.emplace_back(u, v);
    }
    EXPECT_EQ(walked, CollectEdges(g, p)) << "predicate " << p;
    EXPECT_EQ(walked.size(), g.EdgeCount(p)) << "predicate " << p;
    // Backward spans cover the same edges.
    std::sort(walked.begin(), walked.end());
    std::sort(reversed.begin(), reversed.end());
    EXPECT_EQ(reversed, walked) << "predicate " << p;
  }
}

/// Types "a" = nodes 0..2 and "b" = nodes 3..6.
NodeLayout TwoTypeLayout() {
  GraphConfiguration config;
  config.num_nodes = 7;
  EXPECT_TRUE(config.schema.AddType("a", OccurrenceConstraint::Fixed(3)).ok());
  EXPECT_TRUE(config.schema.AddType("b", OccurrenceConstraint::Fixed(4)).ok());
  return NodeLayout::Create(config).ValueOrDie();
}

TEST(GraphTest, NodesOutsideAPredicatesRangeHaveEmptySpans) {
  // Predicate 0 runs from sources 3..5 to targets 0..2; predicate 1 has
  // no edges, so it is never registered.
  std::vector<Edge> edges{{3, 0, 1}, {5, 0, 0}, {5, 0, 2}};
  Graph g = Graph::Build(TwoTypeLayout(), 2, edges).ValueOrDie();
  const NodeId last = static_cast<NodeId>(g.num_nodes()) - 1;
  EXPECT_TRUE(g.OutNeighbors(0, 0).empty());     // Below the range.
  EXPECT_TRUE(g.OutNeighbors(0, 2).empty());     // Just below it.
  EXPECT_TRUE(g.OutNeighbors(0, 4).empty());     // Inside, no edges.
  EXPECT_TRUE(g.OutNeighbors(0, last).empty());  // Above it.
  EXPECT_TRUE(g.InNeighbors(0, 3).empty());      // Just above it.
  EXPECT_TRUE(g.InNeighbors(0, last).empty());
  EXPECT_EQ(SpanVec(g.OutNeighbors(0, 5)), (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(SpanVec(g.InNeighbors(0, 0)), (std::vector<NodeId>{5}));
  for (NodeId v = 0; v <= last; ++v) {
    EXPECT_TRUE(g.OutNeighbors(1, v).empty()) << "node " << v;
    EXPECT_TRUE(g.InNeighbors(1, v).empty()) << "node " << v;
  }
  EXPECT_EQ(g.EdgeCount(1), 0u);
  EXPECT_TRUE(CollectEdges(g, 1).empty());
}

TEST(GraphTest, ForEachEdgeReportsGlobalSourceIds) {
  std::vector<Edge> edges{{3, 0, 1}, {5, 0, 0}, {5, 0, 2}};
  Graph g = Graph::Build(TwoTypeLayout(), 1, edges).ValueOrDie();
  EXPECT_EQ(CollectEdges(g, 0), (std::vector<std::pair<NodeId, NodeId>>{
                                    {3, 1}, {5, 0}, {5, 2}}));
}

TEST(GraphTest, IndexBytesCountsOnlyTheEndpointRanges) {
  // Sources 3..5 and targets 0..2: three nodes a side, so each
  // direction holds four uint32_t offsets and three uint32_t targets.
  std::vector<Edge> edges{{3, 0, 1}, {5, 0, 0}, {5, 0, 2}};
  Graph g = Graph::Build(TwoTypeLayout(), 2, edges).ValueOrDie();
  EXPECT_EQ(g.IndexBytes(),
            2 * (4 * sizeof(uint32_t) + 3 * sizeof(uint32_t)));
}

/// The stream build over `edges` with node-range hints [0, n): every
/// CSR spans the whole layout.
Graph WholeLayoutBuild(const NodeLayout& layout, size_t predicate_count,
                       const std::vector<Edge>& edges) {
  std::vector<std::vector<Edge>> per_pred(predicate_count);
  for (const Edge& e : edges) per_pred[e.predicate].push_back(e);
  const auto n = static_cast<NodeId>(layout.total_nodes());
  std::vector<Graph::StreamSpec> streams(predicate_count);
  for (PredicateId p = 0; p < predicate_count; ++p) {
    if (per_pred[p].empty()) continue;
    Graph::StreamSpec& spec = streams[p];
    spec.chunk_edges = {per_pred[p].size()};
    spec.source_end = spec.target_end = n;
    spec.stream = [&per_pred, p](size_t, size_t,
                                 const Graph::EdgeBlockVisitor& visit) {
      return visit(per_pred[p]);
    };
  }
  Executor inline_executor(1);
  return Graph::Build(NodeLayout(layout), std::move(streams),
                      &inline_executor)
      .ValueOrDie();
}

TEST(GraphTest, TightHintsMatchAWholeLayoutBuild) {
  const GraphConfiguration config = MakeBibConfig(2000, 3);
  VectorSink stream;
  ASSERT_TRUE(ParallelGenerateToSink(config, &stream).ok());
  // Type-range hints (the generator), min/max hints (the edge-list
  // build) and no hints must give the same adjacency.
  Graph typed = ParallelGenerateGraph(config).ValueOrDie();
  Graph tight = Graph::Build(NodeLayout(typed.layout()),
                             typed.predicate_count(), stream.edges())
                    .ValueOrDie();
  Graph whole = WholeLayoutBuild(typed.layout(), typed.predicate_count(),
                                 stream.edges());
  ExpectSameAdjacency(whole, typed, "type-range hints");
  ExpectSameAdjacency(whole, tight, "min/max hints");
  EXPECT_LT(typed.IndexBytes(), whole.IndexBytes());
  EXPECT_LE(tight.IndexBytes(), typed.IndexBytes());
}

TEST(GraphTest, EdgeLimitIsTheUint32OffsetSpace) {
  // uint32_t offsets hold at most 2^32 - 1 edges per predicate; the
  // build's scan phases fail with this Status rather than wrap.
  EXPECT_TRUE(Graph::CheckEdgeLimit(0).ok());
  EXPECT_TRUE(Graph::CheckEdgeLimit(UINT32_MAX).ok());
  const Status over = Graph::CheckEdgeLimit(uint64_t{UINT32_MAX} + 1);
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(Graph::CheckEdgeLimit(UINT64_MAX).ok());
}

TEST(GraphTest, NodeLimitIsTheUint32TargetSpace) {
  EXPECT_TRUE(Graph::CheckNodeLimit(1).ok());
  EXPECT_TRUE(Graph::CheckNodeLimit(int64_t{UINT32_MAX}).ok());
  const Status over = Graph::CheckNodeLimit(int64_t{UINT32_MAX} + 1);
  EXPECT_FALSE(over.ok());
  EXPECT_EQ(over.code(), StatusCode::kOutOfRange);
}

constexpr int64_t k2To32 = int64_t{1} << 32;

/// Two 2-node types around 2^32 others: 2^32 + 4 nodes, more than a
/// uint32_t target can name.
GraphConfiguration OverLimitConfig() {
  GraphConfiguration config;
  config.num_nodes = 1;
  GraphSchema& s = config.schema;
  EXPECT_TRUE(s.AddType("a", OccurrenceConstraint::Fixed(2)).ok());
  EXPECT_TRUE(s.AddType("many", OccurrenceConstraint::Fixed(k2To32)).ok());
  EXPECT_TRUE(s.AddType("b", OccurrenceConstraint::Fixed(2)).ok());
  EXPECT_TRUE(s.AddPredicate("p").ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName("a", "p", "b",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(1, 1))
                  .ok());
  return config;
}

TEST(GraphTest, OverLimitLayoutFailsBeforeAnyReplay) {
  // The stream's hints are two nodes wide, so a build that skipped the
  // node check would allocate almost nothing and silently truncate the
  // target 2^32 + 2 to 2.
  const NodeLayout layout =
      NodeLayout::Create(OverLimitConfig()).ValueOrDie();
  const NodeId far = static_cast<NodeId>(k2To32) + 2;
  ASSERT_EQ(layout.OffsetOf(2), far);
  std::vector<Edge> edges{{0, 0, far}};
  bool replayed = false;
  std::vector<Graph::StreamSpec> streams(1);
  Graph::StreamSpec& spec = streams[0];
  spec.chunk_edges = {1};
  spec.source_begin = 0;
  spec.source_end = 1;
  spec.target_begin = far;
  spec.target_end = far + 1;
  spec.stream = [&](size_t, size_t, const Graph::EdgeBlockVisitor& visit) {
    replayed = true;
    return visit(edges);
  };
  Executor inline_executor(1);
  Result<Graph> built =
      Graph::Build(NodeLayout(layout), std::move(streams), &inline_executor);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kOutOfRange);
  EXPECT_FALSE(replayed);

  Result<Graph> from_list = Graph::Build(NodeLayout(layout), 1, edges);
  ASSERT_FALSE(from_list.ok());
  EXPECT_EQ(from_list.status().code(), StatusCode::kOutOfRange);
}

TEST(GraphTest, OverLimitGenerationFailsBeforeAnyEdge) {
  // Only the two small types carry edges, so the walk itself would be
  // tiny: the sink staying empty shows the check runs before it.
  VectorSink sink;
  Result<Graph> g =
      ParallelGenerateGraph(OverLimitConfig(), {}, nullptr, &sink);
  ASSERT_FALSE(g.ok());
  EXPECT_EQ(g.status().code(), StatusCode::kOutOfRange);
  EXPECT_TRUE(sink.edges().empty());
}

TEST(GraphTest, RejectsOutOfRangeNodes) {
  std::vector<Edge> edges{{0, 0, 99}};
  EXPECT_FALSE(Graph::Build(TinyLayout(), 1, edges).ok());
}

TEST(GraphTest, RejectsOutOfRangePredicate) {
  std::vector<Edge> edges{{0, 5, 1}};
  EXPECT_FALSE(Graph::Build(TinyLayout(), 1, edges).ok());
}

TEST(GraphTest, ForwardBackwardConsistencyOnGeneratedGraph) {
  Graph g = ParallelGenerateGraph(MakeBibConfig(2000, 3)).ValueOrDie();
  // Every forward edge must appear in the backward index and vice versa.
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    size_t forward_total = 0, backward_total = 0;
    for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
      forward_total += g.OutNeighbors(p, v).size();
      backward_total += g.InNeighbors(p, v).size();
      for (NodeId w : g.OutNeighbors(p, v)) {
        auto in = g.InNeighbors(p, w);
        EXPECT_NE(std::find(in.begin(), in.end(), v), in.end());
      }
    }
    EXPECT_EQ(forward_total, backward_total);
    EXPECT_EQ(forward_total, g.EdgeCount(p));
  }
}

TEST(GraphTest, TypeOfUsesLayout) {
  Graph g = ParallelGenerateGraph(MakeBibConfig(1000, 3)).ValueOrDie();
  const NodeLayout& layout = g.layout();
  TypeId paper = 1;
  NodeId first_paper = layout.OffsetOf(paper);
  EXPECT_EQ(g.TypeOf(first_paper), paper);
}

}  // namespace
}  // namespace gmark
