#include "graph/graph.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/use_cases.h"
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
  auto offsets = g.OutOffsets(0);
  auto targets = g.OutTargets(0);
  ASSERT_EQ(offsets.size(), static_cast<size_t>(g.num_nodes()) + 1);
  EXPECT_EQ(targets.size(), g.EdgeCount(0));
  size_t i = 0;
  g.ForEachEdge(0, [&](NodeId src, NodeId trg) {
    EXPECT_GE(i, offsets[src]);
    EXPECT_LT(i, offsets[src + 1]);
    EXPECT_EQ(targets[i], trg);
    ++i;
  });
  EXPECT_EQ(i, targets.size());
  // Backward views cover the same edges.
  EXPECT_EQ(g.InTargets(0).size(), g.EdgeCount(0));
  EXPECT_EQ(g.InOffsets(1).size(), offsets.size());
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
