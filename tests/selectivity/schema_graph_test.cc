#include "selectivity/schema_graph.h"

#include <gtest/gtest.h>

#include <set>

#include "core/use_cases.h"

namespace gmark {
namespace {

// The Example 3.3 / Fig. 8 schema (see selectivity_class_test.cc).
GraphSchema Example33Schema() {
  GraphSchema schema;
  EXPECT_TRUE(
      schema.AddType("T1", OccurrenceConstraint::Proportion(0.6)).ok());
  EXPECT_TRUE(
      schema.AddType("T2", OccurrenceConstraint::Proportion(0.2)).ok());
  EXPECT_TRUE(schema.AddType("T3", OccurrenceConstraint::Fixed(1)).ok());
  EXPECT_TRUE(schema.AddPredicate("a").ok());
  EXPECT_TRUE(schema.AddPredicate("b").ok());
  EXPECT_TRUE(schema
                  .AddEdgeConstraintByName(
                      "T1", "a", "T1", DistributionSpec::Gaussian(2, 1),
                      DistributionSpec::Zipfian(2.5))
                  .ok());
  EXPECT_TRUE(schema
                  .AddEdgeConstraintByName(
                      "T1", "b", "T2", DistributionSpec::Uniform(1, 2),
                      DistributionSpec::Gaussian(1, 1))
                  .ok());
  EXPECT_TRUE(schema
                  .AddEdgeConstraintByName(
                      "T2", "b", "T2", DistributionSpec::Gaussian(1, 1),
                      DistributionSpec::NonSpecified())
                  .ok());
  EXPECT_TRUE(schema
                  .AddEdgeConstraintByName(
                      "T2", "b", "T3", DistributionSpec::NonSpecified(),
                      DistributionSpec::Uniform(1, 2))
                  .ok());
  return schema;
}

TEST(SchemaGraphTest, StartNodesCarryIdentityTriples) {
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  for (TypeId t = 0; t < schema.type_count(); ++t) {
    const SchemaGraphNode& n = g.nodes()[g.StartNode(t)];
    EXPECT_EQ(n.type, t);
    EXPECT_EQ(n.triple.op, SelOp::kEq);
    EXPECT_EQ(n.triple.left, n.triple.right);
    EXPECT_EQ(n.triple.left,
              schema.IsFixedType(t) ? SelType::kOne : SelType::kN);
  }
}

TEST(SchemaGraphTest, Figure8NodesExist) {
  // Fig. 8 shows, among others, (T1,(N,=,N)), (T1,(N,<,N)),
  // (T1,(N,<>,N)), (T2,(N,=,N)), (T3,(N,>,1)), (T2,(N,x,N)).
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  TypeId t1 = 0, t2 = 1, t3 = 2;
  EXPECT_TRUE(
      g.FindNode(t1, {SelType::kN, SelOp::kEq, SelType::kN}).has_value());
  EXPECT_TRUE(
      g.FindNode(t1, {SelType::kN, SelOp::kLess, SelType::kN}).has_value());
  EXPECT_TRUE(g.FindNode(t1, {SelType::kN, SelOp::kDiamond, SelType::kN})
                  .has_value());
  EXPECT_TRUE(
      g.FindNode(t2, {SelType::kN, SelOp::kEq, SelType::kN}).has_value());
  EXPECT_TRUE(g.FindNode(t3, {SelType::kN, SelOp::kGreater, SelType::kOne})
                  .has_value());
  EXPECT_TRUE(
      g.FindNode(t2, {SelType::kN, SelOp::kCross, SelType::kN}).has_value());
}

TEST(SchemaGraphTest, Figure8EdgeExample) {
  // "there is an a-labeled edge between (T1,(N,=,N)) and (T1,(N,<,N))
  // because (N,=,N) . (N,<,N) = (N,<,N)".
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  SchemaNodeId from =
      g.FindNode(0, {SelType::kN, SelOp::kEq, SelType::kN}).value();
  SchemaNodeId to =
      g.FindNode(0, {SelType::kN, SelOp::kLess, SelType::kN}).value();
  bool found = false;
  for (const auto& e : g.OutEdges(from)) {
    if (e.to == to && e.symbol == Symbol::Fwd(0)) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(SchemaGraphTest, EdgesComposeTheAlgebra) {
  // Invariant: for every edge, target triple == Compose(source triple,
  // symbol triple).
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  for (SchemaNodeId v = 0; v < g.node_count(); ++v) {
    for (const auto& e : g.OutEdges(v)) {
      // Locate the matching constraint.
      for (const auto& c : schema.edge_constraints()) {
        bool fwd_match = !e.symbol.inverse &&
                         c.predicate == e.symbol.predicate &&
                         c.source_type == g.nodes()[v].type &&
                         c.target_type == g.nodes()[e.to].type;
        bool inv_match = e.symbol.inverse &&
                         c.predicate == e.symbol.predicate &&
                         c.target_type == g.nodes()[v].type &&
                         c.source_type == g.nodes()[e.to].type;
        if (fwd_match || inv_match) {
          SelTriple step = SymbolTriple(schema, c, e.symbol.inverse);
          SelTriple composed = Compose(g.nodes()[v].triple, step);
          // Some other constraint may also match; accept when any does.
          if (composed == g.nodes()[e.to].triple) goto next_edge;
        }
      }
      FAIL() << "edge has no constraint justifying its composition";
    next_edge:;
    }
  }
}

TEST(SchemaGraphTest, DistanceBasics) {
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  SchemaNodeId t1 = g.StartNode(0);
  EXPECT_EQ(g.Distance(t1, t1), 0);
  SchemaNodeId t1_less =
      g.FindNode(0, {SelType::kN, SelOp::kLess, SelType::kN}).value();
  EXPECT_EQ(g.Distance(t1, t1_less), 1);
  // Walking b then b from T1's identity reaches T3 with accumulated
  // triple (N,>,1) — not T3's own identity node, whose left category
  // (1) is unreachable from an N-rooted walk.
  SchemaNodeId t3_acc =
      g.FindNode(2, {SelType::kN, SelOp::kGreater, SelType::kOne}).value();
  EXPECT_EQ(g.Distance(t1, t3_acc), 2);
  EXPECT_EQ(g.Distance(t1, g.StartNode(2)), -1);
}

TEST(SchemaGraphTest, CountPathsMatchesEnumeration) {
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  SchemaNodeId from = g.StartNode(0);
  // Brute-force path counting via adjacency powers.
  std::vector<double> ones(g.node_count(), 0.0);
  for (SchemaNodeId to = 0; to < g.node_count(); ++to) {
    for (int len = 0; len <= 3; ++len) {
      // Count walks by DP forward.
      std::vector<double> dp(g.node_count(), 0.0);
      dp[from] = 1.0;
      for (int i = 0; i < len; ++i) {
        std::vector<double> next(g.node_count(), 0.0);
        for (SchemaNodeId v = 0; v < g.node_count(); ++v) {
          if (dp[v] == 0.0) continue;
          for (const auto& e : g.OutEdges(v)) next[e.to] += dp[v];
        }
        dp.swap(next);
      }
      EXPECT_DOUBLE_EQ(g.CountPaths(from, to, len), dp[to])
          << "to=" << to << " len=" << len;
    }
  }
}

class SamplePathTest : public ::testing::TestWithParam<int> {};

TEST_P(SamplePathTest, SampledPathsAreValidWalks) {
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  RandomEngine rng(GetParam());
  SchemaNodeId from = g.StartNode(0);
  for (SchemaNodeId to = 0; to < g.node_count(); ++to) {
    IntRange range{1, 4};
    auto path = g.SamplePath(from, to, range, &rng);
    if (!path.ok()) continue;  // Unreachable in range: fine.
    EXPECT_GE(static_cast<int>(path->size()), range.min);
    EXPECT_LE(static_cast<int>(path->size()), range.max);
    // Replay the walk NFA-style: a symbol may match several edges, so
    // track the set of reachable nodes and require it to stay nonempty
    // and to contain the sampled endpoint at the end.
    std::set<SchemaNodeId> states{from};
    for (const Symbol& sym : *path) {
      std::set<SchemaNodeId> next;
      for (SchemaNodeId s : states) {
        for (const auto& e : g.OutEdges(s)) {
          if (e.symbol == sym) next.insert(e.to);
        }
      }
      ASSERT_FALSE(next.empty());
      states = std::move(next);
    }
    EXPECT_TRUE(states.count(to) > 0);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SamplePathTest, ::testing::Values(1, 2, 7));

TEST(SchemaGraphTest, SamplePathRejectsImpossibleRequests) {
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  RandomEngine rng(3);
  // T3 -> T1 identity within length 1 is impossible (needs b^- b^-).
  SchemaNodeId t3 = g.StartNode(2);
  SchemaNodeId t1 = g.StartNode(0);
  auto r = g.SamplePath(t3, t1, IntRange{1, 1}, &rng);
  EXPECT_FALSE(r.ok());
  auto bad_range = g.SamplePath(t3, t1, IntRange{3, 1}, &rng);
  EXPECT_FALSE(bad_range.ok());
}

TEST(SchemaGraphTest, PrecomputedWalkCountsDrawTheSamePaths) {
  // A table longer than the range (what a workload precomputes for
  // path_length.max) must give the per-call table's draws exactly.
  GraphSchema schema = Example33Schema();
  SchemaGraph g = SchemaGraph::Build(schema);
  const IntRange range{1, 3};
  for (SchemaNodeId to = 0; to < g.node_count(); ++to) {
    const WalkCounts walks_to = g.CountWalksTo(to, range.max + 2);
    for (SchemaNodeId from = 0; from < g.node_count(); ++from) {
      for (int len = 0; len <= range.max; ++len) {
        EXPECT_EQ(walks_to.at(len, from), g.CountPaths(from, to, len));
      }
      RandomEngine a(11), b(11);
      auto per_call = g.SamplePath(from, to, range, &a);
      auto tabled = g.SamplePath(from, to, range, walks_to, &b);
      ASSERT_EQ(per_call.ok(), tabled.ok());
      if (per_call.ok()) {
        EXPECT_EQ(*per_call, *tabled);
      }
      EXPECT_EQ(a.raw()(), b.raw()()) << "draw counts diverged";
    }
    RandomEngine rng(3);
    EXPECT_TRUE(g.SamplePath(0, to, IntRange{1, 6}, walks_to, &rng)
                    .status()
                    .IsInvalidArgument());
  }
}

TEST(SchemaGraphTest, BuildsForAllUseCases) {
  for (UseCase uc : AllUseCases()) {
    GraphConfiguration config = MakeUseCase(uc, 10000);
    SchemaGraph g = SchemaGraph::Build(config.schema);
    EXPECT_GE(g.node_count(), config.schema.type_count()) << UseCaseName(uc);
    EXPECT_FALSE(g.ToString(config.schema).empty());
  }
}

}  // namespace
}  // namespace gmark
