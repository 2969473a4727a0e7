#include "selectivity/selectivity_graph.h"

#include <gtest/gtest.h>

#include "core/use_cases.h"

namespace gmark {
namespace {

class GselUseCaseTest : public ::testing::TestWithParam<UseCase> {};

TEST_P(GselUseCaseTest, AllThreeClassesAreReachable) {
  // Every built-in use case must admit constant, linear, and quadratic
  // chain queries (Table 2 needs 10 of each).
  GraphConfiguration config = MakeUseCase(GetParam(), 10000);
  SchemaGraph schema_graph = SchemaGraph::Build(config.schema);
  SelectivityGraph gsel =
      SelectivityGraph::Build(&schema_graph, IntRange{1, 4});
  for (QuerySelectivity target :
       {QuerySelectivity::kConstant, QuerySelectivity::kLinear,
        QuerySelectivity::kQuadratic}) {
    bool exists = false;
    for (int c = 1; c <= 3 && !exists; ++c) {
      exists = gsel.ChainExists(target, c);
    }
    EXPECT_TRUE(exists) << UseCaseName(GetParam()) << " lacks "
                        << QuerySelectivityName(target) << " chains";
  }
}

INSTANTIATE_TEST_SUITE_P(All, GselUseCaseTest,
                         ::testing::ValuesIn(AllUseCases()),
                         [](const auto& info) {
                           return UseCaseName(info.param);
                         });

TEST(SelectivityGraphTest, EdgesRequirePathsInLengthRange) {
  GraphConfiguration config = MakeBibConfig(10000);
  SchemaGraph schema_graph = SchemaGraph::Build(config.schema);
  SelectivityGraph gsel =
      SelectivityGraph::Build(&schema_graph, IntRange{1, 3});
  // Every G_sel edge must be witnessed by a schema-graph walk count.
  for (SchemaNodeId v = 0; v < gsel.node_count(); ++v) {
    for (SchemaNodeId w : gsel.Successors(v)) {
      double total = 0;
      for (int len = 1; len <= 3; ++len) {
        total += schema_graph.CountPaths(v, w, len);
      }
      EXPECT_GT(total, 0.0) << v << "->" << w;
      EXPECT_TRUE(gsel.HasEdge(v, w));
    }
  }
}

TEST(SelectivityGraphTest, MinLengthExcludesShortPaths) {
  GraphConfiguration config = MakeBibConfig(10000);
  SchemaGraph schema_graph = SchemaGraph::Build(config.schema);
  // With lmin = 2, single-symbol hops alone cannot witness an edge.
  SelectivityGraph g2 = SelectivityGraph::Build(&schema_graph,
                                                IntRange{2, 2});
  for (SchemaNodeId v = 0; v < g2.node_count(); ++v) {
    for (SchemaNodeId w : g2.Successors(v)) {
      EXPECT_GT(schema_graph.CountPaths(v, w, 2), 0.0);
    }
  }
}

class ChainSamplingTest
    : public ::testing::TestWithParam<QuerySelectivity> {};

TEST_P(ChainSamplingTest, SampledChainsStartAtIdentityAndEndOnTarget) {
  GraphConfiguration config = MakeBibConfig(10000);
  SchemaGraph schema_graph = SchemaGraph::Build(config.schema);
  SelectivityGraph gsel =
      SelectivityGraph::Build(&schema_graph, IntRange{1, 3});
  RandomEngine rng(17);
  for (int c = 1; c <= 3; ++c) {
    auto walk = gsel.SampleConjunctChain(GetParam(), c, &rng);
    if (!walk.ok()) continue;
    ASSERT_EQ(walk->size(), static_cast<size_t>(c) + 1);
    const SchemaGraphNode& start = schema_graph.nodes()[walk->front()];
    EXPECT_EQ(start.triple.op, SelOp::kEq);
    EXPECT_EQ(start.triple.left, start.triple.right);
    const SchemaGraphNode& end = schema_graph.nodes()[walk->back()];
    EXPECT_EQ(ClassOf(end.triple), GetParam());
    // Consecutive walk nodes are G_sel edges.
    for (size_t i = 0; i + 1 < walk->size(); ++i) {
      EXPECT_TRUE(gsel.HasEdge((*walk)[i], (*walk)[i + 1]));
    }
  }
}

TEST_P(ChainSamplingTest, PrecomputedChainCountsDrawTheSameWalks) {
  GraphConfiguration config = MakeBibConfig(10000);
  SchemaGraph schema_graph = SchemaGraph::Build(config.schema);
  SelectivityGraph gsel =
      SelectivityGraph::Build(&schema_graph, IntRange{1, 3});
  const WalkCounts chains = gsel.CountChains(GetParam(), 3);
  for (int c = 1; c <= 3; ++c) {
    RandomEngine a(17), b(17);
    auto per_call = gsel.SampleConjunctChain(GetParam(), c, &a);
    auto tabled = gsel.SampleConjunctChain(GetParam(), chains, c, &b);
    ASSERT_EQ(per_call.ok(), tabled.ok()) << "c=" << c;
    if (per_call.ok()) {
      EXPECT_EQ(*per_call, *tabled) << "c=" << c;
    }
    EXPECT_EQ(a.raw()(), b.raw()()) << "c=" << c;
  }
  RandomEngine rng(5);
  EXPECT_TRUE(gsel.SampleConjunctChain(GetParam(), chains, 4, &rng)
                  .status()
                  .IsInvalidArgument());
}

INSTANTIATE_TEST_SUITE_P(
    Classes, ChainSamplingTest,
    ::testing::Values(QuerySelectivity::kConstant, QuerySelectivity::kLinear,
                      QuerySelectivity::kQuadratic),
    [](const auto& info) {
      return std::string(QuerySelectivityName(info.param));
    });

TEST(SelectivityGraphTest, ImpossibleChainsReportNotFound) {
  // A schema with only bounded (uniform) distributions and no fixed
  // types cannot produce quadratic chains.
  GraphConfiguration config;
  config.num_nodes = 100;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Proportion(1.0)).ok());
  ASSERT_TRUE(config.schema.AddPredicate("p").ok());
  ASSERT_TRUE(config.schema
                  .AddEdgeConstraintByName("t", "p", "t",
                                           DistributionSpec::Uniform(1, 2),
                                           DistributionSpec::Uniform(1, 2))
                  .ok());
  SchemaGraph schema_graph = SchemaGraph::Build(config.schema);
  SelectivityGraph gsel =
      SelectivityGraph::Build(&schema_graph, IntRange{1, 3});
  RandomEngine rng(5);
  EXPECT_FALSE(gsel.ChainExists(QuerySelectivity::kQuadratic, 2));
  EXPECT_FALSE(gsel.ChainExists(QuerySelectivity::kConstant, 2));
  EXPECT_TRUE(gsel.ChainExists(QuerySelectivity::kLinear, 2));
  auto walk =
      gsel.SampleConjunctChain(QuerySelectivity::kQuadratic, 2, &rng);
  EXPECT_TRUE(walk.status().IsNotFound());
}

TEST(SelectivityGraphTest, RejectsZeroConjuncts) {
  GraphConfiguration config = MakeBibConfig(1000);
  SchemaGraph schema_graph = SchemaGraph::Build(config.schema);
  SelectivityGraph gsel =
      SelectivityGraph::Build(&schema_graph, IntRange{1, 3});
  RandomEngine rng(5);
  EXPECT_FALSE(
      gsel.SampleConjunctChain(QuerySelectivity::kLinear, 0, &rng).ok());
}

}  // namespace
}  // namespace gmark
