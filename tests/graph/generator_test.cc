#include "parallel/parallel_generator.h"

#include <gtest/gtest.h>

#include <cmath>

#include "core/use_cases.h"
#include "graph/stats.h"

namespace gmark {
namespace {

TEST(GeneratorTest, DeterministicGivenSeed) {
  VectorSink a, b;
  ASSERT_TRUE(ParallelGenerateToSink(MakeBibConfig(2000, 42), &a).ok());
  ASSERT_TRUE(ParallelGenerateToSink(MakeBibConfig(2000, 42), &b).ok());
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(GeneratorTest, DifferentSeedsGiveDifferentGraphs) {
  VectorSink a, b;
  ASSERT_TRUE(ParallelGenerateToSink(MakeBibConfig(2000, 1), &a).ok());
  ASSERT_TRUE(ParallelGenerateToSink(MakeBibConfig(2000, 2), &b).ok());
  EXPECT_NE(a.edges(), b.edges());
}

TEST(GeneratorTest, CountingSinkMatchesVectorSink) {
  CountingSink counting;
  VectorSink vector;
  ASSERT_TRUE(ParallelGenerateToSink(MakeBibConfig(3000, 5), &counting).ok());
  ASSERT_TRUE(ParallelGenerateToSink(MakeBibConfig(3000, 5), &vector).ok());
  EXPECT_EQ(counting.count(), vector.edges().size());
}

TEST(GeneratorTest, EdgesRespectConstraintEndpointTypes) {
  GraphConfiguration config = MakeBibConfig(2000, 7);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  // authors edges must go researcher -> paper, etc., per Fig. 2c.
  for (const EdgeConstraint& c : config.schema.edge_constraints()) {
    g.ForEachEdge(c.predicate, [&](NodeId src, NodeId trg) {
      EXPECT_EQ(g.TypeOf(src), c.source_type);
      EXPECT_EQ(g.TypeOf(trg), c.target_type);
    });
  }
}

TEST(GeneratorTest, UniformOutDegreeExactlyRespected) {
  // publishedIn has out-distribution uniform[1,1]: every paper points to
  // exactly one conference, unless the in-side vector ran out (min rule).
  GraphConfiguration config = MakeBibConfig(4000, 11);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  PredicateId published =
      config.schema.PredicateIdOf("publishedIn").ValueOrDie();
  TypeId paper = config.schema.TypeIdOf("paper").ValueOrDie();
  DegreeStats out = OutDegreeStats(g, published, paper);
  // The slot-vector algorithm truncates only one side; means stay close.
  EXPECT_NEAR(out.mean, 1.0, 0.05);
  EXPECT_LE(out.max, 1);
}

TEST(GeneratorTest, GaussianInDegreeMeanPreserved) {
  GraphConfiguration config = MakeBibConfig(8000, 13);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  PredicateId authors = config.schema.PredicateIdOf("authors").ValueOrDie();
  TypeId paper = config.schema.TypeIdOf("paper").ValueOrDie();
  DegreeStats in = InDegreeStats(g, authors, paper);
  // eta(researcher, paper, authors) in-distribution is Gaussian(3, 1);
  // the out side supplies slightly fewer slots, so allow 15% slack.
  EXPECT_NEAR(in.mean, 3.0, 0.45);
}

TEST(GeneratorTest, ZipfianOutDegreeHasHubs) {
  GraphConfiguration config = MakeBibConfig(8000, 17);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  PredicateId authors = config.schema.PredicateIdOf("authors").ValueOrDie();
  TypeId researcher = config.schema.TypeIdOf("researcher").ValueOrDie();
  DegreeStats out = OutDegreeStats(g, authors, researcher);
  EXPECT_GT(out.max, 10) << "Zipfian out-degree should produce hubs";
  EXPECT_GT(out.stddev, out.mean) << "power law: stddev dominates mean";
}

class GeneratorSizeTest : public ::testing::TestWithParam<int64_t> {};

TEST_P(GeneratorSizeTest, EdgeCountScalesRoughlyLinearly) {
  const int64_t n = GetParam();
  CountingSink sink;
  ASSERT_TRUE(ParallelGenerateToSink(MakeBibConfig(n, 23), &sink).ok());
  // Bib produces ~1.3-1.4 edges per node (quickstart instance shows
  // 13.5K edges at 10K nodes).
  double per_node = static_cast<double>(sink.count()) /
                    static_cast<double>(n);
  EXPECT_GT(per_node, 0.9) << "n=" << n;
  EXPECT_LT(per_node, 2.0) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(Sizes, GeneratorSizeTest,
                         ::testing::Values(1000, 4000, 16000, 64000));

TEST(GeneratorTest, GaussianFastPathPreservesMeans) {
  GraphConfiguration config = MakeBibConfig(8000, 29);
  GeneratorOptions fast, slow;
  fast.gaussian_fast_path = true;
  slow.gaussian_fast_path = false;
  Graph gf = ParallelGenerateGraph(config, fast).ValueOrDie();
  Graph gs = ParallelGenerateGraph(config, slow).ValueOrDie();
  PredicateId authors = config.schema.PredicateIdOf("authors").ValueOrDie();
  TypeId paper = config.schema.TypeIdOf("paper").ValueOrDie();
  DegreeStats in_fast = InDegreeStats(gf, authors, paper);
  DegreeStats in_slow = InDegreeStats(gs, authors, paper);
  EXPECT_NEAR(in_fast.mean, in_slow.mean, 0.25);
  // Edge totals also agree within a few percent.
  double ratio = static_cast<double>(gf.EdgeCount(authors)) /
                 static_cast<double>(gs.EdgeCount(authors));
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(GeneratorTest, NonSpecifiedSidesSampleUniformly) {
  // LSN hasModerator: in non-specified, out uniform[1,1]: every forum
  // has exactly one moderator; moderators are sampled uniformly.
  GraphConfiguration config = MakeLsnConfig(10000, 31);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  PredicateId mod = config.schema.PredicateIdOf("hasModerator").ValueOrDie();
  TypeId forum = config.schema.TypeIdOf("forum").ValueOrDie();
  DegreeStats out = OutDegreeStats(g, mod, forum);
  EXPECT_DOUBLE_EQ(out.mean, 1.0);
  EXPECT_EQ(out.max, 1);
}

TEST(GeneratorTest, PurelyOccurrenceDrivenConstraint) {
  // Both sides non-specified: the edge count comes from the predicate
  // occurrence constraint.
  GraphConfiguration config;
  config.num_nodes = 1000;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Proportion(1.0)).ok());
  ASSERT_TRUE(config.schema
                  .AddPredicate("p", OccurrenceConstraint::Proportion(0.5))
                  .ok());
  ASSERT_TRUE(config.schema
                  .AddEdgeConstraintByName(
                      "t", "p", "t", DistributionSpec::NonSpecified(),
                      DistributionSpec::NonSpecified())
                  .ok());
  CountingSink sink;
  ASSERT_TRUE(ParallelGenerateToSink(config, &sink).ok());
  EXPECT_EQ(sink.count(), 500u);

  config.schema = GraphSchema();
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Proportion(1.0)).ok());
  ASSERT_TRUE(config.schema
                  .AddPredicate("p", OccurrenceConstraint::Fixed(123))
                  .ok());
  ASSERT_TRUE(config.schema
                  .AddEdgeConstraintByName(
                      "t", "p", "t", DistributionSpec::NonSpecified(),
                      DistributionSpec::NonSpecified())
                  .ok());
  CountingSink sink2;
  ASSERT_TRUE(ParallelGenerateToSink(config, &sink2).ok());
  EXPECT_EQ(sink2.count(), 123u);
}

TEST(GeneratorTest, MinRuleTruncatesToSmallerSide) {
  // 100 sources each emitting 5, but only 10 targets each accepting 1:
  // exactly 10 edges survive (line 8 of Fig. 5).
  GraphConfiguration config;
  config.num_nodes = 110;
  ASSERT_TRUE(
      config.schema.AddType("src", OccurrenceConstraint::Fixed(100)).ok());
  ASSERT_TRUE(
      config.schema.AddType("trg", OccurrenceConstraint::Fixed(10)).ok());
  ASSERT_TRUE(config.schema.AddPredicate("p").ok());
  ASSERT_TRUE(config.schema
                  .AddEdgeConstraintByName("src", "p", "trg",
                                           DistributionSpec::Uniform(1, 1),
                                           DistributionSpec::Uniform(5, 5))
                  .ok());
  CountingSink sink;
  ASSERT_TRUE(ParallelGenerateToSink(config, &sink).ok());
  EXPECT_EQ(sink.count(), 10u);
}

TEST(GeneratorTest, DegreeOfTwoToThe32SlotsIsUnsupported) {
  // One node asking for 2^32 out-slots: rejected after the draw, before
  // any slot vector is allocated (slots are 32-bit node indexes).
  GraphConfiguration config;
  config.num_nodes = 2;
  ASSERT_TRUE(
      config.schema.AddType("src", OccurrenceConstraint::Fixed(1)).ok());
  ASSERT_TRUE(
      config.schema.AddType("trg", OccurrenceConstraint::Fixed(1)).ok());
  ASSERT_TRUE(config.schema.AddPredicate("p").ok());
  const int64_t degree = int64_t{1} << 32;
  ASSERT_TRUE(config.schema
                  .AddEdgeConstraintByName(
                      "src", "p", "trg", DistributionSpec::NonSpecified(),
                      DistributionSpec::Uniform(degree, degree))
                  .ok());
  CountingSink sink;
  Status st = ParallelGenerateToSink(config, &sink);
  EXPECT_TRUE(st.IsUnsupported()) << st;
  EXPECT_EQ(sink.count(), 0u);
}

TEST(GeneratorTest, InvalidConfigFails) {
  GraphConfiguration config = MakeBibConfig(0);
  CountingSink sink;
  EXPECT_FALSE(ParallelGenerateToSink(config, &sink).ok());
}

}  // namespace
}  // namespace gmark
