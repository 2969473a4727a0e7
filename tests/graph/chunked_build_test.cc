// The intra-predicate chunked build contract (Graph::Builder): splitting
// one predicate's edge stream into chunk groups — counted with private
// histograms, scanned into disjoint scatter slices, scattered lock-free
// — never changes either CSR's adjacency, at any thread count, any group
// cap, even when one predicate owns ~90% of the
// edges; and the overfull/underfull bucket guards still reject a
// chunked stream that fails to replay identically.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_config.h"
#include "core/use_cases.h"
#include "csr_spans.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "parallel/executor.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

/// A deliberately skewed schema: predicate "big" owns ~90% of all edges
/// (the workload the per-predicate-task build of PR 4 cannot speed up —
/// its wall time is the big predicate's serial build).
GraphConfiguration MakeSkewedConfig(int64_t n, uint64_t seed) {
  GraphConfiguration config;
  config.name = "skewed";
  config.num_nodes = n;
  config.seed = seed;
  GraphSchema& s = config.schema;
  EXPECT_TRUE(s.AddType("src", OccurrenceConstraint::Proportion(0.5)).ok());
  EXPECT_TRUE(s.AddType("dst", OccurrenceConstraint::Proportion(0.4)).ok());
  EXPECT_TRUE(s.AddType("misc", OccurrenceConstraint::Proportion(0.1)).ok());
  EXPECT_TRUE(s.AddPredicate("big").ok());
  EXPECT_TRUE(s.AddPredicate("small1").ok());
  EXPECT_TRUE(s.AddPredicate("small2").ok());
  // big: ~10 edges per src node = ~5n edges (~88% of the total).
  EXPECT_TRUE(s.AddEdgeConstraintByName("src", "big", "dst",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(8, 12))
                  .ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName("misc", "small1", "dst",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(2, 4))
                  .ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName("dst", "small2", "src",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(1, 1))
                  .ok());
  return config;
}

GeneratorOptions BuildOptions(int threads, int max_groups) {
  GeneratorOptions options;
  options.num_threads = threads;
  options.chunk_size = 512;  // Many chunks, so grouping has work to do.
  options.index_max_groups = max_groups;
  return options;
}

TEST(ChunkedBuildTest, SkewedSchemaIdenticalAcrossThreadsAndGroups) {
  const GraphConfiguration config = MakeSkewedConfig(20000, 42);

  // Verify the skew premise: the big predicate really dominates.
  GenerateStats base_stats;
  Graph base = ParallelGenerateGraph(config, BuildOptions(1, 1),
                                     &base_stats)
                   .ValueOrDie();
  ASSERT_GT(base.EdgeCount(0),
            (base.num_edges() * 4) / 5);  // "big" owns >80%.

  // max_groups=1 is exactly the historical per-predicate-task build, so
  // `base` doubles as the pre-chunking reference; every thread count
  // and group cap must reproduce it byte for byte.
  for (int threads : {1, 2, 8}) {
    for (int max_groups : {0, 1, 3, 16}) {
      Graph g =
          ParallelGenerateGraph(config, BuildOptions(threads, max_groups))
              .ValueOrDie();
      ExpectSameAdjacency(base, g,
                          "threads=" + std::to_string(threads) +
                              " max_groups=" + std::to_string(max_groups));
    }
  }
}

TEST(ChunkedBuildTest, AutoGroupingEngagesIntraPredicateParallelism) {
  const GraphConfiguration config = MakeSkewedConfig(20000, 42);
  GenerateStats serial_stats;
  ASSERT_TRUE(ParallelGenerateGraph(config, BuildOptions(1, 1),
                                    &serial_stats)
                  .ok());
  EXPECT_EQ(serial_stats.index_forward_groups, 3u);  // One per predicate.

  GenerateStats chunked_stats;
  ASSERT_TRUE(ParallelGenerateGraph(config, BuildOptions(8, 0),
                                    &chunked_stats)
                  .ok());
  // Auto grouping must fan the skewed predicate out past one task per
  // predicate, both for the counting sort and the transpose.
  EXPECT_GT(chunked_stats.index_forward_groups,
            config.schema.predicate_count());
  EXPECT_GT(chunked_stats.index_transpose_groups,
            config.schema.predicate_count());
}

TEST(ChunkedBuildTest, GroupBudgetLeavesPredicatesBelowTheirShareWhole) {
  // LSN spreads its edges over many predicates, none above a quarter
  // of the total, so at 2 threads (a cap of 4 groups) the build-wide
  // budget gives every predicate one forward and one transpose group.
  const GraphConfiguration config = MakeLsnConfig(20000, 7);
  GeneratorOptions options;
  options.num_threads = 2;
  GenerateStats stats;
  Graph g = ParallelGenerateGraph(config, options, &stats).ValueOrDie();
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    ASSERT_LE(g.EdgeCount(p) * 4, g.num_edges()) << "predicate " << p;
  }
  EXPECT_EQ(stats.index_forward_groups, config.schema.predicate_count());
  EXPECT_EQ(stats.index_transpose_groups, config.schema.predicate_count());
}

/// A chunked stream over an in-memory edge set whose second replay of
/// one chunk can be tampered with — the replay-mismatch fixture.
struct TamperableStream {
  std::vector<std::vector<Edge>> chunks;
  /// Replays counted per chunk so the tamper targets the scatter pass.
  std::shared_ptr<std::vector<int>> replays =
      std::make_shared<std::vector<int>>();
  int tamper_chunk = -1;
  enum Tamper { kNone, kExtraEdge, kDroppedEdge, kSwappedTarget } tamper =
      kNone;

  Graph::Builder::StreamSpec Spec() {
    replays->assign(chunks.size(), 0);
    Graph::Builder::StreamSpec spec;
    spec.chunk_count = chunks.size();
    spec.stream = [this](size_t begin, size_t end,
                         const Graph::EdgeBlockVisitor& visit) -> Status {
      for (size_t k = begin; k < end; ++k) {
        std::vector<Edge> block = chunks[k];
        const bool second_pass = ++(*replays)[k] > 1;
        if (second_pass && static_cast<int>(k) == tamper_chunk) {
          if (tamper == kExtraEdge) block.push_back(block.front());
          if (tamper == kDroppedEdge) block.pop_back();
          if (tamper == kSwappedTarget) block.back().target = 7;
        }
        GMARK_RETURN_NOT_OK(visit({block.data(), block.size()}));
      }
      return Status::OK();
    };
    return spec;
  }
};

NodeLayout TinyLayout(int64_t n, GraphConfiguration* config) {
  config->num_nodes = n;
  EXPECT_TRUE(config->schema
                  .AddType("t", OccurrenceConstraint::Fixed(n))
                  .ok());
  return NodeLayout::Create(*config).ValueOrDie();
}

TEST(ChunkedBuildTest, OverfullReplayMismatchIsRejected) {
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(8, &config);
  TamperableStream stream;
  stream.chunks = {{{0, 0, 1}, {1, 0, 2}, {2, 0, 3}},
                   {{3, 0, 4}, {4, 0, 5}, {5, 0, 6}}};
  stream.tamper_chunk = 0;
  stream.tamper = TamperableStream::kExtraEdge;

  Graph::Builder builder(std::move(layout), 1);
  builder.set_max_groups(2);  // One group per chunk: groups see the tamper.
  builder.SetChunkedStream(0, stream.Spec());
  Executor inline_executor(1);
  auto result = std::move(builder).Build(&inline_executor);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().ToString().find("changed between passes") !=
              std::string::npos)
      << result.status().ToString();
}

TEST(ChunkedBuildTest, UnderfullReplayMismatchIsRejected) {
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(8, &config);
  TamperableStream stream;
  stream.chunks = {{{0, 0, 1}, {1, 0, 2}, {2, 0, 3}},
                   {{3, 0, 4}, {4, 0, 5}, {5, 0, 6}}};
  stream.tamper_chunk = 1;
  stream.tamper = TamperableStream::kDroppedEdge;

  Graph::Builder builder(std::move(layout), 1);
  builder.set_max_groups(2);
  builder.SetChunkedStream(0, stream.Spec());
  Executor inline_executor(1);
  auto result = std::move(builder).Build(&inline_executor);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().ToString().find("changed between passes") !=
              std::string::npos)
      << result.status().ToString();
}

TEST(ChunkedBuildTest, SwappedTargetReplayMismatchIsRejected) {
  // A replay that keeps every source but swaps one target past the
  // declared target range would slip through the bucket guards and
  // index the transpose histogram out of bounds; the scatter pass must
  // re-validate targets and reject it.
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(8, &config);
  TamperableStream stream;
  stream.chunks = {{{0, 0, 1}, {1, 0, 2}, {2, 0, 3}},
                   {{3, 0, 4}, {4, 0, 5}, {5, 0, 6}}};
  stream.tamper_chunk = 1;  // {5, 0, 6} replays as {5, 0, 7}.
  stream.tamper = TamperableStream::kSwappedTarget;
  Graph::Builder::StreamSpec spec = stream.Spec();
  spec.target_begin = 1;
  spec.target_end = 7;  // Node 7 is in the layout but outside the hint.

  Graph::Builder builder(std::move(layout), 1);
  builder.set_max_groups(2);
  builder.SetChunkedStream(0, std::move(spec));
  Executor inline_executor(1);
  auto result = std::move(builder).Build(&inline_executor);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().ToString().find("changed between passes") !=
              std::string::npos)
      << result.status().ToString();
}

TEST(ChunkedBuildTest, UntamperedChunkedStreamMatchesVectorBuild) {
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(8, &config);
  std::vector<Edge> edges{{0, 0, 1}, {1, 0, 2}, {2, 0, 3},
                          {3, 0, 4}, {4, 0, 5}, {5, 0, 6}};
  Graph reference =
      Graph::Build(NodeLayout(layout), 1, edges).ValueOrDie();

  TamperableStream stream;
  stream.chunks = {{edges[0], edges[1], edges[2]},
                   {edges[3], edges[4], edges[5]}};
  Graph::Builder builder(std::move(layout), 1);
  builder.set_max_groups(2);
  builder.SetChunkedStream(0, stream.Spec());
  Executor inline_executor(1);
  Graph g = std::move(builder).Build(&inline_executor).ValueOrDie();
  ExpectSameAdjacency(reference, g, "chunked vs vector build");
}

TEST(ChunkedBuildTest, EdgeOutsideDeclaredNodeRangeFailsTheBuild) {
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(8, &config);
  TamperableStream stream;
  stream.chunks = {{{0, 0, 1}, {5, 0, 2}}};  // Source 5 outside the hint.
  Graph::Builder::StreamSpec spec = stream.Spec();
  spec.source_begin = 0;
  spec.source_end = 4;
  Graph::Builder builder(std::move(layout), 1);
  builder.SetChunkedStream(0, std::move(spec));
  Executor inline_executor(1);
  auto result = std::move(builder).Build(&inline_executor);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().ToString().find("declared node range") !=
              std::string::npos)
      << result.status().ToString();
}

}  // namespace
}  // namespace gmark
