// The parallel generator's contract: output is a pure function of
// (config, chunk_size), bit-for-bit independent of num_threads and of
// scheduling. These tests force multi-chunk constraints with a small
// chunk_size so the 10K-node configs actually exercise the fan-out.

#include "parallel/parallel_generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <vector>

#include "core/use_cases.h"
#include "graph/generator.h"
#include "parallel/thread_pool.h"
#include "util/random.h"

namespace gmark {
namespace {

GeneratorOptions WithThreads(int num_threads, int64_t chunk_size = 512) {
  GeneratorOptions options;
  options.num_threads = num_threads;
  options.chunk_size = chunk_size;
  return options;
}

std::vector<Edge> GenerateWith(const GraphConfiguration& config,
                               const GeneratorOptions& options) {
  VectorSink sink;
  Status st = ParallelGenerateToSink(config, &sink, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.edges();
}

std::vector<std::pair<NodeId, NodeId>> CollectEdges(const Graph& g,
                                                    PredicateId p) {
  std::vector<std::pair<NodeId, NodeId>> out;
  g.ForEachEdge(p, [&out](NodeId s, NodeId t) { out.emplace_back(s, t); });
  return out;
}

TEST(ParallelDeterminismTest, IdenticalEdgeStreamAcrossThreadCounts) {
  const GraphConfiguration config = MakeBibConfig(10000, 42);
  const std::vector<Edge> base = GenerateWith(config, WithThreads(1));
  ASSERT_FALSE(base.empty());
  for (int threads : {2, 8}) {
    EXPECT_EQ(base, GenerateWith(config, WithThreads(threads)))
        << "thread count " << threads
        << " changed the canonical edge stream";
  }
}

TEST(ParallelDeterminismTest, RepeatedRunsAreIdentical) {
  const GraphConfiguration config = MakeLsnConfig(10000, 7);
  const std::vector<Edge> first = GenerateWith(config, WithThreads(8));
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(first, GenerateWith(config, WithThreads(8))) << "run " << run;
  }
}

TEST(ParallelDeterminismTest, IdenticalGraphAcrossThreadCounts) {
  const GraphConfiguration config = MakeBibConfig(10000, 13);
  Graph base = ParallelGenerateGraph(config, WithThreads(1)).ValueOrDie();
  for (int threads : {2, 8}) {
    Graph g = ParallelGenerateGraph(config, WithThreads(threads)).ValueOrDie();
    // Node layout.
    ASSERT_EQ(base.num_nodes(), g.num_nodes());
    ASSERT_EQ(base.layout().type_count(), g.layout().type_count());
    for (TypeId t = 0; t < base.layout().type_count(); ++t) {
      EXPECT_EQ(base.layout().CountOf(t), g.layout().CountOf(t));
      EXPECT_EQ(base.layout().OffsetOf(t), g.layout().OffsetOf(t));
    }
    // Per-predicate edge multisets and CSR traversal order.
    ASSERT_EQ(base.predicate_count(), g.predicate_count());
    for (PredicateId a = 0; a < base.predicate_count(); ++a) {
      EXPECT_EQ(base.EdgeCount(a), g.EdgeCount(a));
      EXPECT_EQ(CollectEdges(base, a), CollectEdges(g, a)) << "predicate "
                                                           << a;
      for (NodeId v = 0; v < static_cast<NodeId>(base.num_nodes()); ++v) {
        auto b_out = base.OutNeighbors(a, v);
        auto g_out = g.OutNeighbors(a, v);
        ASSERT_TRUE(std::equal(b_out.begin(), b_out.end(), g_out.begin(),
                               g_out.end()))
            << "out-CSR mismatch at node " << v << " predicate " << a;
      }
    }
  }
}

TEST(ParallelDeterminismTest, DifferentSeedsDiffer) {
  GraphConfiguration a = MakeBibConfig(10000, 1);
  GraphConfiguration b = MakeBibConfig(10000, 2);
  EXPECT_NE(GenerateWith(a, WithThreads(4)), GenerateWith(b, WithThreads(4)));
}

TEST(ParallelDeterminismTest, HardwareConcurrencyAliasMatchesExplicit) {
  const GraphConfiguration config = MakeBibConfig(10000, 99);
  // num_threads = 0 resolves to hardware concurrency; output must still
  // equal any explicit thread count.
  EXPECT_EQ(GenerateWith(config, WithThreads(0)),
            GenerateWith(config, WithThreads(3)));
}

TEST(ParallelDeterminismTest, ChunkSizeDoesNotBiasEdgeCount) {
  // Different chunk sizes partition the draws differently, but both
  // realize the same constraints, so edge totals must be close.
  const GraphConfiguration config = MakeBibConfig(20000, 42);
  CountingSink one_chunk;
  ASSERT_TRUE(ParallelGenerateToSink(config, &one_chunk).ok());
  VectorSink chunked;
  ASSERT_TRUE(ParallelGenerateToSink(config, &chunked, WithThreads(4)).ok());
  const double ratio = static_cast<double>(chunked.edges().size()) /
                       static_cast<double>(one_chunk.count());
  EXPECT_NEAR(ratio, 1.0, 0.05);
}

TEST(ParallelDeterminismTest, SinkPathHoldsOneWindowOfChunks) {
  // ParallelGenerateToSink drains each window of one chunk per worker
  // before the next: resident edges never exceed threads * chunk_size,
  // whatever the edge total.
  const GraphConfiguration config = MakeBibConfig(20000, 42);
  for (int threads : {1, 2, 8}) {
    GenerateStats stats;
    CountingSink sink;
    ASSERT_TRUE(
        ParallelGenerateToSink(config, &sink, WithThreads(threads), &stats)
            .ok());
    EXPECT_EQ(stats.total_edges, sink.count());
    EXPECT_GE(stats.peak_resident_edge_bytes, 512 * sizeof(Edge));
    EXPECT_LE(stats.peak_resident_edge_bytes,
              static_cast<size_t>(threads) * 512 * sizeof(Edge))
        << threads << " threads";
    EXPECT_LT(stats.peak_resident_edge_bytes,
              stats.total_edges * sizeof(Edge));
  }
}

TEST(ParallelDeterminismTest, GraphSinkReceivesTheSinkPathStream) {
  // ParallelGenerateGraph with a sink streams the very edges
  // ParallelGenerateToSink writes, in the same order, and builds the
  // same graph as without one, from the same walk.
  const GraphConfiguration config = MakeBibConfig(10000, 42);
  const std::vector<Edge> reference = GenerateWith(config, WithThreads(1));
  for (int threads : {1, 2, 8}) {
    VectorSink sink;
    GenerateStats stats;
    Graph g = ParallelGenerateGraph(config, WithThreads(threads), &stats,
                                    &sink)
                  .ValueOrDie();
    EXPECT_EQ(sink.edges(), reference) << threads << " threads";
    EXPECT_EQ(stats.total_edges, reference.size());
    // The sink changes nothing in the graph.
    Graph plain =
        ParallelGenerateGraph(config, WithThreads(threads)).ValueOrDie();
    ASSERT_EQ(g.num_edges(), plain.num_edges());
    for (PredicateId p = 0; p < g.predicate_count(); ++p) {
      EXPECT_EQ(CollectEdges(g, p), CollectEdges(plain, p));
    }
  }
}

TEST(ParallelDeterminismTest, EdgesRespectConstraintEndpointTypes) {
  GraphConfiguration config = MakeWdConfig(8000, 3);
  Graph g = ParallelGenerateGraph(config, WithThreads(8)).ValueOrDie();
  for (const EdgeConstraint& c : config.schema.edge_constraints()) {
    g.ForEachEdge(c.predicate, [&](NodeId src, NodeId trg) {
      ASSERT_EQ(g.TypeOf(src), c.source_type);
      ASSERT_EQ(g.TypeOf(trg), c.target_type);
    });
  }
}

TEST(ParallelDeterminismTest, ChunkSizeIsPartOfTheContract) {
  // Different chunk_size may legitimately change the stream (different
  // RNG partition); determinism is per (seed, chunk_size).
  const GraphConfiguration config = MakeBibConfig(10000, 42);
  const auto a = GenerateWith(config, WithThreads(4, 256));
  const auto b = GenerateWith(config, WithThreads(4, 256));
  EXPECT_EQ(a, b);
}

TEST(SplitMix64Test, DeriveSeedSeparatesCoordinates) {
  // Distinct logical coordinates must give distinct streams; identical
  // coordinates identical ones.
  EXPECT_EQ(DeriveSeed(42, 1, 2, 3), DeriveSeed(42, 1, 2, 3));
  EXPECT_NE(DeriveSeed(42, 1, 2, 3), DeriveSeed(42, 1, 2, 4));
  EXPECT_NE(DeriveSeed(42, 1, 2, 3), DeriveSeed(42, 1, 3, 3));
  EXPECT_NE(DeriveSeed(42, 1, 2, 3), DeriveSeed(42, 2, 2, 3));
  EXPECT_NE(DeriveSeed(42, 1, 2, 3), DeriveSeed(43, 1, 2, 3));
  // Coordinate packing must not alias (a=1,b=0) with (a=0,b=1).
  EXPECT_NE(DeriveSeed(42, 1, 0, 0), DeriveSeed(42, 0, 1, 0));
  EXPECT_NE(DeriveSeed(42, 0, 1, 0), DeriveSeed(42, 0, 0, 1));
}

TEST(ThreadPoolTest, RunsEverySubmittedTaskExactlyOnce) {
  ThreadPool pool(4);
  std::vector<int> hits(1000, 0);
  for (size_t i = 0; i < hits.size(); ++i) {
    pool.Submit([&hits, i] { hits[i] += 1; });
  }
  pool.Wait();
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 1; }));
}

TEST(ThreadPoolTest, WaitIsReusableAcrossBatches) {
  ThreadPool pool(2);
  std::vector<int> hits(100, 0);
  for (int batch = 0; batch < 3; ++batch) {
    for (size_t i = 0; i < hits.size(); ++i) {
      pool.Submit([&hits, i] { hits[i] += 1; });
    }
    pool.Wait();
  }
  EXPECT_TRUE(std::all_of(hits.begin(), hits.end(),
                          [](int h) { return h == 3; }));
}

}  // namespace
}  // namespace gmark
