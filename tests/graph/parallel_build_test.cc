// The shard-native build contract (Graph::Builder): the CSRs of
// ParallelGenerateGraph are a pure function of the canonical edge
// stream — byte-identical at 1/2/8 threads, in-memory or spill-backed,
// with the forward CSR matching a seed-style pair-scatter counting sort
// of that stream exactly, and the transpose-derived backward CSR
// holding the same per-node neighbor multisets the historical
// (target, source) pair scatter produced.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/use_cases.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

/// Seed-style CSR: counting sort of (first, second) pairs in stream
/// order — the reference both directions were historically built from.
struct RefCsr {
  std::vector<size_t> offsets;
  std::vector<NodeId> targets;
};

RefCsr PairScatter(int64_t num_nodes,
                   const std::vector<std::pair<NodeId, NodeId>>& pairs) {
  RefCsr csr;
  csr.offsets.assign(static_cast<size_t>(num_nodes) + 1, 0);
  for (const auto& [first, second] : pairs) {
    (void)second;
    ++csr.offsets[first + 1];
  }
  for (size_t i = 1; i < csr.offsets.size(); ++i) {
    csr.offsets[i] += csr.offsets[i - 1];
  }
  csr.targets.resize(pairs.size());
  std::vector<size_t> cursor(csr.offsets.begin(), csr.offsets.end() - 1);
  for (const auto& [first, second] : pairs) {
    csr.targets[cursor[first]++] = second;
  }
  return csr;
}

template <typename T>
std::vector<T> ToVec(std::span<const T> s) {
  return {s.begin(), s.end()};
}

GeneratorOptions BuildOptions(int threads, bool spill) {
  GeneratorOptions options;
  options.num_threads = threads;
  options.chunk_size = 512;  // Force many shards on 10K-node configs.
  if (spill) {
    options.spill_threshold_bytes = 0;
    options.spill_dir = ::testing::TempDir();
  }
  return options;
}

TEST(ParallelBuildTest, CsrIdenticalAcrossThreadCountsInMemoryAndSpilled) {
  const GraphConfiguration config = MakeBibConfig(10000, 42);

  // Reference: the canonical edge stream (thread-count independent,
  // pinned by determinism_test) indexed with the seed path's
  // pair-scatter — independently of Graph::Builder.
  VectorSink stream;
  ASSERT_TRUE(
      ParallelGenerateToSink(config, &stream, BuildOptions(1, false)).ok());
  ASSERT_FALSE(stream.edges().empty());

  Graph base =
      ParallelGenerateGraph(config, BuildOptions(1, false)).ValueOrDie();
  const int64_t n = base.num_nodes();

  for (PredicateId p = 0; p < base.predicate_count(); ++p) {
    std::vector<std::pair<NodeId, NodeId>> fwd_pairs, bwd_pairs;
    for (const Edge& e : stream.edges()) {
      if (e.predicate != p) continue;
      fwd_pairs.emplace_back(e.source, e.target);
      bwd_pairs.emplace_back(e.target, e.source);
    }
    const RefCsr fwd_ref = PairScatter(n, fwd_pairs);
    EXPECT_EQ(ToVec(base.OutOffsets(p)), fwd_ref.offsets) << "predicate " << p;
    EXPECT_EQ(ToVec(base.OutTargets(p)), fwd_ref.targets) << "predicate " << p;

    // Backward: transpose order differs from pair-scatter order inside
    // a bucket, but each node's neighbor multiset must match.
    const RefCsr bwd_ref = PairScatter(n, bwd_pairs);
    EXPECT_EQ(ToVec(base.InOffsets(p)), bwd_ref.offsets) << "predicate " << p;
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      auto in = base.InNeighbors(p, v);
      std::vector<NodeId> got(in.begin(), in.end());
      std::vector<NodeId> want(bwd_ref.targets.begin() + bwd_ref.offsets[v],
                               bwd_ref.targets.begin() + bwd_ref.offsets[v + 1]);
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "backward multiset mismatch at node " << v
                           << " predicate " << p;
    }
  }

  // Byte identity of every CSR array across thread counts, with and
  // without spill-backed staging.
  for (int threads : {1, 2, 8}) {
    for (bool spill : {false, true}) {
      Graph g = ParallelGenerateGraph(config, BuildOptions(threads, spill))
                    .ValueOrDie();
      ASSERT_EQ(g.num_nodes(), base.num_nodes());
      ASSERT_EQ(g.predicate_count(), base.predicate_count());
      for (PredicateId p = 0; p < base.predicate_count(); ++p) {
        EXPECT_EQ(ToVec(g.OutOffsets(p)), ToVec(base.OutOffsets(p)))
            << threads << " threads, spill=" << spill << ", predicate " << p;
        EXPECT_EQ(ToVec(g.OutTargets(p)), ToVec(base.OutTargets(p)))
            << threads << " threads, spill=" << spill << ", predicate " << p;
        EXPECT_EQ(ToVec(g.InOffsets(p)), ToVec(base.InOffsets(p)))
            << threads << " threads, spill=" << spill << ", predicate " << p;
        EXPECT_EQ(ToVec(g.InTargets(p)), ToVec(base.InTargets(p)))
            << threads << " threads, spill=" << spill << ", predicate " << p;
      }
    }
  }
}

TEST(ParallelBuildTest, SpillBackedIndexingReportsBoundedStagingMemory) {
  const GraphConfiguration config = MakeBibConfig(20000, 42);
  GenerateStats resident_stats;
  ASSERT_TRUE(ParallelGenerateGraph(config, BuildOptions(4, false),
                                    &resident_stats)
                  .ok());
  EXPECT_FALSE(resident_stats.spilled);
  EXPECT_EQ(resident_stats.peak_resident_edge_bytes,
            resident_stats.total_edges * sizeof(Edge));
  EXPECT_GT(resident_stats.index_seconds, 0.0);

  GenerateStats spill_stats;
  ASSERT_TRUE(
      ParallelGenerateGraph(config, BuildOptions(4, true), &spill_stats).ok());
  EXPECT_TRUE(spill_stats.spilled);
  EXPECT_EQ(spill_stats.total_edges, resident_stats.total_edges);
  // Staged on disk: peak resident edge bytes track in-flight chunks,
  // not the edge total — the indexed-graph path now keeps the PR 2
  // memory bound.
  EXPECT_LE(spill_stats.peak_resident_edge_bytes,
            static_cast<size_t>(4) * 512 * sizeof(Edge));
  EXPECT_LT(spill_stats.peak_resident_edge_bytes,
            resident_stats.peak_resident_edge_bytes);
}

TEST(ParallelBuildTest, DefaultOptionsGraphIsItsStreamsPairScatter) {
  // Default options (one inline thread, the default chunk): the forward
  // CSR must equal the pair-scatter of the same options' edge stream.
  const GraphConfiguration config = MakeLsnConfig(8000, 7);
  VectorSink stream;
  ASSERT_TRUE(ParallelGenerateToSink(config, &stream).ok());
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  const int64_t n = g.num_nodes();
  ASSERT_EQ(g.num_edges(), stream.edges().size());
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    std::vector<std::pair<NodeId, NodeId>> fwd_pairs;
    for (const Edge& e : stream.edges()) {
      if (e.predicate == p) fwd_pairs.emplace_back(e.source, e.target);
    }
    const RefCsr fwd_ref = PairScatter(n, fwd_pairs);
    EXPECT_EQ(ToVec(g.OutOffsets(p)), fwd_ref.offsets) << "predicate " << p;
    EXPECT_EQ(ToVec(g.OutTargets(p)), fwd_ref.targets) << "predicate " << p;
  }
}

TEST(TransposeTest, BackwardMatchesPairScatterAsMultisets) {
  // Handcrafted stream where pair-scatter and transpose bucket orders
  // genuinely differ: edges into node 2 arrive as sources 5, 1, 3.
  GraphConfiguration config;
  config.num_nodes = 6;
  ASSERT_TRUE(config.schema.AddType("t", OccurrenceConstraint::Fixed(6)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges{{5, 0, 2}, {1, 0, 2}, {3, 0, 2}, {2, 0, 4}};
  Graph g = Graph::Build(std::move(layout), 1, edges).ValueOrDie();

  // Historical pair-scatter on (target, source), stream order.
  std::vector<std::pair<NodeId, NodeId>> bwd_pairs;
  for (const Edge& e : edges) bwd_pairs.emplace_back(e.target, e.source);
  const RefCsr ref = PairScatter(6, bwd_pairs);
  ASSERT_EQ(ToVec(g.InOffsets(0)), ref.offsets);

  // Same multiset per node...
  for (NodeId v = 0; v < 6; ++v) {
    auto in = g.InNeighbors(0, v);
    std::vector<NodeId> got(in.begin(), in.end());
    std::vector<NodeId> want(ref.targets.begin() + ref.offsets[v],
                             ref.targets.begin() + ref.offsets[v + 1]);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "node " << v;
  }
  // ...but transpose order is forward-CSR order (ascending source): the
  // documented difference from the historical stream order.
  auto in2 = g.InNeighbors(0, 2);
  EXPECT_EQ((std::vector<NodeId>(in2.begin(), in2.end())),
            (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(std::vector<NodeId>(ref.targets.begin() + ref.offsets[2],
                                ref.targets.begin() + ref.offsets[2 + 1]),
            (std::vector<NodeId>{5, 1, 3}));
}

}  // namespace
}  // namespace gmark
