// The indexed-generation contract (Graph::Build over re-emitted
// chunks): the CSRs of ParallelGenerateGraph are a pure function of
// the canonical edge stream — identical node by node at 1/2/8 threads,
// with the forward CSR matching a seed-style pair-scatter counting sort
// of that stream exactly, and the transpose-derived backward CSR
// holding the same per-node neighbor multisets the historical
// (target, source) pair scatter produced — while only the kept slot
// vectors, never the edges, are held for the replays.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "core/graph_config.h"
#include "core/use_cases.h"
#include "csr_spans.h"
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

/// Node v's run of a reference CSR, in reference order.
std::vector<NodeId> RefRun(const RefCsr& ref, NodeId v) {
  return {ref.targets.begin() + ref.offsets[v],
          ref.targets.begin() + ref.offsets[v + 1]};
}

/// The forward CSR of `p` is the reference: every node's OutNeighbors
/// span equals its reference run, order included, and the edge count
/// equals the reference's.
void ExpectForwardIsRef(const Graph& g, PredicateId p, const RefCsr& ref) {
  EXPECT_EQ(g.EdgeCount(p), ref.targets.size()) << "predicate " << p;
  for (NodeId v = 0; v < static_cast<NodeId>(g.num_nodes()); ++v) {
    ASSERT_EQ(SpanVec(g.OutNeighbors(p, v)), RefRun(ref, v))
        << "predicate " << p << ", node " << v;
  }
}

GeneratorOptions BuildOptions(int threads) {
  GeneratorOptions options;
  options.num_threads = threads;
  options.chunk_size = 512;  // Force many chunks on 10K-node configs.
  return options;
}

TEST(ParallelBuildTest, CsrIdenticalAcrossThreadCounts) {
  const GraphConfiguration config = MakeBibConfig(10000, 42);

  // Reference: the canonical edge stream (thread-count independent,
  // pinned by determinism_test) indexed with the seed path's
  // pair-scatter — independently of Graph::Build.
  VectorSink stream;
  ASSERT_TRUE(
      ParallelGenerateToSink(config, &stream, BuildOptions(1)).ok());
  ASSERT_FALSE(stream.edges().empty());

  Graph base =
      ParallelGenerateGraph(config, BuildOptions(1)).ValueOrDie();
  const int64_t n = base.num_nodes();

  for (PredicateId p = 0; p < base.predicate_count(); ++p) {
    std::vector<std::pair<NodeId, NodeId>> fwd_pairs, bwd_pairs;
    for (const Edge& e : stream.edges()) {
      if (e.predicate != p) continue;
      fwd_pairs.emplace_back(e.source, e.target);
      bwd_pairs.emplace_back(e.target, e.source);
    }
    ExpectForwardIsRef(base, p, PairScatter(n, fwd_pairs));

    // Backward: transpose order differs from pair-scatter order inside
    // a bucket, but each node's in-degree and neighbor multiset must
    // match.
    const RefCsr bwd_ref = PairScatter(n, bwd_pairs);
    for (NodeId v = 0; v < static_cast<NodeId>(n); ++v) {
      std::vector<NodeId> got = SpanVec(base.InNeighbors(p, v));
      std::vector<NodeId> want = RefRun(bwd_ref, v);
      ASSERT_EQ(got.size(), want.size())
          << "in-degree mismatch at node " << v << " predicate " << p;
      std::sort(got.begin(), got.end());
      std::sort(want.begin(), want.end());
      ASSERT_EQ(got, want) << "backward multiset mismatch at node " << v
                           << " predicate " << p;
    }
  }

  // Identity of every node's spans, both directions, across thread
  // counts.
  for (int threads : {1, 2, 8}) {
    Graph g = ParallelGenerateGraph(config, BuildOptions(threads))
                  .ValueOrDie();
    ExpectSameAdjacency(base, g, std::to_string(threads) + " threads");
  }
}

TEST(ParallelBuildTest, IndexingHoldsFourBytesPerKeptSlot) {
  // One constraint per predicate, so each predicate's edge count is its
  // constraint's: "both" materializes both sides, "out" only the out
  // side, and "none" neither (a non-specified side and a Gaussian side
  // under the fast path are sampled per edge).
  GraphConfiguration config;
  config.num_nodes = 20000;
  config.seed = 42;
  GraphSchema& s = config.schema;
  ASSERT_TRUE(s.AddType("a", OccurrenceConstraint::Proportion(0.5)).ok());
  ASSERT_TRUE(s.AddType("b", OccurrenceConstraint::Proportion(0.5)).ok());
  ASSERT_TRUE(s.AddPredicate("both").ok());
  ASSERT_TRUE(s.AddPredicate("out").ok());
  ASSERT_TRUE(s.AddPredicate("none").ok());
  ASSERT_TRUE(s.AddEdgeConstraintByName("a", "both", "b",
                                        DistributionSpec::Uniform(1, 3),
                                        DistributionSpec::Uniform(1, 5))
                  .ok());
  ASSERT_TRUE(s.AddEdgeConstraintByName("a", "out", "b",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(2, 4))
                  .ok());
  ASSERT_TRUE(s.AddEdgeConstraintByName("b", "none", "a",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Gaussian(3, 1))
                  .ok());
  for (int threads : {1, 4}) {
    GenerateStats stats;
    Graph g = ParallelGenerateGraph(config, BuildOptions(threads), &stats)
                  .ValueOrDie();
    ASSERT_GT(g.EdgeCount(2), 0u);
    EXPECT_EQ(stats.total_edges, g.num_edges());
    // The larger side of "both" is trimmed to the edge count, so every
    // materialized side keeps exactly one 4-byte slot per edge.
    EXPECT_EQ(stats.peak_resident_edge_bytes,
              4 * (2 * g.EdgeCount(0) + g.EdgeCount(1)))
        << threads << " threads";
    EXPECT_LE(stats.peak_resident_edge_bytes, 8 * stats.total_edges);
    EXPECT_LT(stats.peak_resident_edge_bytes,
              stats.total_edges * sizeof(Edge));
    EXPECT_GT(stats.index_seconds, 0.0);
  }
}

TEST(ParallelBuildTest, DefaultOptionsGraphIsItsStreamsPairScatter) {
  // Default options (one inline thread, the default chunk), then 2 and
  // 8 threads with a small chunk, so that multi-chunk constraints are
  // re-emitted across chunk groups: the forward CSR must equal the
  // pair-scatter of the same options' edge stream.
  const GraphConfiguration config = MakeLsnConfig(8000, 7);
  for (const GeneratorOptions& options :
       {GeneratorOptions(), BuildOptions(2), BuildOptions(8)}) {
    const std::string label = std::to_string(options.num_threads) +
                              " threads, chunk " +
                              std::to_string(options.chunk_size);
    VectorSink stream;
    ASSERT_TRUE(ParallelGenerateToSink(config, &stream, options).ok());
    Graph g = ParallelGenerateGraph(config, options).ValueOrDie();
    const int64_t n = g.num_nodes();
    ASSERT_EQ(g.num_edges(), stream.edges().size()) << label;
    for (PredicateId p = 0; p < g.predicate_count(); ++p) {
      std::vector<std::pair<NodeId, NodeId>> fwd_pairs;
      for (const Edge& e : stream.edges()) {
        if (e.predicate == p) fwd_pairs.emplace_back(e.source, e.target);
      }
      SCOPED_TRACE(label);
      ExpectForwardIsRef(g, p, PairScatter(n, fwd_pairs));
    }
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

  // Same in-degree and multiset per node...
  for (NodeId v = 0; v < 6; ++v) {
    std::vector<NodeId> got = SpanVec(g.InNeighbors(0, v));
    std::vector<NodeId> want = RefRun(ref, v);
    ASSERT_EQ(got.size(), want.size()) << "node " << v;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    EXPECT_EQ(got, want) << "node " << v;
  }
  // ...but transpose order is forward-CSR order (ascending source): the
  // documented difference from the historical stream order.
  auto in2 = g.InNeighbors(0, 2);
  EXPECT_EQ((std::vector<NodeId>(in2.begin(), in2.end())),
            (std::vector<NodeId>{1, 3, 5}));
  EXPECT_EQ(RefRun(ref, 2), (std::vector<NodeId>{5, 1, 3}));
}

}  // namespace
}  // namespace gmark
