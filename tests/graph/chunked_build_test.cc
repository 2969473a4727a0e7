// The intra-predicate chunked build contract (Graph::Build over
// streams): splitting one predicate's edge stream into chunk groups —
// counted with private histograms, scanned into disjoint scatter
// slices, scattered lock-free — never changes either CSR's adjacency,
// at any thread count and so any group cap, even when one predicate
// owns ~90% of the edges; the overfull/underfull bucket guards still
// reject a chunked stream that fails to replay identically; and a bad
// node-range hint fails the build before any stream is replayed.

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

GeneratorOptions BuildOptions(int threads) {
  GeneratorOptions options;
  options.num_threads = threads;
  options.chunk_size = 512;  // Many chunks, so grouping has work to do.
  return options;
}

TEST(ChunkedBuildTest, SkewedSchemaIdenticalAcrossThreadsAndGroups) {
  const GraphConfiguration config = MakeSkewedConfig(20000, 42);

  // Verify the skew premise: the big predicate really dominates.
  GenerateStats base_stats;
  Graph base =
      ParallelGenerateGraph(config, BuildOptions(1), &base_stats).ValueOrDie();
  ASSERT_GT(base.EdgeCount(0),
            (base.num_edges() * 4) / 5);  // "big" owns >80%.

  // One thread caps every predicate at one group: exactly the historical
  // per-predicate-task build, so `base` doubles as the pre-chunking
  // reference, which a second 1-thread build must repeat. 2, 3 and 8
  // threads cap a predicate at 4, 6 and 16 groups, and each must
  // reproduce it byte for byte.
  for (int threads : {1, 2, 3, 8}) {
    Graph g = ParallelGenerateGraph(config, BuildOptions(threads)).ValueOrDie();
    ExpectSameAdjacency(base, g, "threads=" + std::to_string(threads));
  }
}

TEST(ChunkedBuildTest, AutoGroupingEngagesIntraPredicateParallelism) {
  const GraphConfiguration config = MakeSkewedConfig(20000, 42);
  GenerateStats serial_stats;
  ASSERT_TRUE(
      ParallelGenerateGraph(config, BuildOptions(1), &serial_stats).ok());
  EXPECT_EQ(serial_stats.index_forward_groups, 3u);  // One per predicate.

  GenerateStats chunked_stats;
  ASSERT_TRUE(
      ParallelGenerateGraph(config, BuildOptions(8), &chunked_stats).ok());
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

  /// Hints span the whole `n`-node layout.
  Graph::StreamSpec Spec(NodeId n) {
    replays->assign(chunks.size(), 0);
    Graph::StreamSpec spec;
    for (const std::vector<Edge>& chunk : chunks) {
      spec.chunk_edges.push_back(chunk.size());
    }
    spec.source_end = spec.target_end = n;
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

/// The path 0 -> 1 -> ... -> 2 * kPerChunk in two chunks of kPerChunk
/// edges: on two workers (a cap of 4 groups, a 4096-edge group floor)
/// the build splits it into two groups of one chunk each.
constexpr size_t kPerChunk = 5000;
constexpr NodeId kPathNodes = 2 * kPerChunk + 1;

TamperableStream TwoGroupPath() {
  TamperableStream stream;
  stream.chunks.resize(2);
  for (NodeId v = 0; v + 1 < kPathNodes; ++v) {
    stream.chunks[v / kPerChunk].push_back({v, 0, v + 1});
  }
  return stream;
}

/// Build one predicate from `spec` on a `workers`-thread executor.
Result<Graph> BuildOne(NodeLayout layout, Graph::StreamSpec spec,
                       int workers, Graph::BuildStats* stats = nullptr) {
  std::vector<Graph::StreamSpec> streams;
  streams.push_back(std::move(spec));
  Executor executor(workers);
  return Graph::Build(std::move(layout), std::move(streams), &executor,
                      stats);
}

void ExpectReplayMismatch(const Result<Graph>& result) {
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().ToString().find("changed between passes") !=
              std::string::npos)
      << result.status().ToString();
}

TEST(ChunkedBuildTest, OverfullReplayMismatchIsRejected) {
  // Split across two groups: the tampered chunk is the first group's.
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(kPathNodes, &config);
  TamperableStream stream = TwoGroupPath();
  stream.tamper_chunk = 0;
  stream.tamper = TamperableStream::kExtraEdge;
  Graph::BuildStats stats;
  ExpectReplayMismatch(
      BuildOne(std::move(layout), stream.Spec(kPathNodes), 2, &stats));
  EXPECT_EQ(stats.forward_groups, 2u);
}

TEST(ChunkedBuildTest, UnderfullReplayMismatchIsRejected) {
  // Split across two groups: the tampered chunk is the second group's.
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(kPathNodes, &config);
  TamperableStream stream = TwoGroupPath();
  stream.tamper_chunk = 1;
  stream.tamper = TamperableStream::kDroppedEdge;
  Graph::BuildStats stats;
  ExpectReplayMismatch(
      BuildOne(std::move(layout), stream.Spec(kPathNodes), 2, &stats));
  EXPECT_EQ(stats.forward_groups, 2u);
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
  Graph::StreamSpec spec = stream.Spec(8);
  spec.target_begin = 1;
  spec.target_end = 7;  // Node 7 is in the layout but outside the hint.
  ExpectReplayMismatch(BuildOne(std::move(layout), std::move(spec), 1));
}

TEST(ChunkedBuildTest, UntamperedChunkedStreamMatchesVectorBuild) {
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(kPathNodes, &config);
  TamperableStream stream = TwoGroupPath();
  std::vector<Edge> edges = stream.chunks[0];
  edges.insert(edges.end(), stream.chunks[1].begin(), stream.chunks[1].end());
  Graph reference =
      Graph::Build(NodeLayout(layout), 1, edges).ValueOrDie();
  Graph::BuildStats stats;
  Graph g = BuildOne(std::move(layout), stream.Spec(kPathNodes), 2, &stats)
                .ValueOrDie();
  EXPECT_EQ(stats.forward_groups, 2u);
  ExpectSameAdjacency(reference, g, "chunked vs vector build");
}

TEST(ChunkedBuildTest, EdgeOutsideDeclaredNodeRangeFailsTheBuild) {
  GraphConfiguration config;
  NodeLayout layout = TinyLayout(8, &config);
  TamperableStream stream;
  stream.chunks = {{{0, 0, 1}, {5, 0, 2}}};  // Source 5 outside the hint.
  Graph::StreamSpec spec = stream.Spec(8);
  spec.source_begin = 0;
  spec.source_end = 4;
  auto result = BuildOne(std::move(layout), std::move(spec), 1);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().ToString().find("declared node range") !=
              std::string::npos)
      << result.status().ToString();
}

TEST(ChunkedBuildTest, BadHintFailsBeforeAnyReplay) {
  // Predicate 0 is valid and predicate 1's hint is bad: the build must
  // reject the hint before it replays predicate 0's stream.
  struct BadHint {
    const char* label;
    NodeId begin;
    NodeId end;
  };
  for (const BadHint& bad : {BadHint{"past the layout", 0, 9},
                             BadHint{"begin > end", 5, 3}}) {
    GraphConfiguration config;
    NodeLayout layout = TinyLayout(8, &config);
    bool replayed = false;
    const std::vector<Edge> edges{{0, 0, 1}};
    std::vector<Graph::StreamSpec> streams(2);
    for (PredicateId p : {0u, 1u}) {
      Graph::StreamSpec& spec = streams[p];
      spec.chunk_edges = {1};
      spec.source_end = spec.target_end = 8;
      spec.stream = [&, p](size_t, size_t,
                           const Graph::EdgeBlockVisitor& visit) {
        replayed = true;
        std::vector<Edge> block = edges;
        block[0].predicate = p;
        return visit(block);
      };
    }
    streams[1].target_begin = bad.begin;
    streams[1].target_end = bad.end;
    Executor inline_executor(1);
    Result<Graph> built =
        Graph::Build(std::move(layout), std::move(streams), &inline_executor);
    ASSERT_FALSE(built.ok()) << bad.label;
    EXPECT_EQ(built.status().code(), StatusCode::kOutOfRange) << bad.label;
    EXPECT_FALSE(replayed) << bad.label;
  }
}

}  // namespace
}  // namespace gmark
