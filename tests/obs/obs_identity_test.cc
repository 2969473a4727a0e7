// The observability contract that matters most: installing the metric
// registry and tracer must not perturb any computed output, at any
// thread count. Generation, indexing, and workload generation run with
// obs off (baseline) and obs on, and every byte-visible artifact must
// match exactly.

#include <gtest/gtest.h>

#include <optional>
#include <utility>
#include <vector>

#include "core/use_cases.h"
#include "engine/engines.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_generator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

std::vector<Edge> GenerateEdgesWith(int num_threads, bool obs) {
  std::optional<MetricRegistry> registry;
  std::optional<Tracer> tracer;
  std::optional<ScopedGlobalMetrics> scoped_metrics;
  std::optional<ScopedGlobalTracer> scoped_tracer;
  if (obs) {
    registry.emplace();
    tracer.emplace();
    scoped_metrics.emplace(&*registry);
    scoped_tracer.emplace(&*tracer);
  }
  GeneratorOptions options;
  options.num_threads = num_threads;
  options.chunk_size = 512;  // force multi-chunk fan-out at 10K nodes
  VectorSink sink;
  Status st =
      ParallelGenerateToSink(MakeBibConfig(10000, 42), &sink, options);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return sink.edges();
}

TEST(ObsIdentityTest, EdgeStreamUnchangedByObservability) {
  const std::vector<Edge> baseline = GenerateEdgesWith(1, /*obs=*/false);
  ASSERT_FALSE(baseline.empty());
  for (int threads : {1, 2, 8}) {
    EXPECT_EQ(baseline, GenerateEdgesWith(threads, /*obs=*/true))
        << "obs enabled at " << threads << " threads changed the stream";
  }
}

std::vector<std::pair<NodeId, NodeId>> CollectEdges(const Graph& g,
                                                    PredicateId p) {
  std::vector<std::pair<NodeId, NodeId>> out;
  g.ForEachEdge(p, [&out](NodeId s, NodeId t) { out.emplace_back(s, t); });
  return out;
}

TEST(ObsIdentityTest, IndexedGraphUnchangedByObservability) {
  GeneratorOptions options;
  options.num_threads = 2;
  const GraphConfiguration config = MakeBibConfig(10000, 13);
  Graph baseline = ParallelGenerateGraph(config, options).ValueOrDie();

  for (int threads : {1, 2, 8}) {
    MetricRegistry registry;
    Tracer tracer;
    ScopedGlobalMetrics scoped_metrics(&registry);
    ScopedGlobalTracer scoped_tracer(&tracer);
    options.num_threads = threads;
    Graph g = ParallelGenerateGraph(config, options).ValueOrDie();
    ASSERT_EQ(baseline.num_nodes(), g.num_nodes());
    ASSERT_EQ(baseline.predicate_count(), g.predicate_count());
    for (PredicateId p = 0; p < baseline.predicate_count(); ++p) {
      EXPECT_EQ(CollectEdges(baseline, p), CollectEdges(g, p))
          << "predicate " << p << " at " << threads << " threads";
    }
    EXPECT_GT(tracer.event_count(), 0u);  // spans really were recording
  }
}

TEST(ObsIdentityTest, WorkloadAndQueryResultsUnchangedByObservability) {
  const GraphConfiguration config = MakeBibConfig(2000, 7);
  GeneratorOptions options;
  options.num_threads = 2;
  Graph graph = ParallelGenerateGraph(config, options).ValueOrDie();

  auto run = [&](bool obs) {
    std::optional<MetricRegistry> registry;
    std::optional<ScopedGlobalMetrics> scoped;
    if (obs) {
      registry.emplace();
      scoped.emplace(&*registry);
    }
    GraphConfiguration local = config;
    QueryGenerator generator(&local.schema);
    Workload workload =
        generator.Generate(MakePresetWorkload(WorkloadPreset::kCon, 4, 19))
            .ValueOrDie();
    std::vector<uint64_t> counts;
    auto engine = MakeEngine(EngineKind::kSparql);
    for (const GeneratedQuery& gq : workload.queries) {
      EvalProfile profile;
      EvalContext ctx;
      ctx.profile = &profile;
      auto result = engine->Evaluate(graph, gq.query,
                                     ResourceBudget::Unlimited(),
                                     obs ? &ctx : nullptr);
      counts.push_back(result.ok() ? result.ValueOrDie() : ~uint64_t{0});
    }
    return counts;
  };

  EXPECT_EQ(run(false), run(true));
}

}  // namespace
}  // namespace gmark
