// End-to-end integration: XML config -> graph -> workload -> translate
// -> evaluate -> alpha fit, exercising the whole Fig. 1 workflow.

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/alpha_lab.h"
#include "core/config_xml.h"
#include "core/use_cases.h"
#include "engine/engines.h"
#include "engine/evaluator.h"
#include "graph/graph_io.h"
#include "parallel/parallel_generator.h"
#include "query/query_xml.h"
#include "translate/translator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

TEST(PipelineTest, XmlConfigDrivesIdenticalGeneration) {
  // Serializing a configuration to XML and parsing it back must produce
  // the exact same graph (determinism through the whole front end).
  GraphConfiguration original = MakeBibConfig(1500, 99);
  auto parsed = ParseGraphConfigXml(GraphConfigToXml(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  VectorSink a, b;
  ASSERT_TRUE(ParallelGenerateToSink(original, &a).ok());
  ASSERT_TRUE(ParallelGenerateToSink(*parsed, &b).ok());
  EXPECT_EQ(a.edges(), b.edges());
}

TEST(PipelineTest, NTriplesRoundTripPreservesQueryAnswers) {
  GraphConfiguration config = MakeBibConfig(800, 101);
  Graph g1 = ParallelGenerateGraph(config).ValueOrDie();
  std::ostringstream dump;
  ASSERT_TRUE(WriteNTriples(g1, config.schema, &dump).ok());
  std::istringstream in(dump.str());
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok());
  Graph g2 = Graph::Build(g1.layout(), config.schema.predicate_count(),
                          std::move(*edges))
                 .ValueOrDie();

  QueryGenerator gen(&config.schema);
  Workload workload =
      gen.Generate(MakePresetWorkload(WorkloadPreset::kCon, 6, 103))
          .ValueOrDie();
  ReferenceEvaluator e1(&g1), e2(&g2);
  for (const GeneratedQuery& gq : workload.queries) {
    EXPECT_EQ(e1.CountDistinct(gq.query).ValueOrDie(),
              e2.CountDistinct(gq.query).ValueOrDie());
  }
}

TEST(PipelineTest, WorkloadXmlRoundTripPreservesAnswers) {
  GraphConfiguration config = MakeBibConfig(800, 107);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  QueryGenerator gen(&config.schema);
  Workload workload =
      gen.Generate(MakePresetWorkload(WorkloadPreset::kRec, 6, 109))
          .ValueOrDie();
  std::string xml = QueriesToXml(workload.RawQueries(), config.schema);
  auto parsed = ParseQueriesXml(xml, config.schema);
  ASSERT_TRUE(parsed.ok());
  ReferenceEvaluator eval(&graph);
  ASSERT_EQ(parsed->size(), workload.queries.size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    EXPECT_EQ(eval.CountDistinct((*parsed)[i]).ValueOrDie(),
              eval.CountDistinct(workload.queries[i].query).ValueOrDie());
  }
}

TEST(PipelineTest, MeasuredAlphaOrdersClassesCorrectly) {
  // The paper's central quality claim in miniature: across one Len
  // workload, the mean fitted alpha of constant < linear < quadratic.
  GraphConfiguration base = MakeBibConfig(1000, 113);
  AlphaLab lab =
      AlphaLab::Create(base, {500, 1000, 2000, 4000}).ValueOrDie();
  QueryGenerator gen(&base.schema);
  Workload workload =
      gen.Generate(MakePresetWorkload(WorkloadPreset::kLen, 9, 115))
          .ValueOrDie();
  std::map<QuerySelectivity, std::vector<double>> alphas;
  for (const GeneratedQuery& gq : workload.queries) {
    auto est =
        lab.Measure(gq.query, ResourceBudget::Limited(120.0, 100000000));
    ASSERT_TRUE(est.ok()) << est.status();
    alphas[*gq.target_class].push_back(est->alpha);
  }
  auto mean = [&](QuerySelectivity c) {
    double s = 0;
    for (double a : alphas[c]) s += a;
    return s / static_cast<double>(alphas[c].size());
  };
  double constant = mean(QuerySelectivity::kConstant);
  double linear = mean(QuerySelectivity::kLinear);
  double quadratic = mean(QuerySelectivity::kQuadratic);
  EXPECT_LT(constant, 0.6);
  EXPECT_GT(linear, constant + 0.3);
  EXPECT_GT(quadratic, linear + 0.2);
}

TEST(PipelineTest, TranslationsExistForEveryWorkloadQuery) {
  GraphConfiguration config = MakeLsnConfig(5000, 117);
  QueryGenerator gen(&config.schema);
  Workload workload =
      gen.Generate(MakePresetWorkload(WorkloadPreset::kCon, 9, 119))
          .ValueOrDie();
  for (const GeneratedQuery& gq : workload.queries) {
    for (QueryLanguage lang : AllQueryLanguages()) {
      EXPECT_TRUE(TranslateQuery(gq.query, config.schema, lang).ok());
    }
  }
}

TEST(PipelineTest, EnginesProcessGeneratedRecursiveWorkload) {
  // Small-scale Table 4 rehearsal: D completes every recursive query.
  GraphConfiguration config = MakeBibConfig(500, 121);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  QueryGenerator gen(&config.schema);
  Workload workload =
      gen.Generate(MakePresetWorkload(WorkloadPreset::kRec, 6, 123))
          .ValueOrDie();
  auto d = MakeEngine(EngineKind::kDatalog);
  ReferenceEvaluator reference(&graph);
  for (const GeneratedQuery& gq : workload.queries) {
    auto got = d->Evaluate(graph, gq.query,
                           ResourceBudget::Limited(120.0, 50000000));
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(got.ValueOrDie(),
              reference.CountDistinct(gq.query).ValueOrDie());
  }
}

}  // namespace
}  // namespace gmark
