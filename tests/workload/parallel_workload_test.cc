// The parallel workload generator's contract: the workload is a pure
// function of the configuration — byte-identical XML (queries, names,
// AND skip records) at 1/2/8 threads, with the serial
// QueryGenerator::Generate being the 1-thread special case.

#include "workload/parallel_workload.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/use_cases.h"
#include "query/query_xml.h"
#include "util/string_util.h"
#include "workload/presets.h"

namespace gmark {
namespace {

ParallelWorkloadOptions WithThreads(int num_threads) {
  ParallelWorkloadOptions options;
  options.num_threads = num_threads;
  return options;
}

std::string GenerateXml(const GraphSchema& schema,
                        const WorkloadConfiguration& config,
                        const ParallelWorkloadOptions& options) {
  QueryGenerator generator(&schema);
  auto workload = ParallelGenerateWorkload(generator, config, options);
  EXPECT_TRUE(workload.ok()) << workload.status();
  if (!workload.ok()) return "";
  return workload->ToXml(schema);
}

/// A schema where quadratic and constant chains are structurally
/// infeasible, so two of every three selectivity-controlled requests
/// skip (mirrors the serial generator's skip test).
GraphConfiguration MakeSkippingConfig() {
  GraphConfiguration config;
  config.num_nodes = 100;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Proportion(1.0)).ok());
  EXPECT_TRUE(config.schema.AddPredicate("p").ok());
  EXPECT_TRUE(config.schema
                  .AddEdgeConstraintByName("t", "p", "t",
                                           DistributionSpec::Uniform(1, 2),
                                           DistributionSpec::Uniform(1, 2))
                  .ok());
  return config;
}

TEST(ParallelWorkloadTest, GenerateMatchesTheDocumentedPerIndexContract) {
  // Pin the output contract independently of the implementation:
  // request i uses shape shapes[i % |shapes|], class
  // selectivities[i % |selectivities|], the RNG stream
  // DeriveSeed(seed, i, kWorkloadQueryPhase), and the name "q<i>".
  // QueryGenerator::Generate (the 1-thread special case) must
  // reproduce exactly the workload this loop builds by hand.
  GraphConfiguration config = MakeBibConfig(10000);
  QueryGenerator generator(&config.schema);
  WorkloadConfiguration wconfig =
      MakePresetWorkload(WorkloadPreset::kCon, 12, 7);
  const WorkloadTables tables = generator.BuildTables(wconfig).ValueOrDie();

  Workload expected;
  expected.name = wconfig.name;
  for (size_t i = 0; i < wconfig.num_queries; ++i) {
    const QueryShape shape = wconfig.shapes[i % wconfig.shapes.size()];
    std::optional<QuerySelectivity> target =
        wconfig.selectivities[i % wconfig.selectivities.size()];
    RandomEngine rng(DeriveSeed(wconfig.seed, i,
                                internal::kWorkloadQueryPhase));
    auto one = generator.GenerateOne(wconfig, shape, target, tables, &rng);
    if (!one.ok()) continue;
    GeneratedQuery gq = std::move(one).ValueOrDie();
    gq.query.name = StrCat("q", i);
    expected.queries.push_back(std::move(gq));
  }
  ASSERT_FALSE(expected.queries.empty());

  Workload actual = generator.Generate(wconfig).ValueOrDie();
  ASSERT_EQ(actual.queries.size(), expected.queries.size());
  for (size_t i = 0; i < actual.queries.size(); ++i) {
    EXPECT_EQ(actual.queries[i].query, expected.queries[i].query)
        << "query " << i << " diverges from the per-index contract";
    EXPECT_EQ(actual.queries[i].query.name, expected.queries[i].query.name);
  }
}

TEST(ParallelWorkloadTest, ControlledChainsIdenticalAcrossThreadCounts) {
  for (WorkloadPreset preset : AllWorkloadPresets()) {
    GraphConfiguration config = MakeBibConfig(10000);
    WorkloadConfiguration wconfig = MakePresetWorkload(preset, 12, 7);
    const std::string base =
        GenerateXml(config.schema, wconfig, WithThreads(1));
    ASSERT_FALSE(base.empty());
    for (int threads : {2, 8}) {
      EXPECT_EQ(base, GenerateXml(config.schema, wconfig,
                                  WithThreads(threads)))
          << WorkloadPresetName(preset) << " changed at " << threads
          << " threads";
    }
  }
  // Every shipped schema, SP and WD included, with some recursion.
  for (UseCase use_case : AllUseCases()) {
    GraphConfiguration config = MakeUseCase(use_case, 10000);
    WorkloadConfiguration wconfig =
        MakePresetWorkload(WorkloadPreset::kCon, 30, 29);
    wconfig.recursion_probability = 0.1;
    const std::string base =
        GenerateXml(config.schema, wconfig, WithThreads(1));
    ASSERT_NE(base.find("<query "), std::string::npos)
        << UseCaseName(use_case) << " generated no queries";
    for (int threads : {2, 8}) {
      EXPECT_EQ(base, GenerateXml(config.schema, wconfig,
                                  WithThreads(threads)))
          << UseCaseName(use_case) << " changed at " << threads
          << " threads";
    }
  }
}

class ShapeInvarianceTest : public ::testing::TestWithParam<QueryShape> {};

TEST_P(ShapeInvarianceTest, FreeShapesIdenticalAcrossThreadCounts) {
  GraphConfiguration config = MakeLsnConfig(10000);
  WorkloadConfiguration wconfig;
  wconfig.num_queries = 10;
  wconfig.selectivity_control = false;
  wconfig.shapes = {GetParam()};
  wconfig.arity = IntRange::Between(0, 3);
  wconfig.size.conjuncts = IntRange::Between(3, 4);
  wconfig.size.disjuncts = IntRange::Between(1, 2);
  wconfig.size.path_length = IntRange::Between(1, 3);
  wconfig.recursion_probability = 0.3;
  wconfig.seed = 19;
  const std::string base = GenerateXml(config.schema, wconfig, WithThreads(1));
  ASSERT_FALSE(base.empty());
  for (int threads : {2, 8}) {
    EXPECT_EQ(base, GenerateXml(config.schema, wconfig, WithThreads(threads)))
        << QueryShapeName(GetParam()) << " changed at " << threads
        << " threads";
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, ShapeInvarianceTest,
                         ::testing::Values(QueryShape::kChain,
                                           QueryShape::kStar,
                                           QueryShape::kCycle,
                                           QueryShape::kStarChain),
                         [](const auto& info) {
                           return std::string(QueryShapeName(info.param));
                         });

TEST(ParallelWorkloadTest, SkipRecordsIdenticalAcrossThreadCounts) {
  // Skips must merge back in request-index order too, not just queries.
  GraphConfiguration config = MakeSkippingConfig();
  WorkloadConfiguration wconfig = MakePresetWorkload(WorkloadPreset::kLen, 9);
  QueryGenerator generator(&config.schema);
  Workload base =
      ParallelGenerateWorkload(generator, wconfig, WithThreads(1))
          .ValueOrDie();
  EXPECT_EQ(base.queries.size(), 3u);
  EXPECT_EQ(base.skipped.size(), 6u);
  for (int threads : {2, 8}) {
    Workload w =
        ParallelGenerateWorkload(generator, wconfig, WithThreads(threads))
            .ValueOrDie();
    EXPECT_EQ(base.ToXml(config.schema), w.ToXml(config.schema))
        << "skips reordered at " << threads << " threads";
  }
}

TEST(ParallelWorkloadTest, HardwareConcurrencyAliasMatchesExplicit) {
  GraphConfiguration config = MakeBibConfig(10000);
  WorkloadConfiguration wconfig =
      MakePresetWorkload(WorkloadPreset::kRec, 12, 11);
  EXPECT_EQ(GenerateXml(config.schema, wconfig, WithThreads(0)),
            GenerateXml(config.schema, wconfig, WithThreads(3)));
}

TEST(ParallelWorkloadTest, DifferentSeedsDiffer) {
  GraphConfiguration config = MakeBibConfig(10000);
  WorkloadConfiguration wconfig =
      MakePresetWorkload(WorkloadPreset::kCon, 12, 7);
  const std::string a = GenerateXml(config.schema, wconfig, WithThreads(4));
  wconfig.seed = 999;
  EXPECT_NE(a, GenerateXml(config.schema, wconfig, WithThreads(4)));
}

TEST(ParallelWorkloadTest, RepeatedRunsAreIdentical) {
  GraphConfiguration config = MakeWdConfig(10000);
  WorkloadConfiguration wconfig =
      MakePresetWorkload(WorkloadPreset::kDis, 12, 23);
  const std::string first =
      GenerateXml(config.schema, wconfig, WithThreads(8));
  for (int run = 0; run < 3; ++run) {
    EXPECT_EQ(first, GenerateXml(config.schema, wconfig, WithThreads(8)))
        << "run " << run;
  }
}

TEST(ParallelWorkloadTest, InvalidConfigurationIsRejected) {
  GraphConfiguration config = MakeBibConfig(10000);
  QueryGenerator generator(&config.schema);
  WorkloadConfiguration wconfig = MakePresetWorkload(WorkloadPreset::kCon);
  wconfig.size.conjuncts = IntRange::Between(3, 2);  // inverted
  auto workload = ParallelGenerateWorkload(generator, wconfig, WithThreads(4));
  EXPECT_FALSE(workload.ok());
}

}  // namespace
}  // namespace gmark
