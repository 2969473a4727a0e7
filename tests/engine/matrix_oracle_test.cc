// The matrix oracle (matrix_oracle.h) against hand-counted answers, and
// then against the P/S/D engines and the reference evaluator on gMark's
// own workloads. The oracle shares no code with any of them, so these
// agreements do not compare the plan executor or the relational
// kernels with themselves.

#include "matrix_oracle.h"

#include <gtest/gtest.h>

#include "core/use_cases.h"
#include "engine/engines.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"
#include "plan/planner.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

using testing_oracle::BoolMatrix;
using testing_oracle::MatrixOracle;

Graph HandGraph(size_t num_nodes, PredicateId predicates,
                std::vector<Edge> edges) {
  GraphConfiguration config;
  config.num_nodes = static_cast<int64_t>(num_nodes);
  EXPECT_TRUE(config.schema
                  .AddType("t", OccurrenceConstraint::Fixed(
                                    static_cast<int64_t>(num_nodes)))
                  .ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  return Graph::Build(std::move(layout), predicates, std::move(edges))
      .ValueOrDie();
}

Query Chain(std::vector<RegularExpression> exprs, std::vector<VarId> head) {
  QueryRule rule;
  for (size_t i = 0; i < exprs.size(); ++i) {
    rule.body.push_back(Conjunct{static_cast<VarId>(i),
                                 static_cast<VarId>(i + 1),
                                 std::move(exprs[i])});
  }
  rule.head = std::move(head);
  Query q;
  q.rules = {rule};
  return q;
}

TEST(MatrixOracleTest, MatrixAlgebra) {
  BoolMatrix chain(4);
  chain.Set(0, 1);
  chain.Set(1, 2);
  chain.Set(2, 3);
  BoolMatrix two = chain.Times(chain);
  EXPECT_TRUE(two.Get(0, 2));
  EXPECT_TRUE(two.Get(1, 3));
  EXPECT_FALSE(two.Get(0, 1));
  BoolMatrix star = chain.Star();
  size_t set = 0;
  for (size_t i = 0; i < 4; ++i) {
    for (size_t j = 0; j < 4; ++j) {
      set += star.Get(i, j);
      EXPECT_EQ(star.Get(i, j), i <= j) << i << "," << j;
    }
  }
  EXPECT_EQ(set, 10u);
  EXPECT_TRUE(chain.Transpose().Get(3, 2));
}

TEST(MatrixOracleTest, HandCountsOnPathGraph) {
  // a: 0 -> 1 -> 2 -> 3, b: 3 -> 0 (engine_common_test's path graph).
  Graph g = HandGraph(4, 2, {{0, 0, 1}, {1, 0, 2}, {2, 0, 3}, {3, 1, 0}});
  MatrixOracle oracle(g);
  const Symbol a = Symbol::Fwd(0);
  const Symbol b = Symbol::Fwd(1);
  EXPECT_EQ(oracle.CountDistinct(Chain({RegularExpression::Path({a, a})},
                                       {0, 1})),
            2u);
  EXPECT_EQ(oracle.CountDistinct(
                Chain({RegularExpression::Path({a, a, b})}, {0, 1})),
            1u);
  RegularExpression a_star = RegularExpression::Atom(a);
  a_star.star = true;
  EXPECT_EQ(oracle.CountDistinct(Chain({a_star}, {0, 1})), 10u);
  // a^- . a^-: the reversed pairs of a . a.
  EXPECT_EQ(oracle.CountDistinct(Chain(
                {RegularExpression::Path({Symbol::Inv(0), Symbol::Inv(0)})},
                {0, 1})),
            2u);
  // (a + b)*: every node reaches every node around the cycle.
  RegularExpression cycle;
  cycle.disjuncts = {{a}, {b}};
  cycle.star = true;
  EXPECT_EQ(oracle.CountDistinct(Chain({cycle}, {0, 1})), 16u);
  // Same variable at both ends: only cycles survive.
  Query loop = Chain({RegularExpression::Path({a, a, a, b})}, {0});
  loop.rules[0].body[0].target = 0;
  EXPECT_EQ(oracle.CountDistinct(loop), 1u);
}

TEST(MatrixOracleTest, HandCountsFromEnginesTest) {
  // engines_test's star graph: 0 -> 1..20 over one predicate.
  std::vector<Edge> edges;
  for (NodeId i = 1; i <= 20; ++i) edges.push_back(Edge{0, 0, i});
  Graph star = HandGraph(21, 1, edges);
  MatrixOracle oracle(star);
  const RegularExpression a = RegularExpression::Atom(Symbol::Fwd(0));
  EXPECT_EQ(oracle.CountDistinct(Chain({a}, {0})), 1u);
  EXPECT_EQ(oracle.CountDistinct(Chain({a}, {0, 1})), 20u);
  EXPECT_EQ(oracle.CountDistinct(Chain({a}, {})), 1u);
  // Two identical rules: the union counts each tuple once.
  Query twice = Chain({a}, {0, 1});
  twice.rules.push_back(twice.rules[0]);
  EXPECT_EQ(oracle.CountDistinct(twice), 20u);
  // Diamond (engine_common_test): two routes 0 -> 3 are one pair.
  Graph diamond = HandGraph(4, 1, {{0, 0, 1}, {0, 0, 2}, {1, 0, 3},
                                   {2, 0, 3}});
  EXPECT_EQ(MatrixOracle(diamond).CountDistinct(Chain(
                {RegularExpression::Path({Symbol::Fwd(0), Symbol::Fwd(0)})},
                {0, 1})),
            1u);
  // A two-conjunct star query: x <- 0 -> y has 20 x 20 heads.
  Query fan = Chain({RegularExpression::Atom(Symbol::Inv(0)), a}, {0, 2});
  EXPECT_EQ(oracle.CountDistinct(fan), 400u);
}

// P/S/D and the reference evaluator against the oracle, plan on and
// off, on every preset's generated workload.
class OracleAgreementTest
    : public ::testing::TestWithParam<std::tuple<WorkloadPreset, int64_t>> {};

TEST_P(OracleAgreementTest, EnginesMatchOracle) {
  const auto [preset, n] = GetParam();
  GraphConfiguration config = MakeBibConfig(n, 11);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  MatrixOracle oracle(graph);
  Planner planner(&config.schema);
  Workload workload = QueryGenerator(&config.schema)
                          .Generate(MakePresetWorkload(preset, 16, 17))
                          .ValueOrDie();
  const ResourceBudget budget = ResourceBudget::Limited(120.0, 20000000);
  size_t nonempty = 0;
  for (const GeneratedQuery& gq : workload.queries) {
    const uint64_t expected = oracle.CountDistinct(gq.query);
    nonempty += expected > 0;
    const std::string text = gq.query.ToString(config.schema);
    for (bool plan_on : {false, true}) {
      EvalOptions opts;
      if (plan_on) opts.planner = &planner;
      Result<uint64_t> ref =
          ReferenceEvaluator(&graph, opts).CountDistinct(gq.query, budget);
      ASSERT_TRUE(ref.ok()) << ref.status() << "\n" << text;
      EXPECT_EQ(ref.ValueOrDie(), expected)
          << "reference, plan " << plan_on << "\n" << text;
      for (EngineKind kind : {EngineKind::kRelational, EngineKind::kSparql,
                              EngineKind::kDatalog}) {
        Result<uint64_t> got =
            MakeEngine(kind, opts)->Evaluate(graph, gq.query, budget);
        ASSERT_TRUE(got.ok()) << EngineKindCode(kind) << ": " << got.status()
                              << "\n" << text;
        EXPECT_EQ(got.ValueOrDie(), expected)
            << EngineKindCode(kind) << ", plan " << plan_on << "\n" << text;
      }
    }
  }
  // The agreement must not be vacuous.
  EXPECT_GT(nonempty, workload.queries.size() / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, OracleAgreementTest,
    ::testing::Combine(::testing::ValuesIn(AllWorkloadPresets()),
                       ::testing::Values(int64_t{300}, int64_t{2000})),
    [](const auto& info) {
      return std::string(WorkloadPresetName(std::get<0>(info.param))) + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gmark
