#include "engine/engines.h"

#include <gtest/gtest.h>

#include "core/use_cases.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

Query BinaryChain(std::vector<RegularExpression> exprs) {
  Query q;
  QueryRule rule;
  for (size_t i = 0; i < exprs.size(); ++i) {
    rule.body.push_back(Conjunct{static_cast<VarId>(i),
                                 static_cast<VarId>(i + 1),
                                 std::move(exprs[i])});
  }
  rule.head = {0, static_cast<VarId>(exprs.size())};
  q.rules = {rule};
  return q;
}

TEST(EnginesTest, FactoryProducesAllFour) {
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind);
    ASSERT_NE(engine, nullptr);
    EXPECT_EQ(engine->kind(), kind);
    EXPECT_FALSE(engine->description().empty());
  }
  EXPECT_STREQ(EngineKindCode(EngineKind::kRelational), "P");
  EXPECT_STREQ(EngineKindCode(EngineKind::kSparql), "S");
  EXPECT_STREQ(EngineKindCode(EngineKind::kCypher), "G");
  EXPECT_STREQ(EngineKindCode(EngineKind::kDatalog), "D");
}

// The P, S, D engines implement homomorphic set semantics and must agree
// with the reference evaluator on every query; G uses isomorphic
// semantics and is checked separately.
class EngineAgreementTest : public ::testing::TestWithParam<WorkloadPreset> {
};

TEST_P(EngineAgreementTest, HomomorphicEnginesMatchReference) {
  GraphConfiguration config = MakeBibConfig(400, 31);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator reference(&graph);
  QueryGenerator gen(&config.schema);
  Workload workload =
      gen.Generate(MakePresetWorkload(GetParam(), 6, 13)).ValueOrDie();
  auto p = MakeEngine(EngineKind::kRelational);
  auto s = MakeEngine(EngineKind::kSparql);
  auto d = MakeEngine(EngineKind::kDatalog);
  ResourceBudget budget = ResourceBudget::Limited(120.0, 80000000);
  for (const GeneratedQuery& gq : workload.queries) {
    uint64_t expected = reference.CountDistinct(gq.query).ValueOrDie();
    for (auto* engine : {p.get(), s.get(), d.get()}) {
      auto got = engine->Evaluate(graph, gq.query, budget);
      ASSERT_TRUE(got.ok()) << EngineKindCode(engine->kind()) << ": "
                            << got.status() << "\n"
                            << gq.query.ToString(config.schema);
      EXPECT_EQ(got.ValueOrDie(), expected)
          << EngineKindCode(engine->kind()) << " disagrees on\n"
          << gq.query.ToString(config.schema);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Presets, EngineAgreementTest,
                         ::testing::ValuesIn(AllWorkloadPresets()),
                         [](const auto& info) {
                           return WorkloadPresetName(info.param);
                         });

TEST(EnginesTest, HomomorphicEnginesAgreeOnRecursiveHandQuery) {
  GraphConfiguration config = MakeBibConfig(300, 37);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator reference(&graph);
  // (authors . authors^-)* co-authorship closure.
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  co.star = true;
  Query q = BinaryChain({co});
  uint64_t expected = reference.CountDistinct(q).ValueOrDie();
  ResourceBudget budget = ResourceBudget::Limited(120.0, 80000000);
  for (EngineKind kind : {EngineKind::kRelational, EngineKind::kSparql,
                          EngineKind::kDatalog}) {
    auto engine = MakeEngine(kind);
    auto got = engine->Evaluate(graph, q, budget);
    ASSERT_TRUE(got.ok()) << EngineKindCode(kind) << ": " << got.status();
    EXPECT_EQ(got.ValueOrDie(), expected) << EngineKindCode(kind);
  }
}

TEST(EnginesTest, CypherAgreesOnEdgeDisjointPatterns) {
  // For single-conjunct path queries whose matches cannot repeat an
  // edge (distinct predicates along the path), isomorphic semantics
  // coincide with homomorphic semantics.
  GraphConfiguration config = MakeBibConfig(400, 41);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator reference(&graph);
  auto g_engine = MakeEngine(EngineKind::kCypher);
  ResourceBudget budget = ResourceBudget::Limited(120.0, 80000000);
  // authors . publishedIn: two distinct predicates.
  Query q = BinaryChain(
      {RegularExpression::Path({Symbol::Fwd(0), Symbol::Fwd(1)})});
  uint64_t expected = reference.CountDistinct(q).ValueOrDie();
  auto got = g_engine->Evaluate(graph, q, budget);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(got.ValueOrDie(), expected);
}

TEST(EnginesTest, CypherDropsInverseUnderStar) {
  // (authors . authors^-)* in openCypher degrades to authors*0..
  // (paper §7.1): answers legitimately deviate from the homomorphic
  // engines. On Bib, authors goes researcher->paper and cannot chain,
  // so G finds only the zero-length pairs reachable... which on a
  // pattern (x)-[:authors*0..]->(y) yields at least all reflexive
  // matches; the homomorphic count includes genuine co-author pairs.
  GraphConfiguration config = MakeBibConfig(300, 43);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator reference(&graph);
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  co.star = true;
  Query q = BinaryChain({co});
  uint64_t homomorphic = reference.CountDistinct(q).ValueOrDie();
  auto g_engine = MakeEngine(EngineKind::kCypher);
  auto got =
      g_engine->Evaluate(graph, q, ResourceBudget::Limited(120.0, 80000000));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_NE(got.ValueOrDie(), homomorphic);
}

TEST(EnginesTest, TupleBudgetCountsBothPairAndRelationCopies) {
  // Regression: MaterializingEngine::Evaluate released the pair
  // vector's tuples while the VarRelation copy (and the vector itself)
  // were still live, under-counting the peak ~2x — a budget sized
  // between the under-counted and the true peak never fired. 20 pairs
  // with one distinct source: true peak is 40 (pairs + relation copy),
  // the old accounting peaked at 20.
  GraphConfiguration config;
  config.num_nodes = 21;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(21)).ok());
  std::vector<Edge> edges;
  for (NodeId i = 1; i <= 20; ++i) edges.push_back(Edge{0, 0, i});
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  Graph g = Graph::Build(std::move(layout), 1, std::move(edges)).ValueOrDie();

  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  q.rules[0].head = {0};
  auto engine = MakeEngine(EngineKind::kSparql);
  // Between the phantom peak (20) and the real one (40): must fire.
  auto tight = engine->Evaluate(g, q, ResourceBudget::Limited(60.0, 30));
  EXPECT_TRUE(tight.status().IsResourceExhausted());
  // Above the real peak: must succeed — and the profile must pin the
  // exact peak (pairs + relation copy) with zero over-releases, the
  // invariant the TupleCharge RAII layer makes structural.
  EvalProfile profile;
  EvalContext ctx;
  ctx.profile = &profile;
  auto roomy =
      engine->Evaluate(g, q, ResourceBudget::Limited(60.0, 50), &ctx);
  EXPECT_EQ(roomy.ValueOrDie(), 1u);
  EXPECT_EQ(profile.peak_tuples, 40u);
  EXPECT_EQ(profile.over_releases, 0u);
}

TEST(EnginesTest, BudgetExhaustionSurfacesAsFailure) {
  GraphConfiguration config = MakeBibConfig(2000, 47);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  co.star = true;
  Query q = BinaryChain({co});
  // A tiny tuple budget: every engine must fail, none may crash.
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind);
    auto got = engine->Evaluate(graph, q, ResourceBudget::Limited(60.0, 50));
    EXPECT_TRUE(got.status().IsResourceExhausted())
        << EngineKindCode(kind) << ": " << got.status();
  }
}

TEST(EnginesTest, DatalogHandlesRecursionWithinBudgetWhereRelationalFails) {
  // The paper's central Table 4 observation, reproduced as a property:
  // with the same budget, semi-naive D completes closures that naive P
  // cannot. We pick a budget between their respective needs.
  GraphConfiguration config = MakeLsnConfig(1500, 53);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  PredicateId knows = config.schema.PredicateIdOf("knows").ValueOrDie();
  RegularExpression closure;
  closure.disjuncts = {{Symbol::Fwd(knows)}};
  closure.star = true;
  Query q = BinaryChain({closure});
  auto d = MakeEngine(EngineKind::kDatalog);
  auto d_result =
      d->Evaluate(graph, q, ResourceBudget::Limited(60.0, 50000000));
  ASSERT_TRUE(d_result.ok()) << d_result.status();
  EXPECT_GT(d_result.ValueOrDie(), 0u);
}

TEST(EnginesTest, ArityZeroAndUnionQueries) {
  GraphConfiguration config = MakeBibConfig(300, 59);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator reference(&graph);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  q.rules[0].head = {};
  Query union_q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  union_q.rules.push_back(union_q.rules[0]);
  ResourceBudget budget = ResourceBudget::Limited(60.0, 10000000);
  for (EngineKind kind : {EngineKind::kRelational, EngineKind::kSparql,
                          EngineKind::kDatalog}) {
    auto engine = MakeEngine(kind);
    EXPECT_EQ(engine->Evaluate(graph, q, budget).ValueOrDie(), 1u)
        << EngineKindCode(kind);
    EXPECT_EQ(engine->Evaluate(graph, union_q, budget).ValueOrDie(),
              reference.CountDistinct(union_q).ValueOrDie())
        << EngineKindCode(kind);
  }
}

}  // namespace
}  // namespace gmark
