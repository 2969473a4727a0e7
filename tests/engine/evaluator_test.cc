#include "engine/evaluator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/use_cases.h"
#include "obs/metrics.h"
#include "parallel/parallel_generator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

// A 6-node hand graph over predicates a (0) and b (1):
//   a: 0->1, 1->2, 2->3, 4->0
//   b: 1->4, 3->3
Graph HandGraph() {
  GraphConfiguration config;
  config.num_nodes = 6;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(6)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges{{0, 0, 1}, {1, 0, 2}, {2, 0, 3},
                          {4, 0, 0}, {1, 1, 4}, {3, 1, 3}};
  return Graph::Build(layout, 2, edges).ValueOrDie();
}

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

TEST(EvaluatorTest, SingleEdgeCountsEdges) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 4u);
  Query qb = BinaryChain({RegularExpression::Atom(Symbol::Fwd(1))});
  EXPECT_EQ(eval.CountDistinct(qb).ValueOrDie(), 2u);
}

TEST(EvaluatorTest, InverseEdge) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Inv(0))});
  // Inverse of a: {(1,0),(2,1),(3,2),(0,4)}.
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 4u);
}

TEST(EvaluatorTest, Concatenation) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  // a.a: {(0,2),(1,3),(4,1)}.
  Query q = BinaryChain(
      {RegularExpression::Path({Symbol::Fwd(0), Symbol::Fwd(0)})});
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 3u);
  // a.b: {(0,4),(2,3)}.
  Query q2 = BinaryChain(
      {RegularExpression::Path({Symbol::Fwd(0), Symbol::Fwd(1)})});
  EXPECT_EQ(eval.CountDistinct(q2).ValueOrDie(), 2u);
}

TEST(EvaluatorTest, Disjunction) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  RegularExpression expr;
  expr.disjuncts = {{Symbol::Fwd(0)}, {Symbol::Fwd(1)}};
  // a + b: 4 + 2 = 6 distinct pairs (no overlap here).
  EXPECT_EQ(eval.CountDistinct(BinaryChain({expr})).ValueOrDie(), 6u);
}

TEST(EvaluatorTest, StarIncludesZeroLengthPairs) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  RegularExpression star;
  star.disjuncts = {{Symbol::Fwd(0)}};
  star.star = true;
  // a*: all 6 reflexive pairs, plus reachability along the a-cycle
  // {0,1,2,3} x suffixes and 4->everything:
  // 0:{1,2,3} 1:{2,3} 2:{3} 4:{0,1,2,3}: 3+2+1+4 = 10 non-reflexive.
  EXPECT_EQ(eval.CountDistinct(BinaryChain({star})).ValueOrDie(), 16u);
}

TEST(EvaluatorTest, ChainOfTwoConjunctsEqualsComposition) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  Query chain = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0)),
                             RegularExpression::Atom(Symbol::Fwd(1))});
  Query composed = BinaryChain(
      {RegularExpression::Path({Symbol::Fwd(0), Symbol::Fwd(1)})});
  EXPECT_EQ(eval.CountDistinct(chain).ValueOrDie(),
            eval.CountDistinct(composed).ValueOrDie());
}

TEST(EvaluatorTest, BooleanQuery) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  q.rules[0].head = {};
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 1u);
  // b.b.b.b is unmatchable except 3->3 self loop... b: 1->4, 3->3; so
  // b.b = {(3,3)}: still non-empty. Use a.a.a.a.a.a (length 6 > longest
  // path) -- the cycle 4->0->1->2->3 has length 4, no 6-path exists.
  Query empty = BinaryChain({RegularExpression::Path(
      {Symbol::Fwd(0), Symbol::Fwd(0), Symbol::Fwd(0), Symbol::Fwd(0),
       Symbol::Fwd(0), Symbol::Fwd(0)})});
  empty.rules[0].head = {};
  EXPECT_EQ(eval.CountDistinct(empty).ValueOrDie(), 0u);
}

TEST(EvaluatorTest, UnaryProjection) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  q.rules[0].head = {0};  // distinct sources of a: {0,1,2,4}.
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 4u);
  q.rules[0].head = {1};  // distinct targets of a: {1,2,3,0}.
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 4u);
}

TEST(EvaluatorTest, UnionOfRulesDeduplicates) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  QueryRule rule2 = q.rules[0];  // Identical rule: union must not double.
  q.rules.push_back(rule2);
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 4u);
}

TEST(EvaluatorTest, StarShapedQueryUsesJoinPath) {
  Graph g = HandGraph();
  ReferenceEvaluator eval(&g);
  // (?y,?z) <- (?x,a,?y), (?x,b,?z): sources with both an a and b edge:
  // node 1: a->2, b->4 and node 3: wait 3 has a->.. no: a edges from
  // 0,1,2,4; b edges from 1,3. Only x=1: y=2, z=4: one tuple.
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(0))},
               Conjunct{0, 2, RegularExpression::Atom(Symbol::Fwd(1))}};
  rule.head = {1, 2};
  q.rules = {rule};
  EXPECT_EQ(eval.CountDistinct(q).ValueOrDie(), 1u);
}

TEST(EvaluatorTest, JoinPathAgreesWithChainFastPathOnGeneratedGraphs) {
  // Strong cross-check: two independent evaluation strategies must
  // agree on every preset workload over a generated Bib instance.
  GraphConfiguration config = MakeBibConfig(600, 21);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator eval(&g);
  QueryGenerator gen(&config.schema);
  for (WorkloadPreset preset :
       {WorkloadPreset::kLen, WorkloadPreset::kDis, WorkloadPreset::kCon}) {
    Workload workload =
        gen.Generate(MakePresetWorkload(preset, 6, 9)).ValueOrDie();
    for (const GeneratedQuery& gq : workload.queries) {
      uint64_t fast = eval.CountDistinct(gq.query).ValueOrDie();
      BudgetTracker tracker(ResourceBudget::Unlimited());
      ChargedRelation rel =
          eval.EvaluateRuleJoin(gq.query.rules[0], &tracker).ValueOrDie();
      EXPECT_EQ(fast, rel.value.row_count())
          << WorkloadPresetName(preset) << " "
          << gq.query.ToString(config.schema);
    }
  }
}

TEST(EvaluatorTest, TupleBudgetIsEnforced) {
  GraphConfiguration config = MakeBibConfig(2000, 23);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator eval(&g);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  auto r = eval.CountDistinct(q, ResourceBudget::Limited(60.0, 10));
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(EvaluatorTest, TimeBudgetIsEnforced) {
  GraphConfiguration config = MakeBibConfig(4000, 25);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  ReferenceEvaluator eval(&g);
  RegularExpression star;
  star.disjuncts = {
      {Symbol::Fwd(0), Symbol::Inv(0)}};
  star.star = true;
  Query q = BinaryChain({star});
  auto r = eval.CountDistinct(q, ResourceBudget::Limited(0.0, SIZE_MAX));
  EXPECT_TRUE(r.status().IsResourceExhausted());
}

TEST(EvaluatorTest, TimeoutEnforcedWithinOneDenseSource) {
  // Regression: ForEachSource used to check the wall clock only once
  // per source, so a single dense source overshot the timeout by its
  // whole product-graph BFS. Build a graph where exactly one node has a
  // start edge (predicate s) into a dense cluster (predicate a): the
  // pre-fix evaluator passes its only time check before the BFS starts
  // and then runs the multi-millisecond traversal to completion,
  // returning OK; the amortized in-loop check must abort it instead.
  const int64_t m = 6000;  // Cluster nodes; >4096 so the check fires.
  GraphConfiguration config;
  config.num_nodes = m + 1;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(m + 1)).ok());
  std::vector<Edge> edges;
  edges.reserve(static_cast<size_t>(m) * 201);
  for (NodeId i = 1; i <= static_cast<NodeId>(m); ++i) {
    edges.push_back(Edge{0, 0, i});  // s: the lone fan-out source.
    for (NodeId j = 0; j < 200; ++j) {
      NodeId t = 1 + (i - 1 + j * 31 + 7) % static_cast<NodeId>(m);
      edges.push_back(Edge{i, 1, t});  // a: dense cluster.
    }
  }
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  Graph g = Graph::Build(std::move(layout), 2, std::move(edges)).ValueOrDie();

  ReferenceEvaluator eval(&g);
  RegularExpression star;
  star.disjuncts = {{Symbol::Fwd(1)}};
  star.star = true;
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0)), star});
  auto r = eval.CountDistinct(q, ResourceBudget::Limited(2e-4, SIZE_MAX));
  EXPECT_TRUE(r.status().IsResourceExhausted())
      << "dense single-source BFS must hit the timeout mid-traversal, got "
      << (r.ok() ? "a full result" : r.status().ToString());
}

TEST(EvaluatorTest, TupleChargesFollowRelationLifetimes) {
  // A 21-node fan: 20 a-pairs out of node 0, but only one distinct
  // source. While FromPairs' relation copy and the pair vector are both
  // live, both must be charged: peak = 2 x 20 pairs, not 20.
  GraphConfiguration config;
  config.num_nodes = 21;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(21)).ok());
  std::vector<Edge> edges;
  for (NodeId i = 1; i <= 20; ++i) edges.push_back(Edge{0, 0, i});
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  Graph g = Graph::Build(std::move(layout), 1, std::move(edges)).ValueOrDie();

  ReferenceEvaluator eval(&g);
  Query q = BinaryChain({RegularExpression::Atom(Symbol::Fwd(0))});
  q.rules[0].head = {0};  // Project onto the single distinct source.
  BudgetTracker tracker(ResourceBudget::Unlimited());
  ChargedRelation rel =
      eval.EvaluateRuleJoin(q.rules[0], &tracker).ValueOrDie();
  EXPECT_EQ(rel.value.row_count(), 1u);
  // Peak: 20 materialized pairs + the 20-row relation copy. Final live
  // tuples: just the projected row, held by rel's guard (everything
  // else released as its owning guard died).
  EXPECT_EQ(tracker.peak_tuples(), 40u);
  EXPECT_EQ(tracker.tuples_used(), 1u);
  EXPECT_EQ(rel.charge.count(), 1u);
  EXPECT_EQ(tracker.over_releases(), 0u);
}

TEST(RpqEvaluatorTest, MaterializePairsSingleSource) {
  Graph g = HandGraph();
  RpqEvaluator rpq(&g);
  RegularExpression star;
  star.disjuncts = {{Symbol::Fwd(0)}};
  star.star = true;
  Nfa nfa = Nfa::FromRegex(star).ValueOrDie();
  BudgetTracker budget(ResourceBudget::Unlimited());
  auto pairs = rpq.MaterializePairs(nfa, &budget).ValueOrDie();
  std::vector<NodeId> from_four;
  for (const auto& [s, t] : pairs.value) {
    if (s == 4) from_four.push_back(t);
  }
  std::sort(from_four.begin(), from_four.end());
  // 4 reaches itself (epsilon) plus 0,1,2,3.
  EXPECT_EQ(from_four, (std::vector<NodeId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(pairs.charge.count(), pairs.value.size());
  EXPECT_EQ(budget.tuples_used(), pairs.value.size());
}

TEST(RpqEvaluatorTest, SerialCountPairsRecordsOneChunk) {
  // A 300-node ring: large enough that the parallel chunk plan would
  // split it (chunks of max(16, n/8) sources), yet the serial branch
  // runs every source as one chunk and must say so.
  const NodeId n = 300;
  GraphConfiguration config;
  config.num_nodes = n;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(n)).ok());
  std::vector<Edge> edges;
  for (NodeId i = 0; i < n; ++i) edges.push_back(Edge{i, 0, (i + 1) % n});
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  Graph g = Graph::Build(std::move(layout), 1, std::move(edges)).ValueOrDie();

  MetricRegistry registry;
  ScopedGlobalMetrics scoped(&registry);
  RpqEvaluator rpq(&g);
  Nfa nfa =
      Nfa::FromRegex(RegularExpression::Atom(Symbol::Fwd(0))).ValueOrDie();
  BudgetTracker budget(ResourceBudget::Unlimited());
  EXPECT_EQ(rpq.CountPairs(nfa, &budget).ValueOrDie(), uint64_t{n});

  const MetricsSnapshot snap = registry.Snapshot();
  auto counter = [&snap](const std::string& name) -> uint64_t {
    for (const auto& [metric, value] : snap.counters) {
      if (metric == name) return value;
    }
    ADD_FAILURE() << "counter " << name << " not in snapshot";
    return 0;
  };
  EXPECT_EQ(counter("eval.sources"), uint64_t{n});
  EXPECT_EQ(counter("eval.chunks"), 1u);
}

}  // namespace
}  // namespace gmark
