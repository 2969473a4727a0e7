#include "engine/engine_common.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/use_cases.h"
#include "engine/relation.h"
#include "legacy_compose.h"
#include "parallel/parallel_generator.h"
#include "util/timer.h"

namespace gmark {
namespace {

// Path graph over predicate a: 0 -> 1 -> 2 -> 3, plus b: 3 -> 0.
Graph PathGraph() {
  GraphConfiguration config;
  config.num_nodes = 4;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(4)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges{{0, 0, 1}, {1, 0, 2}, {2, 0, 3}, {3, 1, 0}};
  return Graph::Build(layout, 2, edges).ValueOrDie();
}

TEST(EngineCommonTest, SymbolPairsForwardAndInverse) {
  Graph g = PathGraph();
  NodePairs fwd = SymbolPairs(g, Symbol::Fwd(0));
  EXPECT_EQ(fwd.size(), 3u);
  NodePairs inv = SymbolPairs(g, Symbol::Inv(0));
  ASSERT_EQ(inv.size(), 3u);
  // Inverse swaps: (1,0) must be present.
  EXPECT_NE(std::find(inv.begin(), inv.end(),
                      std::pair<NodeId, NodeId>{1, 0}),
            inv.end());
}

TEST(EngineCommonTest, ComposePathPairs) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  // a.a: {(0,2),(1,3)}.
  auto pairs = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)},
                                /*set_semantics=*/true, &budget);
  ASSERT_TRUE(pairs.ok());
  EXPECT_EQ(pairs->value.size(), 2u);
  // a.a.b: {(1,0)} -- wait: 1 -a-> 2 -a-> 3 -b-> 0.
  auto pairs2 = ComposePathPairs(
      g, {Symbol::Fwd(0), Symbol::Fwd(0), Symbol::Fwd(1)}, true, &budget);
  ASSERT_TRUE(pairs2.ok());
  ASSERT_EQ(pairs2->value.size(), 1u);
  EXPECT_EQ(pairs2->value[0], (std::pair<NodeId, NodeId>{1, 0}));
}

TEST(EngineCommonTest, BagVsSetSemanticsDifferOnDiamonds) {
  // Two parallel length-2 routes from 0 to 3 create a duplicate pair
  // under bag semantics.
  GraphConfiguration config;
  config.num_nodes = 4;
  ASSERT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(4)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges{{0, 0, 1}, {0, 0, 2}, {1, 0, 3}, {2, 0, 3}};
  Graph g = Graph::Build(layout, 1, edges).ValueOrDie();
  BudgetTracker budget(ResourceBudget::Unlimited());
  auto bag = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)}, false,
                              &budget);
  auto set = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)}, true,
                              &budget);
  ASSERT_TRUE(bag.ok());
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(bag->value.size(), 2u);  // (0,3) twice.
  EXPECT_EQ(set->value.size(), 1u);
}

TEST(EngineCommonTest, RegexBasePairsUnionsDisjunctsAsSet) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  RegularExpression expr;
  expr.disjuncts = {{Symbol::Fwd(0)}, {Symbol::Fwd(0)}, {Symbol::Fwd(1)}};
  auto base = RegexBasePairs(g, expr, false, &budget);
  ASSERT_TRUE(base.ok());
  EXPECT_EQ(base->value.size(), 4u);  // 3 a-edges + 1 b-edge, deduplicated.
  EXPECT_EQ(base->charge.count(), 4u);
}

// a: 0 -> 1, 0 -> 2, 1 -> 5, 1 -> 4, 2 -> 4, 2 -> 3, 4 -> 0.
Graph FanGraph() {
  GraphConfiguration config;
  config.num_nodes = 6;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(6)).ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges{{0, 0, 1}, {0, 0, 2}, {1, 0, 5}, {1, 0, 4},
                          {2, 0, 4}, {2, 0, 3}, {4, 0, 0}};
  return Graph::Build(layout, 1, edges).ValueOrDie();
}

bool GroupedBySourceAscending(const NodePairs& pairs) {
  for (size_t i = 1; i < pairs.size(); ++i) {
    if (pairs[i].first < pairs[i - 1].first) return false;
  }
  return true;
}

TEST(EngineCommonTest, ComposedPairsAreGroupedBySourceAscending) {
  Graph g = FanGraph();
  using P = std::pair<NodeId, NodeId>;
  // An inverse symbol reads its own CSR: sources ascend, targets follow
  // the in-neighbor order.
  NodePairs inv = SymbolPairs(g, Symbol::Inv(0));
  ASSERT_EQ(inv.size(), 7u);
  EXPECT_TRUE(GroupedBySourceAscending(inv));
  EXPECT_EQ(inv.front(), (P{0, 4}));
  EXPECT_EQ(inv.back(), (P{5, 1}));

  // a . a under set semantics: within a source, first occurrence wins
  // (node 0 reaches 4 through both 1 and 2).
  BudgetTracker budget(ResourceBudget::Unlimited());
  auto set = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)},
                              /*set_semantics=*/true, &budget);
  ASSERT_TRUE(set.ok());
  const NodePairs expected_set{{0, 5}, {0, 4}, {0, 3}, {1, 0},
                               {2, 0}, {4, 1}, {4, 2}};
  EXPECT_EQ(set->value, expected_set);
  auto bag = ComposePathPairs(g, {Symbol::Fwd(0), Symbol::Fwd(0)},
                              /*set_semantics=*/false, &budget);
  ASSERT_TRUE(bag.ok());
  const NodePairs expected_bag{{0, 5}, {0, 4}, {0, 4}, {0, 3},
                               {1, 0}, {2, 0}, {4, 1}, {4, 2}};
  EXPECT_EQ(bag->value, expected_bag);

  // Inverse-first paths on a generated graph stay grouped at every step.
  Graph bib = ParallelGenerateGraph(MakeBibConfig(300, 1)).ValueOrDie();
  for (bool set_semantics : {false, true}) {
    auto co = ComposePathPairs(
        bib, {Symbol::Inv(0), Symbol::Fwd(0), Symbol::Inv(0)}, set_semantics,
        &budget);
    ASSERT_TRUE(co.ok());
    ASSERT_FALSE(co->value.empty());
    EXPECT_TRUE(GroupedBySourceAscending(co->value)) << set_semantics;
  }
}

TEST(EngineCommonTest, RegexBasePairsAreSortedAndDistinct) {
  Graph g = FanGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  RegularExpression expr;
  expr.disjuncts = {{Symbol::Fwd(0), Symbol::Fwd(0)}, {Symbol::Inv(0)}};
  for (bool set_semantics : {false, true}) {
    auto base = RegexBasePairs(g, expr, set_semantics, &budget);
    ASSERT_TRUE(base.ok());
    const NodePairs expected{{0, 3}, {0, 4}, {0, 5}, {1, 0}, {2, 0},
                             {3, 2}, {4, 1}, {4, 2}, {5, 1}};
    EXPECT_EQ(base->value, expected) << set_semantics;
    EXPECT_EQ(base->charge.count(), expected.size());
  }
}

TEST(EngineCommonTest, ClosureOfPathGraphIsFullUpperTriangle) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  NodePairs base = SymbolPairs(g, Symbol::Fwd(0));  // 0->1->2->3 chain.
  auto closure = ClosureSemiNaive(g, base, &budget);
  ASSERT_TRUE(closure.ok());
  // Reflexive (4) + all i<j pairs on the chain (6).
  EXPECT_EQ(closure->value.size(), 10u);
}

TEST(EngineCommonTest, NaiveAndSemiNaiveClosuresAgree) {
  // Property: both strategies compute the same relation on generated
  // graphs (they differ only in cost).
  for (uint64_t seed : {1u, 2u, 3u}) {
    GraphConfiguration config = MakeBibConfig(300, seed);
    Graph g = ParallelGenerateGraph(config).ValueOrDie();
    RegularExpression co;
    co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
    BudgetTracker b1(ResourceBudget::Unlimited());
    BudgetTracker b2(ResourceBudget::Unlimited());
    auto base = RegexBasePairs(g, co, true, &b1);
    ASSERT_TRUE(base.ok());
    auto naive = ClosureNaive(g, base->value, &b1);
    auto semi = ClosureSemiNaive(g, base->value, &b2);
    ASSERT_TRUE(naive.ok());
    ASSERT_TRUE(semi.ok());
    testing_legacy::SortUnique(&naive->value);
    testing_legacy::SortUnique(&semi->value);
    EXPECT_EQ(naive->value, semi->value) << "seed=" << seed;
  }
}

TEST(EngineCommonTest, SemiNaiveChargesFewerTuplesThanNaive) {
  // The cost asymmetry that drives Table 4: naive iteration recharges
  // whole-relation scans, semi-naive only deltas.
  GraphConfiguration config = MakeLsnConfig(800, 5);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  PredicateId knows = config.schema.PredicateIdOf("knows").ValueOrDie();
  NodePairs base = SymbolPairs(g, Symbol::Fwd(knows));
  testing_legacy::SortUnique(&base);
  BudgetTracker naive_budget(ResourceBudget::Unlimited());
  BudgetTracker semi_budget(ResourceBudget::Unlimited());
  ASSERT_TRUE(ClosureNaive(g, base, &naive_budget).ok());
  ASSERT_TRUE(ClosureSemiNaive(g, base, &semi_budget).ok());
  // Tuple *output* is identical; the scan work is what differs: naive
  // rescans the whole accumulated relation every round, semi-naive only
  // the delta. Scan counts are deterministic, unlike the wall-clock
  // comparison this test originally made (flaky on loaded machines).
  EXPECT_LT(semi_budget.tuples_scanned(), naive_budget.tuples_scanned());
}

TEST(EngineCommonTest, ClosureRespectsBudget) {
  GraphConfiguration config = MakeBibConfig(2000, 7);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  BudgetTracker budget(ResourceBudget::Limited(60.0, 1000));
  auto base = RegexBasePairs(g, co, true, &budget);
  if (base.ok()) {
    EXPECT_TRUE(ClosureNaive(g, base->value, &budget)
                    .status()
                    .IsResourceExhausted());
  } else {
    EXPECT_TRUE(base.status().IsResourceExhausted());
  }
}

// One predicate forming the chain 0 -> 1 -> ... -> k-1.
Graph ChainGraph(NodeId k) {
  GraphConfiguration config;
  config.num_nodes = static_cast<int64_t>(k);
  EXPECT_TRUE(config.schema
                  .AddType("t", OccurrenceConstraint::Fixed(
                                    static_cast<int64_t>(k)))
                  .ok());
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  std::vector<Edge> edges;
  for (NodeId i = 0; i + 1 < k; ++i) edges.push_back(Edge{i, 0, i + 1});
  return Graph::Build(layout, 1, edges).ValueOrDie();
}

struct ClosureCost {
  size_t pairs;
  uint64_t rounds;
  size_t scanned;
};

ClosureCost RunClosure(const Graph& g, const NodePairs& base, bool naive) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  uint64_t rounds = 0;
  auto closed = naive ? ClosureNaive(g, base, &budget, &rounds)
                      : ClosureSemiNaive(g, base, &budget, &rounds);
  EXPECT_TRUE(closed.ok());
  return {closed->value.size(), rounds, budget.tuples_scanned()};
}

TEST(EngineCommonTest, ClosureRoundAndScanCountsArePinned) {
  // The P-vs-D asymmetry Fig. 12 simulates, as exact counts. On a
  // k-node chain, naive iteration runs k rounds and rescans the whole
  // accumulated relation each time; semi-naive runs k-1 rounds over
  // deltas of k-1, k-2, ..., 1 pairs.
  const NodeId k = 30;
  Graph chain = ChainGraph(k);
  NodePairs base = SymbolPairs(chain, Symbol::Fwd(0));
  ClosureCost naive = RunClosure(chain, base, /*naive=*/true);
  ClosureCost semi = RunClosure(chain, base, /*naive=*/false);
  EXPECT_EQ(naive.pairs, k * (k + 1) / 2);
  EXPECT_EQ(semi.pairs, k * (k + 1) / 2);
  EXPECT_EQ(naive.rounds, k);
  EXPECT_EQ(semi.rounds, k - 1);
  EXPECT_EQ(naive.scanned, 9455u);
  EXPECT_EQ(semi.scanned, k * (k - 1) / 2);

  // A generated co-authorship closure, with diamonds and hubs.
  GraphConfiguration config = MakeBibConfig(300, 2);
  Graph bib = ParallelGenerateGraph(config).ValueOrDie();
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(0)}};
  BudgetTracker base_budget(ResourceBudget::Unlimited());
  auto co_base = RegexBasePairs(bib, co, true, &base_budget);
  ASSERT_TRUE(co_base.ok());
  naive = RunClosure(bib, co_base->value, /*naive=*/true);
  semi = RunClosure(bib, co_base->value, /*naive=*/false);
  EXPECT_EQ(naive.pairs, semi.pairs);
  EXPECT_EQ(naive.pairs, 11404u);
  EXPECT_EQ(naive.rounds, 7u);
  EXPECT_EQ(naive.scanned, 45042u);
  EXPECT_EQ(semi.rounds, 6u);
  EXPECT_EQ(semi.scanned, 11004u);
}

// A tuple ceiling hit inside composition or a closure: the kill is
// reported, the attempted pair is the peak, and every charge unwinds.
void ExpectCleanKill(const Status& status, const BudgetTracker& budget,
                     size_t ceiling) {
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_EQ(budget.peak_tuples(), ceiling + 1);
  EXPECT_EQ(budget.tuples_used(), 0u);
  EXPECT_EQ(budget.over_releases(), 0u);
}

TEST(EngineCommonTest, TupleCeilingMidCompositionUnwinds) {
  Graph chain = ChainGraph(30);
  // a . a charges the 29 a-pairs at once, then one per composed pair:
  // a ceiling of 40 dies on the 12th of the 28 composed pairs.
  BudgetTracker budget(ResourceBudget::Limited(60.0, 40));
  ExpectCleanKill(ComposePathPairs(chain, {Symbol::Fwd(0), Symbol::Fwd(0)},
                                   /*set_semantics=*/true, &budget)
                      .status(),
                  budget, 40);
}

TEST(EngineCommonTest, TupleCeilingMidClosureUnwinds) {
  Graph chain = ChainGraph(30);
  NodePairs base = SymbolPairs(chain, Symbol::Fwd(0));
  // 30 reflexive pairs are charged at once, then one per new pair.
  for (bool naive : {true, false}) {
    BudgetTracker budget(ResourceBudget::Limited(60.0, 100));
    Status st = naive ? ClosureNaive(chain, base, &budget).status()
                      : ClosureSemiNaive(chain, base, &budget).status();
    ExpectCleanKill(st, budget, 100);
  }
}

TEST(EngineCommonTest, EmptyPathRejected) {
  Graph g = PathGraph();
  BudgetTracker budget(ResourceBudget::Unlimited());
  EXPECT_FALSE(ComposePathPairs(g, {}, true, &budget).ok());
}

}  // namespace
}  // namespace gmark
