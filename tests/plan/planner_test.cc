// Planner unit tests: the three plan decisions (conjunct order,
// traversal direction, Kleene seed side) on a schema with obvious
// asymmetries, plus the plan IR itself — identity plans, effective
// conjuncts, regex reversal, and profile recording. Everything here is
// schema-only: no graph instance is ever generated, mirroring the
// planner's own contract.

#include "plan/planner.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/graph_config.h"
#include "core/use_cases.h"
#include "obs/eval_profile.h"
#include "plan/plan.h"
#include "query/query.h"

namespace gmark {
namespace {

// Three node populations a thousand-fold apart and two predicates:
//   wide:   big(1000) -> small(100), out-degree uniform [4,4] (4000 edges)
//   narrow: small(100) -> tiny(10),  out-degree uniform [1,1] (100 edges)
//   up:     tiny(10)   -> big(1000), out-degree uniform [4,4] (40 edges)
// so every planner decision has a clearly cheaper side.
GraphConfiguration AsymmetricConfig() {
  GraphConfiguration config;
  config.num_nodes = 1110;
  GraphSchema& s = config.schema;
  EXPECT_TRUE(s.AddType("big", OccurrenceConstraint::Fixed(1000)).ok());
  EXPECT_TRUE(s.AddType("small", OccurrenceConstraint::Fixed(100)).ok());
  EXPECT_TRUE(s.AddType("tiny", OccurrenceConstraint::Fixed(10)).ok());
  EXPECT_TRUE(s.AddPredicate("wide").ok());
  EXPECT_TRUE(s.AddPredicate("narrow").ok());
  EXPECT_TRUE(s.AddPredicate("up").ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName("big", "wide", "small",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(4, 4))
                  .ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName("small", "narrow", "tiny",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(1, 1))
                  .ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName("tiny", "up", "big",
                                        DistributionSpec::NonSpecified(),
                                        DistributionSpec::Uniform(4, 4))
                  .ok());
  return config;
}

constexpr PredicateId kWide = 0;
constexpr PredicateId kNarrow = 1;
constexpr PredicateId kUp = 2;

Query SingleConjunctQuery(RegularExpression expr) {
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, std::move(expr)}};
  rule.head = {0, 1};
  q.rules = {rule};
  return q;
}

class PlannerTest : public ::testing::Test {
 protected:
  PlannerTest()
      : config_(AsymmetricConfig()),
        layout_(NodeLayout::Create(config_).ValueOrDie()),
        planner_(&config_.schema) {}

  GraphConfiguration config_;
  NodeLayout layout_;
  Planner planner_;
};

TEST(PlanTest, IdentityPlanPreservesWrittenOrder) {
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(0))},
               Conjunct{1, 2, RegularExpression::Atom(Symbol::Inv(1))},
               Conjunct{2, 3, RegularExpression::Atom(Symbol::Fwd(2))}};
  rule.head = {0, 3};
  q.rules = {rule};

  const QueryPlan plan = QueryPlan::Identity(q);
  EXPECT_FALSE(plan.planned);
  ASSERT_EQ(plan.rules.size(), 1u);
  EXPECT_FALSE(plan.rules[0].chain_backward);
  ASSERT_EQ(plan.rules[0].steps.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    const PlanStep& step = plan.rules[0].steps[i];
    EXPECT_EQ(step.conjunct, i);
    EXPECT_FALSE(step.backward);
    EXPECT_EQ(step.est_rows, -1.0);
  }
}

TEST(PlanTest, ToStringForm) {
  QueryPlan plan;
  plan.rules.resize(2);
  plan.rules[0].steps.resize(3);
  for (auto [i, conjunct, backward] :
       {std::tuple{0, 2u, true}, {1, 0u, false}, {2, 11u, true}}) {
    plan.rules[0].steps[i].conjunct = conjunct;
    plan.rules[0].steps[i].backward = backward;
  }
  plan.rules[1].steps.resize(1);
  plan.rules[1].chain_backward = true;
  EXPECT_EQ(plan.ToString(), "r0[#2<~ #0> #11<~] r1[#0>]R");
  EXPECT_EQ(QueryPlan{}.ToString(), "");
}

TEST(PlanTest, ReverseRegexFlipsSymbolsAndKeepsStar) {
  // (a . b^-)* reversed is (b . a^-)*.
  RegularExpression expr;
  expr.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(1)}};
  expr.star = true;

  const RegularExpression rev = ReverseRegex(expr);
  ASSERT_EQ(rev.disjuncts.size(), 1u);
  ASSERT_EQ(rev.disjuncts[0].size(), 2u);
  EXPECT_EQ(rev.disjuncts[0][0], Symbol::Fwd(1));
  EXPECT_EQ(rev.disjuncts[0][1], Symbol::Inv(0));
  EXPECT_TRUE(rev.star);
  // Reversal is an involution.
  EXPECT_EQ(ReverseRegex(rev), expr);
}

TEST(PlanTest, EffectiveConjunctSwapsEndpointsOnBackwardSteps) {
  const Conjunct c{3, 7, RegularExpression::Atom(Symbol::Fwd(2))};

  PlanStep forward;
  const Conjunct same = EffectiveConjunct(c, forward);
  EXPECT_EQ(same.source, 3);
  EXPECT_EQ(same.target, 7);
  EXPECT_EQ(same.expr, c.expr);

  PlanStep backward;
  backward.backward = true;
  const Conjunct swapped = EffectiveConjunct(c, backward);
  EXPECT_EQ(swapped.source, 7);
  EXPECT_EQ(swapped.target, 3);
  EXPECT_EQ(swapped.expr, ReverseRegex(c.expr));
}

TEST(PlanTest, RecordPlanFillsProfileBeforeExecution) {
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(0))},
               Conjunct{1, 2, RegularExpression::Atom(Symbol::Fwd(1))}};
  rule.head = {0, 2};
  q.rules = {rule};

  QueryPlan plan = QueryPlan::Identity(q);
  plan.planned = true;
  plan.rules[0].chain_backward = true;
  plan.rules[0].steps[0].conjunct = 1;
  plan.rules[0].steps[0].backward = true;
  plan.rules[0].steps[0].est_rows = 42.0;
  plan.rules[0].steps[1].conjunct = 0;

  EvalProfile profile;
  RecordPlan(plan, &profile);
  EXPECT_TRUE(profile.planned);
  EXPECT_TRUE(profile.chain_backward);
  ASSERT_EQ(profile.plan_steps.size(), 2u);
  EXPECT_EQ(profile.plan_steps[0].conjunct, 1u);
  EXPECT_EQ(profile.plan_steps[0].position, 0u);
  EXPECT_TRUE(profile.plan_steps[0].backward);
  EXPECT_EQ(profile.plan_steps[0].est_rows, 42.0);
  EXPECT_EQ(profile.plan_steps[0].actual_rows, 0u);
  EXPECT_EQ(profile.plan_steps[1].conjunct, 0u);
  EXPECT_EQ(profile.plan_steps[1].position, 1u);
}

TEST_F(PlannerTest, OrdersCheapestConjunctFirst) {
  // Written order is the expensive wide (4000 rows) before the cheap
  // narrow (100 rows); the planner must flip them.
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(kWide))},
               Conjunct{1, 2, RegularExpression::Atom(Symbol::Fwd(kNarrow))}};
  rule.head = {0, 2};
  q.rules = {rule};

  const QueryPlan plan = planner_.PlanQuery(q, layout_);
  EXPECT_TRUE(plan.planned);
  ASSERT_EQ(plan.rules.size(), 1u);
  ASSERT_EQ(plan.rules[0].steps.size(), 2u);
  EXPECT_EQ(plan.rules[0].steps[0].conjunct, 1u);
  EXPECT_EQ(plan.rules[0].steps[1].conjunct, 0u);
  EXPECT_GT(plan.rules[0].steps[0].est_rows, 0.0);
  EXPECT_LT(plan.rules[0].steps[0].est_rows, plan.rules[0].steps[1].est_rows);
}

TEST_F(PlannerTest, ReorderingNeverIntroducesCrossProducts) {
  // After up(x1,x2) — globally cheapest at 40 rows — the cheapest
  // remaining conjunct is the disconnected narrow(x4,x5) at 100 rows,
  // but connectivity must win: the planner takes wide(x2,x3) at 4000
  // rows rather than inserting a cross product the written query put
  // at the end.
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{1, 2, RegularExpression::Atom(Symbol::Fwd(kUp))},
               Conjunct{2, 3, RegularExpression::Atom(Symbol::Fwd(kWide))},
               Conjunct{4, 5, RegularExpression::Atom(Symbol::Fwd(kNarrow))}};
  rule.head = {1, 5};
  q.rules = {rule};

  const QueryPlan plan = planner_.PlanQuery(q, layout_);
  ASSERT_EQ(plan.rules[0].steps.size(), 3u);
  EXPECT_EQ(plan.rules[0].steps[0].conjunct, 0u);  // up: cheapest overall
  EXPECT_EQ(plan.rules[0].steps[1].conjunct, 1u);  // wide: connected wins
  EXPECT_EQ(plan.rules[0].steps[2].conjunct, 2u);  // narrow: forced cross
}

TEST_F(PlannerTest, PicksBackwardWhenTargetSideIsSparser) {
  // wide anchors 1000 seeds forward but only 100 backward; the row
  // estimate is direction-independent, so backward wins.
  const QueryPlan plan = planner_.PlanQuery(
      SingleConjunctQuery(RegularExpression::Atom(Symbol::Fwd(kWide))),
      layout_);
  ASSERT_EQ(plan.rules[0].steps.size(), 1u);
  EXPECT_TRUE(plan.rules[0].steps[0].backward);
}

TEST_F(PlannerTest, KeepsForwardWhenSourceSideIsSparser) {
  // up: 10 tiny sources versus ~40 seed nodes on the big side.
  const QueryPlan plan = planner_.PlanQuery(
      SingleConjunctQuery(RegularExpression::Atom(Symbol::Fwd(kUp))),
      layout_);
  ASSERT_EQ(plan.rules[0].steps.size(), 1u);
  EXPECT_FALSE(plan.rules[0].steps[0].backward);
}

TEST_F(PlannerTest, StarSeedsFromTheSparserSide) {
  RegularExpression star = RegularExpression::Atom(Symbol::Fwd(kWide));
  star.star = true;
  // wide*: 1000 forward seeds vs 100 backward seeds -> seed backward.
  QueryPlan plan =
      planner_.PlanQuery(SingleConjunctQuery(star), layout_);
  EXPECT_TRUE(plan.rules[0].steps[0].backward);

  RegularExpression up_star = RegularExpression::Atom(Symbol::Fwd(kUp));
  up_star.star = true;
  // up*: 10 forward seeds vs ~40 backward -> keep the source side.
  plan = planner_.PlanQuery(SingleConjunctQuery(up_star), layout_);
  EXPECT_FALSE(plan.rules[0].steps[0].backward);
}

TEST_F(PlannerTest, ChainDirectionAnchorsAtTheCheapEnd) {
  // wide . narrow read left-to-right scans 1000 seeds; right-to-left
  // starts from the 10 tiny nodes. The chain fast path must flip.
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(kWide))},
               Conjunct{1, 2, RegularExpression::Atom(Symbol::Fwd(kNarrow))}};
  rule.head = {0, 2};
  q.rules = {rule};

  const QueryPlan plan = planner_.PlanQuery(q, layout_);
  EXPECT_TRUE(plan.rules[0].chain_backward);

  // The mirrored chain (up . wide) already starts at the cheap end.
  Query mirrored;
  QueryRule m;
  m.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(kUp))},
            Conjunct{1, 2, RegularExpression::Atom(Symbol::Fwd(kWide))}};
  m.head = {0, 2};
  mirrored.rules = {m};
  EXPECT_FALSE(planner_.PlanQuery(mirrored, layout_).rules[0].chain_backward);
}

TEST_F(PlannerTest, DirectionAgreesWithEstimatorCosts) {
  // The documented policy, checked against the estimator's public
  // output for every predicate: backward iff strictly cheaper.
  for (PredicateId p : {kWide, kNarrow, kUp}) {
    const Conjunct c{0, 1, RegularExpression::Atom(Symbol::Fwd(p))};
    const CardinalityEstimate est =
        planner_.estimator().EstimateCardinality(c, layout_);
    const QueryPlan plan =
        planner_.PlanQuery(SingleConjunctQuery(c.expr), layout_);
    EXPECT_EQ(plan.rules[0].steps[0].backward,
              est.backward_cost < est.forward_cost)
        << "predicate " << p;
  }
}

TEST_F(PlannerTest, PlanningIsDeterministic) {
  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(kWide))},
               Conjunct{1, 2, RegularExpression::Atom(Symbol::Fwd(kNarrow))},
               Conjunct{2, 3, RegularExpression::Atom(Symbol::Inv(kUp))}};
  rule.head = {0, 3};
  q.rules = {rule};

  const QueryPlan first = planner_.PlanQuery(q, layout_);
  EXPECT_EQ(first, planner_.PlanQuery(q, layout_));
  // A fresh planner over the same schema produces the same plan — the
  // plan is a pure function of (query, schema, layout).
  Planner other(&config_.schema);
  EXPECT_EQ(first, other.PlanQuery(q, layout_));
  EXPECT_FALSE(first.ToString().empty());
}

TEST(PlannerBibTest, EveryWorkloadStepCoversEachConjunctOnce) {
  // On the paper's Bib schema: whatever the estimates say, a plan must
  // be a permutation of the body with estimates filled in.
  GraphConfiguration config = MakeBibConfig(10000);
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  Planner planner(&config.schema);

  const PredicateId authors =
      config.schema.PredicateIdOf("authors").ValueOrDie();
  const PredicateId published_in =
      config.schema.PredicateIdOf("publishedIn").ValueOrDie();
  RegularExpression co;
  co.disjuncts = {{Symbol::Fwd(authors), Symbol::Inv(authors)}};
  co.star = true;

  Query q;
  QueryRule rule;
  rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(authors))},
               Conjunct{1, 2, co},
               Conjunct{2, 3, RegularExpression::Atom(Symbol::Fwd(authors))},
               Conjunct{3, 4,
                        RegularExpression::Atom(Symbol::Fwd(published_in))}};
  rule.head = {0, 4};
  q.rules = {rule};

  const QueryPlan plan = planner.PlanQuery(q, layout);
  ASSERT_EQ(plan.rules[0].steps.size(), rule.body.size());
  std::vector<bool> seen(rule.body.size(), false);
  for (const PlanStep& step : plan.rules[0].steps) {
    ASSERT_LT(step.conjunct, rule.body.size());
    EXPECT_FALSE(seen[step.conjunct]) << "conjunct executed twice";
    seen[step.conjunct] = true;
    EXPECT_GE(step.est_rows, 0.0);
  }
}

}  // namespace
}  // namespace gmark
