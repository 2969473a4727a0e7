// EstimateCardinality against ground truth: exact closed-form cases on
// a hand-built schema, then estimates pinned against cardinalities
// measured on a small generated Bib instance — the planner's cost model
// only has to rank alternatives, but these tests keep it honest to
// within a small constant factor so the rankings mean something.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/graph_config.h"
#include "core/use_cases.h"
#include "engine/automaton.h"
#include "engine/budget.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"
#include "selectivity/estimator.h"

namespace gmark {
namespace {

TEST(CardinalityTest, UniformFixedDegreeIsExact) {
  // 100 A-nodes, each with exactly 2 p-edges to B: 200 expected rows,
  // every A seeds forward, every B (50 of them, mean in-degree 4)
  // seeds backward.
  GraphConfiguration config;
  config.num_nodes = 150;
  EXPECT_TRUE(
      config.schema.AddType("A", OccurrenceConstraint::Fixed(100)).ok());
  EXPECT_TRUE(
      config.schema.AddType("B", OccurrenceConstraint::Fixed(50)).ok());
  EXPECT_TRUE(config.schema.AddPredicate("p").ok());
  EXPECT_TRUE(config.schema
                  .AddEdgeConstraintByName("A", "p", "B",
                                           DistributionSpec::NonSpecified(),
                                           DistributionSpec::Uniform(2, 2))
                  .ok());
  const NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  const SelectivityEstimator estimator(&config.schema);

  const Conjunct c{0, 1, RegularExpression::Atom(Symbol::Fwd(0))};
  const CardinalityEstimate est = estimator.EstimateCardinality(c, layout);
  EXPECT_DOUBLE_EQ(est.rows, 200.0);
  EXPECT_DOUBLE_EQ(est.forward_seeds, 100.0);
  EXPECT_DOUBLE_EQ(est.backward_seeds, 50.0);
  // Same rows either way, fewer seeds backward: backward is cheaper.
  EXPECT_LT(est.backward_cost, est.forward_cost);

  // The inverse conjunct mirrors the estimate.
  const Conjunct inv{0, 1, RegularExpression::Atom(Symbol::Inv(0))};
  const CardinalityEstimate rev = estimator.EstimateCardinality(inv, layout);
  EXPECT_DOUBLE_EQ(rev.rows, 200.0);
  EXPECT_DOUBLE_EQ(rev.forward_seeds, 50.0);
  EXPECT_DOUBLE_EQ(rev.backward_seeds, 100.0);
}

TEST(CardinalityTest, UnmatchablePredicatePathEstimatesZero) {
  GraphConfiguration config = MakeBibConfig(1000);
  const NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  const SelectivityEstimator estimator(&config.schema);
  const PredicateId authors =
      config.schema.PredicateIdOf("authors").ValueOrDie();
  const PredicateId held_in =
      config.schema.PredicateIdOf("heldIn").ValueOrDie();

  // authors . heldIn is type-incompatible (paper vs conference source):
  // no path can exist and the model must say so.
  RegularExpression dead;
  dead.disjuncts = {{Symbol::Fwd(authors), Symbol::Fwd(held_in)}};
  const CardinalityEstimate est =
      estimator.EstimateCardinality(Conjunct{0, 1, dead}, layout);
  EXPECT_DOUBLE_EQ(est.rows, 0.0);
}

// Measured-vs-estimated fixture: one small generated Bib instance, the
// reference RPQ evaluator as ground truth.
class MeasuredCardinalityTest : public ::testing::Test {
 protected:
  MeasuredCardinalityTest()
      : config_(MakeBibConfig(300, 3)),
        graph_(ParallelGenerateGraph(config_).ValueOrDie()),
        layout_(NodeLayout::Create(config_).ValueOrDie()),
        estimator_(&config_.schema) {}

  PredicateId Pred(const std::string& name) {
    return config_.schema.PredicateIdOf(name).ValueOrDie();
  }

  uint64_t Measure(const RegularExpression& expr) {
    const Nfa nfa = Nfa::FromRegex(expr).ValueOrDie();
    RpqEvaluator eval(&graph_);
    BudgetTracker budget(ResourceBudget::Unlimited());
    return eval.CountPairs(nfa, &budget).ValueOrDie();
  }

  // Estimate within a constant factor of the measurement, and exact
  // agreement on emptiness. Factor 5 is deliberately loose: the model
  // assumes type-level independence, the instance realizes one sample.
  void ExpectWithinFactor(const RegularExpression& expr, double factor) {
    const uint64_t actual = Measure(expr);
    const CardinalityEstimate est =
        estimator_.EstimateCardinality(Conjunct{0, 1, expr}, layout_);
    if (actual == 0) {
      EXPECT_EQ(est.rows, 0.0);
      return;
    }
    EXPECT_GE(est.rows, static_cast<double>(actual) / factor);
    EXPECT_LE(est.rows, static_cast<double>(actual) * factor);
  }

  GraphConfiguration config_;
  Graph graph_;
  NodeLayout layout_;
  SelectivityEstimator estimator_;
};

TEST_F(MeasuredCardinalityTest, SingleEdgeEstimatesTrackTheInstance) {
  for (const char* name : {"authors", "publishedIn", "extendedTo", "heldIn"}) {
    SCOPED_TRACE(name);
    ExpectWithinFactor(RegularExpression::Atom(Symbol::Fwd(Pred(name))),
                       5.0);
    ExpectWithinFactor(RegularExpression::Atom(Symbol::Inv(Pred(name))),
                       5.0);
  }
}

TEST_F(MeasuredCardinalityTest, ComposedPathEstimateTracksTheInstance) {
  // researcher -authors-> paper -publishedIn-> venue: composition
  // through the shared paper type.
  RegularExpression path;
  path.disjuncts = {
      {Symbol::Fwd(Pred("authors")), Symbol::Fwd(Pred("publishedIn"))}};
  ExpectWithinFactor(path, 5.0);

  // Co-authorship: authors . authors^-.
  RegularExpression co;
  co.disjuncts = {
      {Symbol::Fwd(Pred("authors")), Symbol::Inv(Pred("authors"))}};
  ExpectWithinFactor(co, 5.0);
}

TEST_F(MeasuredCardinalityTest, DisjunctionAddsEstimates) {
  RegularExpression a = RegularExpression::Atom(Symbol::Fwd(Pred("authors")));
  RegularExpression b =
      RegularExpression::Atom(Symbol::Fwd(Pred("publishedIn")));
  RegularExpression both;
  both.disjuncts = {a.disjuncts[0], b.disjuncts[0]};

  const double rows_a =
      estimator_.EstimateCardinality(Conjunct{0, 1, a}, layout_).rows;
  const double rows_b =
      estimator_.EstimateCardinality(Conjunct{0, 1, b}, layout_).rows;
  const double rows_both =
      estimator_.EstimateCardinality(Conjunct{0, 1, both}, layout_).rows;
  EXPECT_DOUBLE_EQ(rows_both, rows_a + rows_b);
}

TEST_F(MeasuredCardinalityTest, StarEstimateDominatesItsBase) {
  // The closure includes the base relation plus the reflexive diagonal,
  // so its estimate can never fall below either.
  RegularExpression co;
  co.disjuncts = {
      {Symbol::Fwd(Pred("authors")), Symbol::Inv(Pred("authors"))}};
  const double base =
      estimator_.EstimateCardinality(Conjunct{0, 1, co}, layout_).rows;
  RegularExpression star = co;
  star.star = true;
  const double closed =
      estimator_.EstimateCardinality(Conjunct{0, 1, star}, layout_).rows;
  EXPECT_GE(closed, base);
  EXPECT_GE(closed, static_cast<double>(layout_.total_nodes()) > 0 ? 1.0
                                                                   : 0.0);
}

TEST_F(MeasuredCardinalityTest, ChainCostPrefersTheSparseAnchor) {
  // heldIn^- fans a handful of cities out to conferences; appending
  // extendedTo^- keeps the backward anchor (few cities) far cheaper
  // than scanning every journal-side seed forward. Verify the chain
  // cost is direction-sensitive and deterministic.
  const std::vector<Conjunct> chain = {
      Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(Pred("authors")))},
      Conjunct{1, 2,
               RegularExpression::Atom(Symbol::Fwd(Pred("publishedIn")))}};
  const double fwd = estimator_.EstimateChainCost(chain, layout_, false);
  const double bwd = estimator_.EstimateChainCost(chain, layout_, true);
  EXPECT_GT(fwd, 0.0);
  EXPECT_GT(bwd, 0.0);
  EXPECT_EQ(fwd, estimator_.EstimateChainCost(chain, layout_, false));
  EXPECT_EQ(bwd, estimator_.EstimateChainCost(chain, layout_, true));
}

TEST_F(MeasuredCardinalityTest, EstimatesAreDeterministic) {
  RegularExpression co;
  co.disjuncts = {
      {Symbol::Fwd(Pred("authors")), Symbol::Inv(Pred("authors"))}};
  co.star = true;
  const Conjunct c{0, 1, co};
  const CardinalityEstimate a = estimator_.EstimateCardinality(c, layout_);
  const CardinalityEstimate b = estimator_.EstimateCardinality(c, layout_);
  EXPECT_DOUBLE_EQ(a.rows, b.rows);
  EXPECT_DOUBLE_EQ(a.forward_cost, b.forward_cost);
  EXPECT_DOUBLE_EQ(a.backward_cost, b.backward_cost);
  EXPECT_DOUBLE_EQ(a.forward_seeds, b.forward_seeds);
  EXPECT_DOUBLE_EQ(a.backward_seeds, b.backward_seeds);
}

}  // namespace
}  // namespace gmark
