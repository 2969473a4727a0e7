#include "obs/eval_profile.h"

#include <gtest/gtest.h>

#include <string>

#include "core/use_cases.h"
#include "engine/budget.h"
#include "engine/engines.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

TEST(EvalProfileTest, ConjunctAccessGrowsOnDemand) {
  EvalProfile profile;
  profile.Conjunct(2).rows = 5;
  ASSERT_EQ(profile.conjuncts.size(), 3u);
  EXPECT_EQ(profile.conjuncts[0].rows, 0u);
  EXPECT_EQ(profile.conjuncts[2].rows, 5u);
}

TEST(EvalProfileTest, RecordBudgetCapturesAccounting) {
  BudgetTracker tracker(ResourceBudget::Limited(10.0, 100));
  ASSERT_TRUE(tracker.ChargeTuples(60).ok());
  tracker.ReleaseTuples(20);
  tracker.ChargeScan(5);
  EvalProfile profile;
  profile.RecordBudget(tracker);
  EXPECT_EQ(profile.peak_tuples, 60u);
  EXPECT_EQ(profile.tuples_scanned, 5u);
  EXPECT_EQ(profile.tuple_headroom, 40u);
  EXPECT_EQ(profile.over_releases, 0u);
}

TEST(EvalProfileTest, BudgetProfileScopeFlushesOnScopeExit) {
  BudgetTracker tracker(ResourceBudget::Limited(10.0, 100));
  EvalProfile profile;
  {
    BudgetProfileScope scope(&profile, &tracker);
    ASSERT_TRUE(tracker.ChargeTuples(30).ok());
  }
  EXPECT_EQ(profile.peak_tuples, 30u);
  // Null profile must be a no-op (the disabled path).
  BudgetProfileScope noop(nullptr, &tracker);
}

#ifdef NDEBUG
// Release-build behavior: over-release clamps to zero and surfaces as a
// counter instead of being silently masked (debug builds assert, so the
// test only runs with NDEBUG).
TEST(EvalProfileTest, OverReleaseClampsAndCounts) {
  BudgetTracker tracker(ResourceBudget::Unlimited());
  ASSERT_TRUE(tracker.ChargeTuples(5).ok());
  tracker.ReleaseTuples(10);
  EXPECT_EQ(tracker.tuples_used(), 0u);
  EXPECT_EQ(tracker.over_releases(), 1u);
  EvalProfile profile;
  profile.RecordBudget(tracker);
  EXPECT_EQ(profile.over_releases, 1u);
  EXPECT_NE(profile.ToString().find("over_releases=1"), std::string::npos);
}
#endif

TEST(EvalProfileTest, SerializationListsEveryField) {
  EvalProfile profile;
  profile.Conjunct(0).rows = 11;
  profile.Conjunct(0).seconds = 0.25;
  profile.bfs_pops = 3;
  profile.bfs_peak_frontier = 2;
  profile.fixpoint_rounds = 4;
  profile.peak_tuples = 9;
  profile.planned = true;
  PlanStepProfile step;
  step.conjunct = 0;
  step.position = 0;
  step.backward = true;
  step.est_rows = 12.5;
  step.actual_rows = 11;
  profile.plan_steps = {step};
  const std::string json = profile.ToJson();
  EXPECT_EQ(json,
            "{\"conjuncts\": [{\"rows\": 11, \"seconds\": 0.250000, "
            "\"fixpoint_rounds\": 0}], \"planned\": true, "
            "\"chain_backward\": false, \"plan_steps\": "
            "[{\"conjunct\": 0, \"position\": 0, \"backward\": true, "
            "\"seed_backward\": false, \"est_rows\": 12.5, "
            "\"actual_rows\": 11}], \"bfs_pops\": 3, "
            "\"bfs_peak_frontier\": 2, \"fixpoint_rounds\": 4, "
            "\"peak_tuples\": 9, \"tuples_scanned\": 0, "
            "\"tuple_headroom\": 0, \"over_releases\": 0}");
  const std::string text = profile.ToString();
  EXPECT_NE(text.find("peak_tuples=9"), std::string::npos);
  EXPECT_NE(text.find("bfs_pops=3"), std::string::npos);
  EXPECT_NE(text.find("11 rows/0.250s"), std::string::npos);
  EXPECT_NE(text.find("plan=[#0< est=12.5 act=11]"), std::string::npos);
}

class EngineProfileTest : public ::testing::Test {
 protected:
  EngineProfileTest()
      : graph_(ParallelGenerateGraph(MakeBibConfig(200, 3)).ValueOrDie()) {
    // Two conjuncts, the second a Kleene star, so every profile
    // dimension has something to record: per-conjunct rows/seconds
    // everywhere, fixpoint rounds for the closure-based engines, BFS
    // pops for the automaton-based one.
    RegularExpression star = RegularExpression::Atom(Symbol::Fwd(0));
    star.star = true;
    QueryRule rule;
    rule.body = {Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(0))},
                 Conjunct{1, 2, star}};
    rule.head = {0, 2};
    query_.rules = {rule};
  }
  Graph graph_;
  Query query_;
};

TEST_F(EngineProfileTest, AllFourEnginesFillTheProfile) {
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind);
    EvalProfile profile;
    EvalContext ctx;
    ctx.profile = &profile;
    auto result =
        engine->Evaluate(graph_, query_, ResourceBudget::Unlimited(), &ctx);
    ASSERT_TRUE(result.ok()) << EngineKindCode(kind);
    ASSERT_EQ(profile.conjuncts.size(), 2u) << EngineKindCode(kind);
    EXPECT_GT(profile.conjuncts[0].rows, 0u) << EngineKindCode(kind);
    EXPECT_GE(profile.conjuncts[0].seconds, 0.0) << EngineKindCode(kind);
    EXPECT_GT(profile.peak_tuples, 0u) << EngineKindCode(kind);
    if (kind == EngineKind::kRelational || kind == EngineKind::kDatalog) {
      EXPECT_GT(profile.fixpoint_rounds, 0u) << EngineKindCode(kind);
      EXPECT_GT(profile.conjuncts[1].fixpoint_rounds, 0u)
          << EngineKindCode(kind);
    }
    if (kind == EngineKind::kSparql) {
      EXPECT_GT(profile.bfs_pops, 0u);
      EXPECT_GT(profile.bfs_peak_frontier, 0u);
    }
    // Hard invariant: the TupleCharge RAII layer makes a release that
    // exceeds the outstanding charge structurally unreachable.
    EXPECT_EQ(profile.over_releases, 0u) << EngineKindCode(kind);
  }
}

TEST_F(EngineProfileTest, NullContextLeavesResultsIdentical) {
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind);
    auto bare =
        engine->Evaluate(graph_, query_, ResourceBudget::Unlimited());
    EvalProfile profile;
    EvalContext ctx;
    ctx.profile = &profile;
    auto profiled =
        engine->Evaluate(graph_, query_, ResourceBudget::Unlimited(), &ctx);
    ASSERT_TRUE(bare.ok());
    ASSERT_TRUE(profiled.ok());
    EXPECT_EQ(bare.ValueOrDie(), profiled.ValueOrDie())
        << EngineKindCode(kind);
  }
}

TEST_F(EngineProfileTest, ReferenceEvaluatorRecordsBfsStats) {
  ReferenceEvaluator reference(&graph_);
  EvalProfile profile;
  EvalContext ctx;
  ctx.profile = &profile;
  auto count =
      reference.CountDistinct(query_, ResourceBudget::Unlimited(), &ctx);
  ASSERT_TRUE(count.ok());
  EXPECT_GT(profile.bfs_pops, 0u);
  EXPECT_GT(profile.bfs_peak_frontier, 0u);
  EXPECT_GT(profile.peak_tuples, 0u);
}

TEST_F(EngineProfileTest, ProfileSurvivesBudgetFailure) {
  // A one-tuple ceiling kills every engine mid-flight; the scope guards
  // must still flush the accounting the failure classification needs.
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind);
    EvalProfile profile;
    EvalContext ctx;
    ctx.profile = &profile;
    ResourceBudget budget = ResourceBudget::Limited(60.0, 1);
    auto result = engine->Evaluate(graph_, query_, budget, &ctx);
    ASSERT_FALSE(result.ok()) << EngineKindCode(kind);
    EXPECT_GE(profile.peak_tuples, budget.max_tuples) << EngineKindCode(kind);
    // The budget-failure unwind releases exactly what was charged, even
    // though the failed charge itself was recorded before rejection.
    EXPECT_EQ(profile.over_releases, 0u) << EngineKindCode(kind);
  }
}

}  // namespace
}  // namespace gmark
