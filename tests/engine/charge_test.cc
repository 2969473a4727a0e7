#include "engine/charge.h"

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>
#include <vector>

#include "engine/relation.h"

namespace gmark {
namespace {

// The guard types must be move-only: a copy would double-release (or
// silently share) a charge, which is exactly the bug class the RAII
// layer exists to rule out.
static_assert(!std::is_copy_constructible_v<TupleCharge>);
static_assert(!std::is_copy_assignable_v<TupleCharge>);
static_assert(std::is_move_constructible_v<TupleCharge>);
static_assert(std::is_move_assignable_v<TupleCharge>);
static_assert(!std::is_copy_constructible_v<ChargedRelation>);
static_assert(!std::is_copy_assignable_v<ChargedRelation>);
static_assert(std::is_move_constructible_v<ChargedRelation>);
static_assert(std::is_move_assignable_v<ChargedRelation>);

TEST(TupleChargeTest, ChargesOnAcquireReleasesOnDestruction) {
  BudgetTracker tracker(ResourceBudget::Unlimited());
  {
    TupleCharge charge(&tracker);
    ASSERT_TRUE(charge.Charge(5).ok());
    ASSERT_TRUE(charge.Charge(3).ok());
    EXPECT_EQ(charge.count(), 8u);
    EXPECT_EQ(tracker.tuples_used(), 8u);
  }
  EXPECT_EQ(tracker.tuples_used(), 0u);
  EXPECT_EQ(tracker.peak_tuples(), 8u);
  EXPECT_EQ(tracker.over_releases(), 0u);
}

TEST(TupleChargeTest, FailedChargeIsRecordedAndUnwound) {
  // BudgetTracker counts a charge before rejecting it, so the guard
  // must record the failed charge too: the unwind then releases
  // everything and the tracker returns to an exact zero.
  BudgetTracker tracker(ResourceBudget::Limited(60.0, 10));
  {
    TupleCharge charge(&tracker);
    EXPECT_TRUE(charge.Charge(20).IsResourceExhausted());
    EXPECT_EQ(charge.count(), 20u);
    EXPECT_EQ(tracker.tuples_used(), 20u);
  }
  EXPECT_EQ(tracker.tuples_used(), 0u);
  EXPECT_EQ(tracker.peak_tuples(), 20u);
  EXPECT_EQ(tracker.over_releases(), 0u);
}

TEST(TupleChargeTest, MoveConstructionStealsTheCharge) {
  BudgetTracker tracker(ResourceBudget::Unlimited());
  TupleCharge a(&tracker);
  ASSERT_TRUE(a.Charge(4).ok());
  TupleCharge b(std::move(a));
  EXPECT_EQ(a.count(), 0u);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_EQ(tracker.tuples_used(), 4u);  // Moved, not double-charged.
}

TEST(TupleChargeTest, MoveAssignmentReleasesTheReplacedCharge) {
  BudgetTracker tracker(ResourceBudget::Unlimited());
  TupleCharge a(&tracker);
  TupleCharge b(&tracker);
  ASSERT_TRUE(a.Charge(4).ok());
  ASSERT_TRUE(b.Charge(6).ok());
  EXPECT_EQ(tracker.tuples_used(), 10u);
  a = std::move(b);  // a's original 4 release; b's 6 move into a.
  EXPECT_EQ(a.count(), 6u);
  EXPECT_EQ(tracker.tuples_used(), 6u);
  EXPECT_EQ(tracker.over_releases(), 0u);
}

TEST(TupleChargeTest, ChargedBindsValueAndChargeLifetimes) {
  BudgetTracker tracker(ResourceBudget::Unlimited());
  {
    TupleCharge charge(&tracker);
    ASSERT_TRUE(charge.Charge(2).ok());
    Charged<std::vector<int>> held({1, 2}, std::move(charge));
    EXPECT_EQ(held.value.size(), 2u);
    EXPECT_EQ(held.charge.count(), 2u);
    EXPECT_EQ(tracker.tuples_used(), 2u);
  }
  EXPECT_EQ(tracker.tuples_used(), 0u);
}

TEST(TupleChargeTest, Pr5JoinCopyLifetimeReplayKeepsPeakExact) {
  // Replay of the PR 5 under-count, written against the RAII API: 20
  // pairs materialize, a 20-row relation copy is built from them, and
  // both must be charged while both are live (peak 40, not 20). With
  // TupleCharge there is no way to release the pair vector's share
  // early — its guard releases only when the vector actually dies — so
  // the buggy ordering cannot be written anymore.
  BudgetTracker tracker(ResourceBudget::Unlimited());
  {
    std::vector<std::pair<NodeId, NodeId>> pairs;
    for (NodeId i = 1; i <= 20; ++i) pairs.emplace_back(0, i);
    TupleCharge pair_charge(&tracker);
    ASSERT_TRUE(pair_charge.Charge(pairs.size()).ok());
    ChargedRelation rel =
        ChargeRelation(VarRelation::FromPairs(0, 1, pairs), &tracker)
            .ValueOrDie();
    EXPECT_EQ(rel.value.row_count(), 20u);
    EXPECT_EQ(tracker.tuples_used(), 40u);  // Both copies held.
  }
  EXPECT_EQ(tracker.peak_tuples(), 40u);
  EXPECT_EQ(tracker.tuples_used(), 0u);
  EXPECT_EQ(tracker.over_releases(), 0u);
}

TEST(TupleChargeTest, BudgetExhaustionUnwindsThroughOperators) {
  // HashJoin dies mid-output on a 3-tuple ceiling; everything it
  // charged must unwind with no over-release and an honest peak.
  BudgetTracker tracker(ResourceBudget::Limited(60.0, 3));
  // Unary relations ?0 = {1, 2} and ?1 = {7, 8, 9}: FromPairs keeps
  // the reflexive pairs of a repeated variable.
  VarRelation r = VarRelation::FromPairs(0, 0, {{1, 1}, {2, 2}});
  VarRelation s = VarRelation::FromPairs(1, 1, {{7, 7}, {8, 8}, {9, 9}});
  EXPECT_TRUE(HashJoin(r, s, &tracker).status().IsResourceExhausted());
  EXPECT_EQ(tracker.tuples_used(), 0u);
  EXPECT_EQ(tracker.peak_tuples(), 4u);  // 3 allowed + the rejected 4th.
  EXPECT_EQ(tracker.over_releases(), 0u);
}

}  // namespace
}  // namespace gmark
