#include "engine/relation.h"

#include <gtest/gtest.h>

namespace gmark {
namespace {

VarRelation MakeRelation(std::vector<VarId> vars,
                         std::vector<std::vector<NodeId>> rows) {
  VarRelation rel(std::move(vars));
  for (const auto& row : rows) rel.AppendRow(row);
  return rel;
}

TEST(RelationTest, FromPairsBinary) {
  VarRelation rel = VarRelation::FromPairs(0, 1, {{1, 2}, {3, 4}});
  EXPECT_EQ(rel.width(), 2u);
  EXPECT_EQ(rel.row_count(), 2u);
  EXPECT_EQ(rel.row(1)[0], 3u);
  EXPECT_EQ(rel.row(1)[1], 4u);
}

TEST(RelationTest, FromPairsSelfVariableKeepsReflexiveOnly) {
  VarRelation rel = VarRelation::FromPairs(0, 0, {{1, 2}, {3, 3}, {4, 4}});
  EXPECT_EQ(rel.width(), 1u);
  EXPECT_EQ(rel.row_count(), 2u);
  EXPECT_EQ(rel.row(0)[0], 3u);
}

TEST(RelationTest, HashJoinOnSharedVariable) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}, {3, 4}, {5, 2}});
  VarRelation s = MakeRelation({1, 2}, {{2, 7}, {2, 8}, {4, 9}});
  ChargedRelation joined = HashJoin(r, s, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.vars(), (std::vector<VarId>{0, 1, 2}));
  // (1,2)x{7,8}, (5,2)x{7,8}, (3,4)x{9}: 5 rows.
  EXPECT_EQ(joined.value.row_count(), 5u);
  // The join output's charge is bound to the relation's lifetime.
  EXPECT_EQ(joined.charge.count(), 5u);
  EXPECT_EQ(budget.tuples_used(), 5u);
}

TEST(RelationTest, HashJoinOnTwoSharedVariables) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}, {3, 4}});
  VarRelation s = MakeRelation({0, 1}, {{1, 2}, {3, 9}});
  ChargedRelation joined = HashJoin(r, s, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.row_count(), 1u);
  EXPECT_EQ(joined.value.row(0)[0], 1u);
}

TEST(RelationTest, HashJoinWithoutSharedVariablesIsCrossProduct) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0}, {{1}, {2}});
  VarRelation s = MakeRelation({1}, {{7}, {8}, {9}});
  ChargedRelation joined = HashJoin(r, s, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.row_count(), 6u);
  EXPECT_EQ(joined.value.width(), 2u);
}

TEST(RelationTest, HashJoinChargesBudget) {
  BudgetTracker budget(ResourceBudget::Limited(60.0, 3));
  VarRelation r = MakeRelation({0}, {{1}, {2}});
  VarRelation s = MakeRelation({1}, {{7}, {8}, {9}});
  EXPECT_TRUE(HashJoin(r, s, &budget).status().IsResourceExhausted());
}

TEST(RelationTest, ProjectDistinct) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}, {1, 3}, {1, 2}, {4, 2}});
  ChargedRelation p = ProjectDistinct(r, {0}, &budget).ValueOrDie();
  EXPECT_EQ(p.value.row_count(), 2u);  // {1, 4}
  ChargedRelation p2 = ProjectDistinct(r, {0, 1}, &budget).ValueOrDie();
  EXPECT_EQ(p2.value.row_count(), 3u);
  ChargedRelation swapped = ProjectDistinct(r, {1, 0}, &budget).ValueOrDie();
  EXPECT_EQ(swapped.value.row_count(), 3u);
  EXPECT_EQ(swapped.value.row(0)[0], 2u);  // Column order follows `onto`.
}

TEST(RelationTest, ProjectDistinctOnUnknownVariableFails) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1}, {{1, 2}});
  EXPECT_FALSE(ProjectDistinct(r, {9}, &budget).ok());
}

TEST(RelationTest, NullaryProjection) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation nonempty = MakeRelation({0}, {{1}});
  VarRelation empty = MakeRelation({0}, {});
  EXPECT_EQ(ProjectDistinct(nonempty, {}, &budget)->value.row_count(), 1u);
  EXPECT_EQ(ProjectDistinct(empty, {}, &budget)->value.row_count(), 0u);
}

TEST(RelationTest, CountDistinctUnionMergesOverlap) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation a = MakeRelation({0, 1}, {{1, 2}, {3, 4}});
  VarRelation b = MakeRelation({0, 1}, {{3, 4}, {5, 6}});
  EXPECT_EQ(CountDistinctUnion({a, b}, &budget).ValueOrDie(), 3u);
  EXPECT_EQ(CountDistinctUnion({}, &budget).ValueOrDie(), 0u);
}

TEST(RelationTest, CountDistinctUnionNullary) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation t = MakeRelation({0}, {{1}});
  BudgetTracker b2(ResourceBudget::Unlimited());
  ChargedRelation projected = ProjectDistinct(t, {}, &b2).ValueOrDie();
  EXPECT_EQ(CountDistinctUnion({projected.value}, &budget).ValueOrDie(), 1u);
}

// Ids whose low 32 bits collide with small ids: a key packed into 32
// bits per column would alias them with 0 and 0xfffffffe.
constexpr NodeId kHigh = NodeId{1} << 40;
constexpr NodeId kTop = ~NodeId{0} - 1;

std::vector<std::vector<NodeId>> Rows(const VarRelation& rel) {
  std::vector<std::vector<NodeId>> rows;
  for (size_t i = 0; i < rel.row_count(); ++i) {
    rows.emplace_back(rel.row(i).begin(), rel.row(i).end());
  }
  return rows;
}

TEST(RelationTest, HashJoinRowOrderOneSharedVariable) {
  // Output order: `a` order, then `b` order within a key.
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation a = MakeRelation({0, 1, 2}, {{1, 2, kHigh},
                                           {3, 4, 0},
                                           {5, 6, kHigh},
                                           {7, 8, 9}});
  VarRelation b = MakeRelation({2, 3, 4}, {{kHigh, 10, 11},
                                           {0, 12, 13},
                                           {kHigh, 14, 15},
                                           {kTop, 16, 17}});
  ChargedRelation joined = HashJoin(a, b, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.vars(), (std::vector<VarId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(Rows(joined.value), (std::vector<std::vector<NodeId>>{
                                    {1, 2, kHigh, 10, 11},
                                    {1, 2, kHigh, 14, 15},
                                    {3, 4, 0, 12, 13},
                                    {5, 6, kHigh, 10, 11},
                                    {5, 6, kHigh, 14, 15}}));
  EXPECT_EQ(joined.charge.count(), 5u);
}

TEST(RelationTest, HashJoinRowOrderTwoSharedVariables) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation a = MakeRelation({0, 1, 2}, {{1, kTop, kHigh},
                                           {2, 0xfffffffe, 0},
                                           {3, kTop, kHigh},
                                           {4, kTop, 0}});
  VarRelation b = MakeRelation({2, 3, 1}, {{kHigh, 20, kTop},
                                           {0, 21, 0xfffffffe},
                                           {kHigh, 22, kTop},
                                           {0, 23, kTop},
                                           {kHigh, 24, 0xfffffffe}});
  ChargedRelation joined = HashJoin(a, b, &budget).ValueOrDie();
  EXPECT_EQ(joined.value.vars(), (std::vector<VarId>{0, 1, 2, 3}));
  EXPECT_EQ(Rows(joined.value), (std::vector<std::vector<NodeId>>{
                                    {1, kTop, kHigh, 20},
                                    {1, kTop, kHigh, 22},
                                    {2, 0xfffffffe, 0, 21},
                                    {3, kTop, kHigh, 20},
                                    {3, kTop, kHigh, 22},
                                    {4, kTop, 0, 23}}));
}

TEST(RelationTest, HashJoinRowOrderNoSharedVariables) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation a = MakeRelation({0, 1, 2}, {{1, 2, 3}, {kHigh, kTop, 0}});
  VarRelation b = MakeRelation({3, 4, 5}, {{7, 8, 9}, {0, 0, 0}, {7, 8, 9}});
  ChargedRelation joined = HashJoin(a, b, &budget).ValueOrDie();
  EXPECT_EQ(Rows(joined.value), (std::vector<std::vector<NodeId>>{
                                    {1, 2, 3, 7, 8, 9},
                                    {1, 2, 3, 0, 0, 0},
                                    {1, 2, 3, 7, 8, 9},
                                    {kHigh, kTop, 0, 7, 8, 9},
                                    {kHigh, kTop, 0, 0, 0, 0},
                                    {kHigh, kTop, 0, 7, 8, 9}}));
}

TEST(RelationTest, ProjectDistinctKeepsFirstOccurrenceOrder) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation r = MakeRelation({0, 1, 2, 3}, {{kHigh, 1, 2, 3},
                                              {0, 1, 2, 4},
                                              {kHigh, 1, 2, 5},
                                              {kTop, 0xfffffffe, 2, 6},
                                              {0, 1, 2, 7},
                                              {0xfffffffe, kTop, 2, 8}});
  ChargedRelation p = ProjectDistinct(r, {2, 0, 1}, &budget).ValueOrDie();
  EXPECT_EQ(Rows(p.value), (std::vector<std::vector<NodeId>>{
                               {2, kHigh, 1},
                               {2, 0, 1},
                               {2, kTop, 0xfffffffe},
                               {2, 0xfffffffe, kTop}}));
  EXPECT_EQ(p.charge.count(), 4u);
}

TEST(RelationTest, CountDistinctUnionDoesNotAliasWideIds) {
  BudgetTracker budget(ResourceBudget::Unlimited());
  VarRelation a = MakeRelation({0, 1}, {{kHigh, 0}, {0, 0}, {kTop, 1}});
  VarRelation b = MakeRelation({0, 1}, {{0xfffffffe, 1}, {kHigh, 0}});
  EXPECT_EQ(CountDistinctUnion({a, b}, &budget).ValueOrDie(), 4u);
  EXPECT_EQ(budget.tuples_used(), 0u);
  EXPECT_EQ(budget.peak_tuples(), 4u);
}

// A tuple ceiling hit inside a kernel: the kernel reports the kill, the
// attempted row is the peak, and every charge unwinds.
void ExpectCleanKill(const Status& status, const BudgetTracker& budget,
                     size_t ceiling) {
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_EQ(budget.peak_tuples(), ceiling + 1);
  EXPECT_EQ(budget.tuples_used(), 0u);
  EXPECT_EQ(budget.over_releases(), 0u);
}

TEST(RelationTest, TupleCeilingMidJoinUnwinds) {
  VarRelation a = MakeRelation({0, 1}, {{1, 5}, {2, 5}, {3, 5}, {4, 6}});
  VarRelation b = MakeRelation({1, 2}, {{5, 7}, {5, 8}, {6, 9}});
  BudgetTracker budget(ResourceBudget::Limited(60.0, 4));
  ExpectCleanKill(HashJoin(a, b, &budget).status(), budget, 4);
}

// The join's count pass decides the kill against the headroom left by
// charges already held (the accumulator's, in a rule plan). Ceiling 10
// with 3 tuples held leaves a headroom of 7.
constexpr size_t kCeiling = 10;
constexpr size_t kPrior = 3;

// 3 x {7, 8} on ?1 = 5, then 1 x {9} on ?1 = 6: 7 rows.
VarRelation JoinLeft() {
  return MakeRelation({0, 1}, {{1, 5}, {2, 5}, {3, 5}, {4, 6}});
}
VarRelation JoinRight() {
  return MakeRelation({1, 2}, {{5, 7}, {5, 8}, {6, 9}});
}

TEST(RelationTest, HashJoinFillingTheHeadroomSucceeds) {
  BudgetTracker budget(ResourceBudget::Limited(60.0, kCeiling));
  TupleCharge prior(&budget);
  ASSERT_TRUE(prior.Charge(kPrior).ok());
  Result<ChargedRelation> joined = HashJoin(JoinLeft(), JoinRight(), &budget);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  EXPECT_EQ(joined->value.row_count(), kCeiling - kPrior);
  EXPECT_EQ(joined->charge.count(), kCeiling - kPrior);
  EXPECT_EQ(budget.peak_tuples(), kCeiling);
}

// A kill leaves the tracker as charging row by row would: the peak is
// the rejected row, the message names it, and only the prior charge
// is still held.
void ExpectKillPastHeadroom(const Status& status, const BudgetTracker& budget) {
  EXPECT_TRUE(status.IsResourceExhausted()) << status.ToString();
  EXPECT_EQ(status.message(), "tuple budget exceeded (11 > 10)");
  EXPECT_EQ(budget.peak_tuples(), kCeiling + 1);
  EXPECT_EQ(budget.tuples_used(), kPrior);
  EXPECT_EQ(budget.over_releases(), 0u);
}

TEST(RelationTest, HashJoinOneRowPastTheHeadroomIsKilled) {
  BudgetTracker budget(ResourceBudget::Limited(60.0, kCeiling));
  TupleCharge prior(&budget);
  ASSERT_TRUE(prior.Charge(kPrior).ok());
  VarRelation b = JoinRight();
  b.AppendRow(std::vector<NodeId>{6, 10});  // 8 rows
  ExpectKillPastHeadroom(HashJoin(JoinLeft(), b, &budget).status(), budget);
}

TEST(RelationTest, CrossProductPastTheHeadroomIsKilled) {
  BudgetTracker budget(ResourceBudget::Limited(60.0, kCeiling));
  TupleCharge prior(&budget);
  ASSERT_TRUE(prior.Charge(kPrior).ok());
  VarRelation a = MakeRelation({0}, {{1}, {2}, {3}, {4}});
  VarRelation b = MakeRelation({1}, {{7}, {8}, {9}});  // 12 rows
  ExpectKillPastHeadroom(HashJoin(a, b, &budget).status(), budget);
}

TEST(RelationTest, UnlimitedHashJoinDoesNotWrap) {
  for (size_t prior_count : {size_t{0}, kPrior}) {
    BudgetTracker budget(ResourceBudget::Unlimited());
    TupleCharge prior(&budget);
    ASSERT_TRUE(prior.Charge(prior_count).ok());
    Result<ChargedRelation> joined =
        HashJoin(JoinLeft(), JoinRight(), &budget);
    ASSERT_TRUE(joined.ok()) << joined.status().ToString();
    EXPECT_EQ(joined->value.row_count(), 7u);
    EXPECT_EQ(joined->charge.count(), 7u);
    EXPECT_EQ(budget.peak_tuples(), prior_count + 7);
  }
}

// Row-at-a-time reference: a nested-loop join charging each output
// row as it is produced, the kill semantics HashJoin must keep.
Status NestedLoopJoinCharges(const VarRelation& a, const VarRelation& b,
                             BudgetTracker* budget, size_t* rows) {
  TupleCharge charge(budget);
  *rows = 0;
  for (size_t i = 0; i < a.row_count(); ++i) {
    for (size_t j = 0; j < b.row_count(); ++j) {
      if (a.row(i)[1] != b.row(j)[0]) continue;
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      ++*rows;
    }
  }
  return Status::OK();
}

TEST(RelationTest, HashJoinKillsMatchRowAtATimeCharging) {
  uint64_t state = 12345;
  auto next = [&](uint64_t bound) {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return (state >> 33) % bound;
  };
  for (int trial = 0; trial < 200; ++trial) {
    VarRelation a({0, 1}), b({1, 2});
    for (uint64_t i = next(12); i > 0; --i) {
      a.AppendRow(std::vector<NodeId>{next(4), next(4)});
    }
    for (uint64_t i = next(12); i > 0; --i) {
      b.AppendRow(std::vector<NodeId>{next(4), next(4)});
    }
    const size_t ceiling = next(30);
    const size_t prior_count = next(ceiling + 1);
    BudgetTracker reference(ResourceBudget::Limited(60.0, ceiling));
    BudgetTracker budget(ResourceBudget::Limited(60.0, ceiling));
    TupleCharge reference_prior(&reference), prior(&budget);
    ASSERT_TRUE(reference_prior.Charge(prior_count).ok());
    ASSERT_TRUE(prior.Charge(prior_count).ok());
    size_t rows = 0;
    const Status expected = NestedLoopJoinCharges(a, b, &reference, &rows);
    SCOPED_TRACE(trial);
    {
      const Result<ChargedRelation> joined = HashJoin(a, b, &budget);
      EXPECT_EQ(joined.status().ToString(), expected.ToString());
      if (joined.ok()) {
        EXPECT_EQ(joined->value.row_count(), rows);
      }
    }
    EXPECT_EQ(budget.peak_tuples(), reference.peak_tuples());
    EXPECT_EQ(budget.tuples_used(), reference.tuples_used());
  }
}

TEST(RelationTest, TupleCeilingMidDistinctUnwinds) {
  VarRelation r = MakeRelation({0, 1}, {{1, 2}, {1, 2}, {3, 4}, {5, 6},
                                        {3, 4}, {7, 8}, {9, 10}});
  BudgetTracker budget(ResourceBudget::Limited(60.0, 3));
  ExpectCleanKill(ProjectDistinct(r, {0, 1}, &budget).status(), budget, 3);
  VarRelation s = MakeRelation({0, 1}, {{9, 10}, {11, 12}});
  BudgetTracker union_budget(ResourceBudget::Limited(60.0, 5));
  ExpectCleanKill(CountDistinctUnion({r, s}, &union_budget).status(),
                  union_budget, 5);
}

TEST(BudgetTest, TupleAccounting) {
  BudgetTracker budget(ResourceBudget::Limited(60.0, 10));
  EXPECT_TRUE(budget.ChargeTuples(6).ok());
  EXPECT_EQ(budget.tuples_used(), 6u);
  budget.ReleaseTuples(4);
  EXPECT_EQ(budget.tuples_used(), 2u);
  EXPECT_TRUE(budget.ChargeTuples(8).ok());
  EXPECT_TRUE(budget.ChargeTuples(1).IsResourceExhausted());
  // An over-release asserts in debug builds; release builds saturate
  // at zero and count the event.
  EXPECT_DEBUG_DEATH(budget.ReleaseTuples(1000), "over-release");
#ifdef NDEBUG
  EXPECT_EQ(budget.tuples_used(), 0u);
  EXPECT_EQ(budget.over_releases(), 1u);
#endif
}

TEST(BudgetTest, TimeoutFires) {
  BudgetTracker budget(ResourceBudget::Limited(0.0, 100));
  EXPECT_TRUE(budget.CheckTime().IsResourceExhausted());
  BudgetTracker relaxed(ResourceBudget::Unlimited());
  EXPECT_TRUE(relaxed.CheckTime().ok());
}

}  // namespace
}  // namespace gmark
