#include "engine/flat_table.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "graph/graph.h"

namespace gmark {
namespace {

using Pairs = std::vector<std::pair<NodeId, NodeId>>;

uint64_t PairHash(const std::pair<NodeId, NodeId>& p) {
  return HashColumn(HashColumn(kRowHashSeed, p.first), p.second);
}

/// Insert `p` as row pairs->size() unless present; the stored id of an
/// equal row, or kNone when `p` was appended.
uint32_t Insert(FlatRowTable* table, Pairs* pairs,
                const std::pair<NodeId, NodeId>& p) {
  const uint32_t found = table->FindOrInsert(
      PairHash(p), static_cast<uint32_t>(pairs->size()),
      [&](uint32_t r) { return (*pairs)[r] == p; },
      [&](uint32_t r) { return PairHash((*pairs)[r]); });
  if (found == FlatRowTable::kNone) pairs->push_back(p);
  return found;
}

TEST(FlatTableTest, FindsEveryRowAcrossGrowth) {
  FlatRowTable table;
  Pairs pairs;
  // Far more rows than the initial capacity, with low 32 bits shared
  // between ids that differ only above bit 32.
  for (NodeId i = 0; i < 5000; ++i) {
    EXPECT_EQ(Insert(&table, &pairs, {i, i % 7}), FlatRowTable::kNone);
    EXPECT_EQ(Insert(&table, &pairs, {i | (NodeId{1} << 40), i % 7}),
              FlatRowTable::kNone);
  }
  ASSERT_EQ(pairs.size(), 10000u);
  for (uint32_t r = 0; r < pairs.size(); ++r) {
    EXPECT_EQ(Insert(&table, &pairs, pairs[r]), r);
    EXPECT_EQ(table.Find(PairHash(pairs[r]),
                         [&](uint32_t s) { return pairs[s] == pairs[r]; }),
              r);
  }
  EXPECT_EQ(pairs.size(), 10000u);
  const std::pair<NodeId, NodeId> absent{~NodeId{0} - 1, 3};
  EXPECT_EQ(table.Find(PairHash(absent),
                       [&](uint32_t s) { return pairs[s] == absent; }),
            FlatRowTable::kNone);
}

TEST(FlatTableTest, EmptyKeyHasOneRow) {
  // Zero key columns: every row hashes alike and compares equal, the
  // cross-product join's single group.
  FlatRowTable table;
  auto always = [](uint32_t) { return true; };
  auto seed = [](uint32_t) { return kRowHashSeed; };
  EXPECT_EQ(table.FindOrInsert(kRowHashSeed, 0, always, seed),
            FlatRowTable::kNone);
  EXPECT_EQ(table.FindOrInsert(kRowHashSeed, 1, always, seed), 0u);
  EXPECT_EQ(table.Find(kRowHashSeed, always), 0u);
}

TEST(FlatTableTest, RowLimitIsTheIdSpace) {
  EXPECT_TRUE(CheckRowLimit(0).ok());
  EXPECT_TRUE(CheckRowLimit(FlatRowTable::kNone - 1).ok());
  EXPECT_TRUE(CheckRowLimit(FlatRowTable::kNone).IsResourceExhausted());
  EXPECT_TRUE(
      CheckRowLimit(size_t{FlatRowTable::kNone} + 1).IsResourceExhausted());
}

}  // namespace
}  // namespace gmark
