// Source-grouped path composition against the kernels it replaced
// (legacy_compose.h): on every conjunct regex of gMark's own Len, Dis,
// Con and Rec workloads over Bib and LSN instances, and on hand-built
// corner cases, under bag and set semantics, RegexBasePairs must return
// the same bytes, hold the same charge, reach the same peak, and die at
// exactly the same tuple ceiling.

#include "legacy_compose.h"

#include <gtest/gtest.h>

#include <string>

#include "core/use_cases.h"
#include "parallel/parallel_generator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

// Peaks above this are not compared: both sides must die there instead.
constexpr size_t kCap = 4000000;

struct Run {
  Status status;
  NodePairs pairs;
  size_t charged = 0;
  size_t peak = 0;
  size_t left = 0;  // tuples still charged after the result is dropped
};

template <typename Fn>
Run RunOne(Fn&& regex_base_pairs, size_t ceiling) {
  BudgetTracker budget(ResourceBudget::Limited(600.0, ceiling));
  Run run;
  {
    Result<ChargedPairs> got = regex_base_pairs(&budget);
    run.status = got.status();
    if (got.ok()) {
      run.charged = got->charge.count();
      run.pairs = std::move(got->value);
    }
  }
  run.peak = budget.peak_tuples();
  run.left = budget.tuples_used();
  return run;
}

// Compares the two kernels on one regex under one semantics; returns
// false when the case is above kCap (both sides killed there).
bool ExpectSameKernel(const Graph& graph, const RegularExpression& expr,
                      bool set_semantics, const std::string& label) {
  auto current = [&](BudgetTracker* b) {
    return RegexBasePairs(graph, expr, set_semantics, b);
  };
  auto legacy = [&](BudgetTracker* b) {
    return testing_legacy::RegexBasePairs(graph, expr, set_semantics, b);
  };
  const std::string where = label + (set_semantics ? " [set]" : " [bag]");

  const Run want = RunOne(legacy, kCap);
  const Run got = RunOne(current, kCap);
  EXPECT_EQ(got.left, 0u) << where;
  if (!want.status.ok()) {
    EXPECT_TRUE(want.status.IsResourceExhausted()) << where;
    EXPECT_TRUE(got.status.IsResourceExhausted()) << where;
    return false;
  }
  EXPECT_TRUE(got.status.ok()) << where << ": " << got.status.ToString();
  EXPECT_TRUE(got.pairs == want.pairs) << where;
  EXPECT_EQ(got.charged, want.charged) << where;
  EXPECT_EQ(got.peak, want.peak) << where;

  if (want.peak > 0) {
    const Run want_killed = RunOne(legacy, want.peak - 1);
    const Run got_killed = RunOne(current, want.peak - 1);
    EXPECT_TRUE(want_killed.status.IsResourceExhausted()) << where;
    EXPECT_TRUE(got_killed.status.IsResourceExhausted()) << where;
    EXPECT_EQ(got_killed.left, 0u) << where;
  }
  const Run want_fits = RunOne(legacy, want.peak);
  const Run got_fits = RunOne(current, want.peak);
  EXPECT_TRUE(want_fits.status.ok()) << where;
  EXPECT_TRUE(got_fits.status.ok()) << where;
  return true;
}

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

RegularExpression Union(std::vector<PathExpr> disjuncts) {
  RegularExpression expr;
  expr.disjuncts = std::move(disjuncts);
  return expr;
}

TEST(ComposeDifferentialTest, HandCases) {
  // a (0): a diamond 0 -> {1, 2} -> 3 plus 3 -> 1 and 4 -> 0;
  // b (1): a self-loop on 3 and 2 -> 3; c (2): no edges.
  const Graph g = HandGraph(5, 3,
                            {{0, 0, 1}, {0, 0, 2}, {1, 0, 3}, {2, 0, 3},
                             {3, 0, 1}, {4, 0, 0}, {3, 1, 3}, {2, 1, 3}});
  const Symbol a = Symbol::Fwd(0), a_inv = Symbol::Inv(0);
  const Symbol b = Symbol::Fwd(1), b_inv = Symbol::Inv(1);
  const Symbol c = Symbol::Fwd(2);
  const std::vector<std::pair<std::string, RegularExpression>> cases{
      {"inverse first", Union({{a_inv, a}})},
      {"inverse first, three steps", Union({{a_inv, a, a_inv}})},
      {"shared pairs", Union({{a, a}, {a, b}, {a, a}})},
      {"overlapping disjuncts", Union({{a}, {a_inv}, {b}})},
      {"diamond", Union({{a, a}})},
      {"self-loop", Union({{b}, {b, b}, {b_inv, b}})},
      {"into a self-loop", Union({{a, b, b}})},
      {"empty relation", Union({{c}})},
      {"empty step", Union({{a, c}})},
      {"empty and non-empty", Union({{c}, {a}})},
  };
  for (const auto& [label, expr] : cases) {
    for (bool set_semantics : {false, true}) {
      EXPECT_TRUE(ExpectSameKernel(g, expr, set_semantics, label));
    }
  }

  // The diamond is where bag and set semantics differ: (0, 3) twice.
  BudgetTracker budget(ResourceBudget::Unlimited());
  auto bag = ComposePathPairs(g, {a, a}, /*set_semantics=*/false, &budget);
  auto set = ComposePathPairs(g, {a, a}, /*set_semantics=*/true, &budget);
  ASSERT_TRUE(bag.ok());
  ASSERT_TRUE(set.ok());
  EXPECT_EQ(bag->value.size(), set->value.size() + 1);
}

class WorkloadDifferentialTest
    : public ::testing::TestWithParam<std::tuple<bool, int64_t>> {};

TEST_P(WorkloadDifferentialTest, RegexBasePairsMatchLegacyKernels) {
  const auto [lsn, n] = GetParam();
  size_t compared = 0;
  size_t capped = 0;
  for (uint64_t seed : {1u, 2u, 3u}) {
    GraphConfiguration config =
        lsn ? MakeLsnConfig(n, seed) : MakeBibConfig(n, seed);
    const Graph graph = ParallelGenerateGraph(config).ValueOrDie();
    for (WorkloadPreset preset : AllWorkloadPresets()) {
      Workload workload = QueryGenerator(&config.schema)
                              .Generate(MakePresetWorkload(preset, 8, seed))
                              .ValueOrDie();
      for (const GeneratedQuery& gq : workload.queries) {
        const std::string text = gq.query.ToString(config.schema);
        for (const QueryRule& rule : gq.query.rules) {
          for (const Conjunct& conjunct : rule.body) {
            for (bool set_semantics : {false, true}) {
              const std::string label =
                  std::string(WorkloadPresetName(preset)) + " seed " +
                  std::to_string(seed) + ": " + text;
              if (ExpectSameKernel(graph, conjunct.expr, set_semantics,
                                   label)) {
                ++compared;
              } else {
                ++capped;
              }
            }
          }
        }
      }
    }
  }
  // The comparison must not be vacuous.
  EXPECT_GT(compared, 10 * capped);
  EXPECT_GT(compared, 100u);
}

INSTANTIATE_TEST_SUITE_P(
    Schemas, WorkloadDifferentialTest,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(int64_t{300}, int64_t{2000})),
    [](const auto& info) {
      return std::string(std::get<0>(info.param) ? "LSN" : "Bib") + "_n" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace gmark
