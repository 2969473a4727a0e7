// The parallel section of RpqEvaluator's source fan-out: chunks count
// their targets into one atomic against the tracker's headroom, and the
// tracker is charged once after the fan-out. These cases drive it
// through RpqEvaluator at 2 and 8 threads with one source per chunk,
// on a tracker that already holds a charge, as the S engine's later
// conjuncts do: the ceiling must count that charge, a kill must return
// the balance to it, and success must add exactly the count to it.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/automaton.h"
#include "engine/charge.h"
#include "engine/evaluator.h"
#include "parallel/executor.h"

namespace gmark {
namespace {

// A directed ring over predicate a: from every node, a* reaches all n
// nodes, so every source costs the same BFS and charges n tuples.
constexpr int64_t kRing = 400;
constexpr size_t kAll = static_cast<size_t>(kRing * kRing);

Graph RingGraph() {
  GraphConfiguration config;
  config.num_nodes = kRing;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(kRing)).ok());
  std::vector<Edge> edges;
  for (NodeId i = 0; i < static_cast<NodeId>(kRing); ++i) {
    edges.push_back(Edge{i, 0, (i + 1) % static_cast<NodeId>(kRing)});
  }
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  return Graph::Build(std::move(layout), 1, std::move(edges)).ValueOrDie();
}

Nfa StarA() {
  RegularExpression star;
  star.disjuncts = {{Symbol::Fwd(0)}};
  star.star = true;
  return Nfa::FromRegex(star).ValueOrDie();
}

const int kThreadCounts[] = {2, 8};

EvalOptions OneSourcePerChunk(Executor* executor) {
  EvalOptions opts;
  opts.executor = executor;
  opts.chunk_sources = 1;
  return opts;
}

TEST(ParallelSectionTest, CeilingCountsTuplesTheTrackerAlreadyHolds) {
  // The ceiling fits the whole count, but the prior charge leaves room
  // for four sources' targets only: the serial run dies on its fifth
  // source, and the parallel run must die as early, not run every
  // source against a headroom that forgot the prior charge.
  Graph g = RingGraph();
  Nfa nfa = StarA();
  const size_t prior = kAll;
  const ResourceBudget budget =
      ResourceBudget::Limited(1e9, prior + 4 * static_cast<size_t>(kRing));

  RpqEvaluator serial(&g);
  BudgetTracker serial_tracker(budget);
  TupleCharge serial_prior(&serial_tracker);
  ASSERT_TRUE(serial_prior.Charge(prior).ok());
  EvalProfile serial_profile;
  ASSERT_TRUE(serial.CountPairs(nfa, &serial_tracker, &serial_profile)
                  .status()
                  .IsResourceExhausted());
  ASSERT_GT(serial_profile.bfs_pops, 0u);

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    RpqEvaluator parallel(&g, OneSourcePerChunk(&executor));

    // Without the prior charge the same ceiling fits every source.
    BudgetTracker roomy(budget);
    ASSERT_EQ(parallel.CountPairs(nfa, &roomy).ValueOrDie(), kAll);

    BudgetTracker tracker(budget);
    TupleCharge held(&tracker);
    ASSERT_TRUE(held.Charge(prior).ok());
    EvalProfile profile;
    Status st = parallel.CountPairs(nfa, &tracker, &profile).status();
    EXPECT_TRUE(st.IsResourceExhausted())
        << threads << " threads: " << st.ToString();
    // At most four sources held plus about one in flight per thread.
    EXPECT_LE(profile.bfs_pops, 6 * serial_profile.bfs_pops)
        << threads << " threads";
    EXPECT_LT(tracker.peak_tuples(), prior + kAll) << threads << " threads";
  }
}

TEST(ParallelSectionTest, TupleKillRestoresThePriorCharge) {
  Graph g = RingGraph();
  Nfa nfa = StarA();
  const size_t prior = 7;
  const size_t ceiling = prior + 4 * static_cast<size_t>(kRing);

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    RpqEvaluator parallel(&g, OneSourcePerChunk(&executor));
    BudgetTracker tracker(ResourceBudget::Limited(1e9, ceiling));
    TupleCharge held(&tracker);
    ASSERT_TRUE(held.Charge(prior).ok());

    Status st = parallel.CountPairs(nfa, &tracker).status();
    ASSERT_TRUE(st.IsResourceExhausted())
        << threads << " threads: " << st.ToString();
    // The tracker wrote the message: the observed total past the
    // ceiling, prior charge included.
    const std::string tail = " > " + std::to_string(ceiling) + ")";
    const std::string message = st.ToString();
    EXPECT_NE(message.find("tuple budget exceeded ("), std::string::npos)
        << message;
    EXPECT_EQ(message.substr(message.size() - tail.size()), tail) << message;

    EXPECT_EQ(tracker.tuples_used(), prior) << threads << " threads";
    EXPECT_EQ(tracker.over_releases(), 0u);
    // Documented bound: past the ceiling, within the unlimited peak.
    EXPECT_GT(tracker.peak_tuples(), ceiling) << threads << " threads";
    EXPECT_LE(tracker.peak_tuples(), prior + kAll) << threads << " threads";
  }
}

TEST(ParallelSectionTest, TimeKillRestoresThePriorCharge) {
  // A negative timeout is expired before evaluation starts, so every
  // chunk's first deadline read fails at any clock resolution.
  Graph g = RingGraph();
  Nfa nfa = StarA();
  for (int threads : kThreadCounts) {
    Executor executor(threads);
    RpqEvaluator parallel(&g, OneSourcePerChunk(&executor));
    BudgetTracker tracker(ResourceBudget::Limited(-1.0, 2 * kAll));
    TupleCharge held(&tracker);
    ASSERT_TRUE(held.Charge(7).ok());

    Status st = parallel.CountPairs(nfa, &tracker).status();
    EXPECT_TRUE(st.IsResourceExhausted())
        << threads << " threads: " << st.ToString();
    EXPECT_NE(st.ToString().find("timed out"), std::string::npos)
        << st.ToString();
    EXPECT_EQ(tracker.tuples_used(), 7u);
    EXPECT_EQ(tracker.over_releases(), 0u);
  }
}

TEST(ParallelSectionTest, SuccessLeavesThePriorChargePlusTheCount) {
  Graph g = RingGraph();
  Nfa nfa = StarA();
  const size_t prior = 7;
  // Exactly enough room: a headroom off by one either way shows.
  const ResourceBudget budget = ResourceBudget::Limited(1e9, prior + kAll);

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    RpqEvaluator parallel(&g, OneSourcePerChunk(&executor));
    BudgetTracker tracker(budget);
    TupleCharge held(&tracker);
    ASSERT_TRUE(held.Charge(prior).ok());

    {
      Result<ChargedPairs> pairs = parallel.MaterializePairs(nfa, &tracker);
      ASSERT_TRUE(pairs.ok()) << threads << " threads: " << pairs.status();
      EXPECT_EQ(pairs.ValueOrDie().value.size(), kAll);
      EXPECT_EQ(pairs.ValueOrDie().charge.count(), kAll);
      EXPECT_EQ(tracker.tuples_used(), prior + kAll);
    }
    EXPECT_EQ(tracker.tuples_used(), prior);
    EXPECT_EQ(tracker.peak_tuples(), prior + kAll);

    ASSERT_EQ(parallel.CountPairs(nfa, &tracker).ValueOrDie(), kAll);
    EXPECT_EQ(tracker.tuples_used(), prior);
    EXPECT_EQ(tracker.peak_tuples(), prior + kAll);
    EXPECT_EQ(tracker.over_releases(), 0u);
  }
}

}  // namespace
}  // namespace gmark
