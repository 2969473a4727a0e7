// Byte-identity of frontier-parallel query evaluation: counts, pairs,
// profiles, and budget accounting must not depend on the thread or
// chunk count — at 1/2/8 threads, on success paths and budget-killed
// paths alike. The serial evaluator (no executor) is the oracle.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "core/use_cases.h"
#include "engine/automaton.h"
#include "engine/engines.h"
#include "engine/evaluator.h"
#include "parallel/executor.h"
#include "parallel/parallel_generator.h"
#include "plan/planner.h"

namespace gmark {
namespace {

// A deterministic ~500-node graph over predicates a (0) and b (1),
// dense enough that the auto-chunked evaluator produces many chunks
// per thread count (and skewed: node degree varies with index).
Graph DenseGraph(int64_t n = 500) {
  GraphConfiguration config;
  config.num_nodes = n;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(n)).ok());
  std::vector<Edge> edges;
  for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
    const int degree = 2 + static_cast<int>(i % 7);
    for (int j = 0; j < degree; ++j) {
      NodeId t = (i * 7 + static_cast<NodeId>(j) * 13 + 1) %
                 static_cast<NodeId>(n);
      edges.push_back(Edge{i, 0, t});
    }
    if (i % 3 == 0) {
      edges.push_back(Edge{i, 1, (i * 5 + 2) % static_cast<NodeId>(n)});
    }
  }
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  return Graph::Build(std::move(layout), 2, std::move(edges)).ValueOrDie();
}

RegularExpression StarA() {
  RegularExpression star;
  star.disjuncts = {{Symbol::Fwd(0)}};
  star.star = true;
  return star;
}

// Non-recursive chain (b then a): tractable for the DFS engine too —
// its path enumeration is exponential under a Kleene star with an
// unlimited budget, so cross-engine tests stay star-free and the
// recursive coverage rides the RpqEvaluator/S-engine tests above.
Query ChainQuery() {
  Query q;
  QueryRule rule;
  rule.body.push_back(Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(1))});
  rule.body.push_back(Conjunct{1, 2, RegularExpression::Atom(Symbol::Fwd(0))});
  rule.head = {0, 2};
  q.rules = {rule};
  return q;
}

// Recursive chain for the engines whose evaluator parallelizes (S).
Query StarChainQuery() {
  Query q;
  QueryRule rule;
  rule.body.push_back(Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(1))});
  rule.body.push_back(Conjunct{1, 2, StarA()});
  rule.head = {0, 2};
  q.rules = {rule};
  return q;
}

// The thread counts the identity gate pins (1 exercises the inline
// executor; 2 and 8 the pooled path with different chunk interleaving).
const int kThreadCounts[] = {1, 2, 8};

TEST(ParallelEvalTest, CountPairsIdenticalAcrossThreads) {
  Graph g = DenseGraph();
  Nfa nfa = Nfa::FromRegex(StarA()).ValueOrDie();

  RpqEvaluator serial(&g);
  BudgetTracker serial_budget(ResourceBudget::Unlimited());
  EvalProfile serial_profile;
  const uint64_t expected =
      serial.CountPairs(nfa, &serial_budget, &serial_profile).ValueOrDie();
  ASSERT_GT(expected, 0u);

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    for (size_t chunk : {size_t{0}, size_t{7}, size_t{497}}) {
      EvalOptions opts;
      opts.executor = &executor;
      opts.chunk_sources = chunk;
      RpqEvaluator parallel(&g, opts);
      BudgetTracker budget(ResourceBudget::Unlimited());
      EvalProfile profile;
      EXPECT_EQ(parallel.CountPairs(nfa, &budget, &profile).ValueOrDie(),
                expected)
          << threads << " threads, chunk " << chunk;
      // Success-path accounting is deterministic: charges are monotone
      // during the fan-out, so the peak equals the serial peak exactly.
      EXPECT_EQ(budget.peak_tuples(), serial_budget.peak_tuples());
      EXPECT_EQ(budget.tuples_used(), serial_budget.tuples_used());
      EXPECT_EQ(budget.over_releases(), 0u);
      EXPECT_EQ(profile.bfs_pops, serial_profile.bfs_pops);
      EXPECT_EQ(profile.bfs_peak_frontier, serial_profile.bfs_peak_frontier);
    }
  }
}

TEST(ParallelEvalTest, MaterializePairsByteIdenticalAcrossThreads) {
  Graph g = DenseGraph();
  Nfa nfa = Nfa::FromRegex(StarA()).ValueOrDie();

  RpqEvaluator serial(&g);
  BudgetTracker serial_budget(ResourceBudget::Unlimited());
  auto expected = serial.MaterializePairs(nfa, &serial_budget).ValueOrDie();
  ASSERT_FALSE(expected.value.empty());

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    EvalOptions opts;
    opts.executor = &executor;
    RpqEvaluator parallel(&g, opts);
    BudgetTracker budget(ResourceBudget::Unlimited());
    auto pairs = parallel.MaterializePairs(nfa, &budget).ValueOrDie();
    // Byte identity: same pairs in the same (source) order.
    EXPECT_EQ(pairs.value, expected.value) << threads << " threads";
    EXPECT_EQ(pairs.charge.count(), expected.charge.count());
    EXPECT_EQ(budget.peak_tuples(), serial_budget.peak_tuples());
    EXPECT_EQ(budget.over_releases(), 0u);
  }
}

TEST(ParallelEvalTest, AllEnginesIdenticalAcrossThreads) {
  Graph g = DenseGraph(200);
  Query q = ChainQuery();
  const ResourceBudget budget = ResourceBudget::Unlimited();

  for (EngineKind kind : AllEngineKinds()) {
    auto serial_engine = MakeEngine(kind);
    EvalProfile serial_profile;
    EvalContext serial_ctx;
    serial_ctx.profile = &serial_profile;
    const uint64_t expected =
        serial_engine->Evaluate(g, q, budget, &serial_ctx).ValueOrDie();

    for (int threads : kThreadCounts) {
      Executor executor(threads);
      EvalOptions opts;
      opts.executor = &executor;
      auto engine = MakeEngine(kind, opts);
      EvalProfile profile;
      EvalContext ctx;
      ctx.profile = &profile;
      EXPECT_EQ(engine->Evaluate(g, q, budget, &ctx).ValueOrDie(), expected)
          << EngineKindCode(kind) << " at " << threads << " threads";
      EXPECT_EQ(profile.peak_tuples, serial_profile.peak_tuples)
          << EngineKindCode(kind) << " at " << threads << " threads";
      EXPECT_EQ(profile.bfs_pops, serial_profile.bfs_pops);
      EXPECT_EQ(profile.bfs_peak_frontier, serial_profile.bfs_peak_frontier);
      EXPECT_EQ(profile.tuples_scanned, serial_profile.tuples_scanned);
      EXPECT_EQ(profile.fixpoint_rounds, serial_profile.fixpoint_rounds);
      EXPECT_EQ(profile.over_releases, 0u);
      ASSERT_EQ(profile.conjuncts.size(), serial_profile.conjuncts.size());
      for (size_t i = 0; i < profile.conjuncts.size(); ++i) {
        EXPECT_EQ(profile.conjuncts[i].rows, serial_profile.conjuncts[i].rows);
        EXPECT_EQ(profile.conjuncts[i].fixpoint_rounds,
                  serial_profile.conjuncts[i].fixpoint_rounds);
      }
    }
  }
}

TEST(ParallelEvalTest, SparqlEngineIdenticalOnRecursiveQuery) {
  Graph g = DenseGraph(200);
  Query q = StarChainQuery();
  const ResourceBudget budget = ResourceBudget::Unlimited();

  auto serial_engine = MakeEngine(EngineKind::kSparql);
  EvalProfile serial_profile;
  EvalContext serial_ctx;
  serial_ctx.profile = &serial_profile;
  const uint64_t expected =
      serial_engine->Evaluate(g, q, budget, &serial_ctx).ValueOrDie();

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    EvalOptions opts;
    opts.executor = &executor;
    auto engine = MakeEngine(EngineKind::kSparql, opts);
    EvalProfile profile;
    EvalContext ctx;
    ctx.profile = &profile;
    EXPECT_EQ(engine->Evaluate(g, q, budget, &ctx).ValueOrDie(), expected)
        << threads << " threads";
    EXPECT_EQ(profile.peak_tuples, serial_profile.peak_tuples);
    EXPECT_EQ(profile.bfs_pops, serial_profile.bfs_pops);
    EXPECT_EQ(profile.bfs_peak_frontier, serial_profile.bfs_peak_frontier);
    EXPECT_EQ(profile.over_releases, 0u);
  }
}

TEST(ParallelEvalTest, TupleKilledPathsAgreeAcrossThreads) {
  Graph g = DenseGraph();
  Nfa nfa = Nfa::FromRegex(StarA()).ValueOrDie();

  // Unlimited serial run: the documented upper bound for every kill's
  // peak, and proof the ceiling below actually bites.
  RpqEvaluator serial(&g);
  BudgetTracker unlimited(ResourceBudget::Unlimited());
  const uint64_t full_count =
      serial.CountPairs(nfa, &unlimited, nullptr).ValueOrDie();
  const size_t ceiling = static_cast<size_t>(full_count / 2);
  ASSERT_GT(ceiling, 0u);

  BudgetTracker serial_killed(ResourceBudget::Limited(1e9, ceiling));
  Status serial_status =
      serial.CountPairs(nfa, &serial_killed, nullptr).status();
  ASSERT_TRUE(serial_status.IsResourceExhausted());

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    EvalOptions opts;
    opts.executor = &executor;
    RpqEvaluator parallel(&g, opts);
    BudgetTracker killed(ResourceBudget::Limited(1e9, ceiling));
    Status st = parallel.CountPairs(nfa, &killed, nullptr).status();
    // Same Status class at every thread count; the message (which
    // embeds the observed total) may differ on the kill path.
    EXPECT_TRUE(st.IsResourceExhausted())
        << threads << " threads: " << st.ToString();
    // The kill unwinds completely: nothing stays charged, nothing is
    // over-released.
    EXPECT_EQ(killed.tuples_used(), 0u);
    EXPECT_EQ(killed.over_releases(), 0u);
    // Documented parallel bound: the rejecting charge pushed the total
    // past the ceiling, and no run can exceed the unlimited peak.
    EXPECT_GT(killed.peak_tuples(), ceiling);
    EXPECT_LE(killed.peak_tuples(), unlimited.peak_tuples());
  }
}

TEST(ParallelEvalTest, TimeKilledPathsAgreeAcrossThreads) {
  Graph g = DenseGraph();
  Nfa nfa = Nfa::FromRegex(StarA()).ValueOrDie();

  // A negative timeout is expired before evaluation starts, so the
  // time kill fires deterministically at any clock resolution.
  RpqEvaluator serial(&g);
  BudgetTracker serial_killed(ResourceBudget::Limited(-1.0, SIZE_MAX));
  ASSERT_TRUE(serial.CountPairs(nfa, &serial_killed, nullptr)
                  .status()
                  .IsResourceExhausted());

  for (int threads : kThreadCounts) {
    Executor executor(threads);
    EvalOptions opts;
    opts.executor = &executor;
    RpqEvaluator parallel(&g, opts);
    BudgetTracker killed(ResourceBudget::Limited(-1.0, SIZE_MAX));
    Status st = parallel.CountPairs(nfa, &killed, nullptr).status();
    EXPECT_TRUE(st.IsResourceExhausted())
        << threads << " threads: " << st.ToString();
    EXPECT_EQ(killed.tuples_used(), 0u);
    EXPECT_EQ(killed.over_releases(), 0u);
  }
}

// A directed ring over predicate a: from every node, a* reaches all n
// nodes, so every source costs the same BFS and charges n tuples.
Graph RingGraph(int64_t n) {
  GraphConfiguration config;
  config.num_nodes = n;
  EXPECT_TRUE(
      config.schema.AddType("t", OccurrenceConstraint::Fixed(n)).ok());
  std::vector<Edge> edges;
  for (NodeId i = 0; i < static_cast<NodeId>(n); ++i) {
    edges.push_back(Edge{i, 0, (i + 1) % static_cast<NodeId>(n)});
  }
  NodeLayout layout = NodeLayout::Create(config).ValueOrDie();
  return Graph::Build(std::move(layout), 1, std::move(edges)).ValueOrDie();
}

TEST(ParallelEvalTest, KilledParallelRunStopsItsOtherChunks) {
  // A ceiling of four sources' targets: the serial run dies on its
  // fifth source. Once one chunk dies, chunks that have not started
  // must not start and running ones must stop before their next source,
  // so the parallel run's BFS work stays within a small multiple of the
  // serial run's (at most four sources held, plus about one source in
  // flight per thread), not the whole graph's.
  const int64_t n = 400;
  Graph g = RingGraph(n);
  Nfa nfa = Nfa::FromRegex(StarA()).ValueOrDie();
  const ResourceBudget tight =
      ResourceBudget::Limited(1e9, static_cast<size_t>(4 * n));

  RpqEvaluator serial(&g);
  BudgetTracker serial_budget(tight);
  EvalProfile serial_profile;
  ASSERT_TRUE(serial.CountPairs(nfa, &serial_budget, &serial_profile)
                  .status()
                  .IsResourceExhausted());
  const uint64_t serial_pops = serial_profile.bfs_pops;
  ASSERT_GT(serial_pops, 0u);

  BudgetTracker unlimited(ResourceBudget::Unlimited());
  EvalProfile full_profile;
  ASSERT_EQ(serial.CountPairs(nfa, &unlimited, &full_profile).ValueOrDie(),
            static_cast<uint64_t>(n * n));
  // Without the stop, each chunk could climb back to the ceiling.
  ASSERT_GT(full_profile.bfs_pops, 20 * serial_pops);

  Executor executor(8);
  EvalOptions opts;
  opts.executor = &executor;
  opts.chunk_sources = 1;
  RpqEvaluator parallel(&g, opts);
  for (int repeat = 0; repeat < 5; ++repeat) {
    BudgetTracker killed(tight);
    EvalProfile profile;
    Status st = parallel.CountPairs(nfa, &killed, &profile).status();
    EXPECT_TRUE(st.IsResourceExhausted()) << st.ToString();
    EXPECT_EQ(killed.tuples_used(), 0u);
    EXPECT_EQ(killed.over_releases(), 0u);
    EXPECT_GT(killed.peak_tuples(), tight.max_tuples);
    EXPECT_LE(profile.bfs_pops, 6 * serial_pops) << "repeat " << repeat;
  }
}

TEST(ParallelEvalTest, EnginesAgreeOnBudgetKilledStatus) {
  Graph g = DenseGraph(200);
  Query q = ChainQuery();
  // Tight enough that every engine dies on tuples for this query.
  const ResourceBudget tight = ResourceBudget::Limited(1e9, 50);

  for (EngineKind kind : AllEngineKinds()) {
    auto serial_engine = MakeEngine(kind);
    EvalProfile serial_profile;
    EvalContext serial_ctx;
    serial_ctx.profile = &serial_profile;
    Status serial_status =
        serial_engine->Evaluate(g, q, tight, &serial_ctx).status();
    ASSERT_TRUE(serial_status.IsResourceExhausted())
        << EngineKindCode(kind) << ": " << serial_status.ToString();

    for (int threads : kThreadCounts) {
      Executor executor(threads);
      EvalOptions opts;
      opts.executor = &executor;
      auto engine = MakeEngine(kind, opts);
      EvalProfile profile;
      EvalContext ctx;
      ctx.profile = &profile;
      Status st = engine->Evaluate(g, q, tight, &ctx).status();
      EXPECT_TRUE(st.IsResourceExhausted())
          << EngineKindCode(kind) << " at " << threads
          << " threads: " << st.ToString();
      EXPECT_EQ(profile.over_releases, 0u);
      EXPECT_GT(profile.peak_tuples, 50u);
    }
  }
}

// ---------------------------------------------------------------------------
// Planned evaluation: the selectivity-driven planner may reorder
// conjuncts and flip traversal directions, but results and budget
// accounting must stay byte-identical to the unplanned serial oracle —
// per engine, at every thread count, on success and kill paths alike.

// The planner needs a schema with eta constraints, so the planned
// variants run on a generated Bib instance instead of DenseGraph
// (whose hand-built schema carries no degree distributions).
class PlannedEvalTest : public ::testing::Test {
 protected:
  PlannedEvalTest()
      : config_(MakeBibConfig(200, 3)),
        graph_(ParallelGenerateGraph(config_).ValueOrDie()),
        planner_(&config_.schema) {
    const PredicateId authors =
        config_.schema.PredicateIdOf("authors").ValueOrDie();
    const PredicateId published_in =
        config_.schema.PredicateIdOf("publishedIn").ValueOrDie();
    // Expensive conjunct written first, a Kleene star in the middle:
    // the plan has reordering and seed-side decisions to make, and
    // every engine's closure path gets exercised.
    RegularExpression co;
    co.disjuncts = {{Symbol::Fwd(authors), Symbol::Inv(authors)}};
    co.star = true;
    QueryRule rule;
    rule.body = {
        Conjunct{0, 1, RegularExpression::Atom(Symbol::Fwd(authors))},
        Conjunct{1, 2, co},
        Conjunct{2, 3, RegularExpression::Atom(Symbol::Fwd(published_in))}};
    rule.head = {0, 3};
    query_.rules = {rule};
  }

  GraphConfiguration config_;
  Graph graph_;
  Planner planner_;
  Query query_;
};

TEST_F(PlannedEvalTest, PlanOnMatchesPlanOffOnAllEnginesAndThreadCounts) {
  const ResourceBudget budget = ResourceBudget::Unlimited();
  for (EngineKind kind : AllEngineKinds()) {
    // Unplanned serial run: the oracle for the count.
    auto oracle = MakeEngine(kind);
    const uint64_t expected =
        oracle->Evaluate(graph_, query_, budget).ValueOrDie();

    // Planned serial run: the oracle for the planned profile.
    EvalOptions planned_opts;
    planned_opts.planner = &planner_;
    auto planned_serial = MakeEngine(kind, planned_opts);
    EvalProfile serial_profile;
    EvalContext serial_ctx;
    serial_ctx.profile = &serial_profile;
    ASSERT_EQ(
        planned_serial->Evaluate(graph_, query_, budget, &serial_ctx)
            .ValueOrDie(),
        expected)
        << EngineKindCode(kind);
    EXPECT_TRUE(serial_profile.planned) << EngineKindCode(kind);
    ASSERT_EQ(serial_profile.plan_steps.size(), query_.rules[0].body.size())
        << EngineKindCode(kind);
    for (const PlanStepProfile& step : serial_profile.plan_steps) {
      EXPECT_GE(step.est_rows, 0.0) << EngineKindCode(kind);
      EXPECT_GT(step.actual_rows, 0u) << EngineKindCode(kind);
    }

    for (int threads : kThreadCounts) {
      Executor executor(threads);
      EvalOptions opts;
      opts.executor = &executor;
      opts.planner = &planner_;
      auto engine = MakeEngine(kind, opts);
      EvalProfile profile;
      EvalContext ctx;
      ctx.profile = &profile;
      EXPECT_EQ(engine->Evaluate(graph_, query_, budget, &ctx).ValueOrDie(),
                expected)
          << EngineKindCode(kind) << " at " << threads << " threads";
      // The plan is a pure function of (query, schema, layout), so the
      // parallel profile — plan steps included — matches the serial
      // one field for field.
      EXPECT_EQ(profile.plan_steps, serial_profile.plan_steps)
          << EngineKindCode(kind) << " at " << threads << " threads";
      EXPECT_EQ(profile.planned, serial_profile.planned);
      EXPECT_EQ(profile.chain_backward, serial_profile.chain_backward);
      EXPECT_EQ(profile.peak_tuples, serial_profile.peak_tuples)
          << EngineKindCode(kind) << " at " << threads << " threads";
      EXPECT_EQ(profile.over_releases, 0u);
      ASSERT_EQ(profile.conjuncts.size(), serial_profile.conjuncts.size());
      for (size_t i = 0; i < profile.conjuncts.size(); ++i) {
        EXPECT_EQ(profile.conjuncts[i].rows, serial_profile.conjuncts[i].rows)
            << EngineKindCode(kind) << " conjunct " << i;
      }
    }
  }
}

TEST_F(PlannedEvalTest, PlannedConjunctRowsKeepWrittenNumbering) {
  // Whatever order the plan executes in, profile.conjuncts[i] must
  // describe the i-th conjunct as written — the unplanned run defines
  // the expected per-conjunct row counts. Cypher is excluded: its
  // per-conjunct counters tally DFS match attempts, a measure of
  // search effort that reordering is supposed to change (the planned
  // serial-vs-parallel identity above still pins them).
  for (EngineKind kind : AllEngineKinds()) {
    if (kind == EngineKind::kCypher) continue;
    auto unplanned = MakeEngine(kind);
    EvalProfile base_profile;
    EvalContext base_ctx;
    base_ctx.profile = &base_profile;
    ASSERT_TRUE(unplanned
                    ->Evaluate(graph_, query_, ResourceBudget::Unlimited(),
                               &base_ctx)
                    .ok());

    EvalOptions opts;
    opts.planner = &planner_;
    auto planned = MakeEngine(kind, opts);
    EvalProfile profile;
    EvalContext ctx;
    ctx.profile = &profile;
    ASSERT_TRUE(
        planned->Evaluate(graph_, query_, ResourceBudget::Unlimited(), &ctx)
            .ok());
    ASSERT_EQ(profile.conjuncts.size(), base_profile.conjuncts.size())
        << EngineKindCode(kind);
    for (size_t i = 0; i < profile.conjuncts.size(); ++i) {
      EXPECT_EQ(profile.conjuncts[i].rows, base_profile.conjuncts[i].rows)
          << EngineKindCode(kind) << " conjunct " << i;
    }
  }
}

TEST_F(PlannedEvalTest, BudgetKilledPlannedRunsKeepTheirPlan) {
  // A one-tuple ceiling kills every engine mid-step; the plan was
  // recorded before execution, so the profile still carries the full
  // step list and the unwind stays clean — at every thread count.
  const ResourceBudget tight = ResourceBudget::Limited(60.0, 1);
  for (EngineKind kind : AllEngineKinds()) {
    for (int threads : kThreadCounts) {
      Executor executor(threads);
      EvalOptions opts;
      opts.executor = &executor;
      opts.planner = &planner_;
      auto engine = MakeEngine(kind, opts);
      EvalProfile profile;
      EvalContext ctx;
      ctx.profile = &profile;
      Status st = engine->Evaluate(graph_, query_, tight, &ctx).status();
      ASSERT_TRUE(st.IsResourceExhausted())
          << EngineKindCode(kind) << " at " << threads
          << " threads: " << st.ToString();
      EXPECT_TRUE(profile.planned) << EngineKindCode(kind);
      EXPECT_EQ(profile.plan_steps.size(), query_.rules[0].body.size())
          << EngineKindCode(kind) << " at " << threads << " threads";
      EXPECT_EQ(profile.over_releases, 0u) << EngineKindCode(kind);
    }
  }
}

TEST_F(PlannedEvalTest, ReferenceEvaluatorAgreesUnderPlanning) {
  // The chain fast path may run the whole automaton right-to-left
  // under a plan; the distinct count must not move.
  ReferenceEvaluator unplanned(&graph_);
  const uint64_t expected =
      unplanned.CountDistinct(query_).ValueOrDie();

  EvalOptions opts;
  opts.planner = &planner_;
  ReferenceEvaluator planned(&graph_, opts);
  EvalProfile profile;
  EvalContext ctx;
  ctx.profile = &profile;
  EXPECT_EQ(planned.CountDistinct(query_, ResourceBudget::Unlimited(), &ctx)
                .ValueOrDie(),
            expected);
  EXPECT_TRUE(profile.planned);
  EXPECT_EQ(profile.plan_steps.size(), query_.rules[0].body.size());
}


// ---------------------------------------------------------------------------
// The reference evaluator's join path and the S engine execute the same
// plan with the same conjunct strategy (per-source BFS per conjunct), so
// on every shape the chain fast path cannot take they must agree with
// each other — count, budget peak, BFS statistics, per-conjunct and
// per-plan-step rows — at every thread count, planned or not. Killed
// runs must die the same way and unwind completely.

// Everything one evaluation leaves behind that must not depend on the
// evaluator or the thread count.
struct JoinPathRun {
  Status status;
  uint64_t count = 0;
  EvalProfile profile;
};

JoinPathRun RunJoinPath(bool reference, const Graph& graph,
                        const Query& query, const ResourceBudget& budget,
                        const EvalOptions& opts) {
  JoinPathRun run;
  EvalContext ctx;
  ctx.profile = &run.profile;
  Result<uint64_t> result =
      reference ? ReferenceEvaluator(&graph, opts)
                      .CountDistinct(query, budget, &ctx)
                : MakeEngine(EngineKind::kSparql, opts)
                      ->Evaluate(graph, query, budget, &ctx);
  run.status = result.status();
  if (result.ok()) run.count = result.ValueOrDie();
  return run;
}

TEST_F(PlannedEvalTest, ReferenceJoinPathMatchesSparqlEngineAcrossThreads) {
  const GraphSchema& schema = config_.schema;
  const PredicateId authors = schema.PredicateIdOf("authors").ValueOrDie();
  const PredicateId published_in =
      schema.PredicateIdOf("publishedIn").ValueOrDie();
  const PredicateId extended_to =
      schema.PredicateIdOf("extendedTo").ValueOrDie();
  auto atom = [](Symbol s) { return RegularExpression::Atom(s); };
  RegularExpression coauthor;  // researcher -> researcher
  coauthor.disjuncts = {{Symbol::Fwd(authors), Symbol::Inv(authors)}};
  RegularExpression copaper = coauthor;  // paper -> paper, starred
  copaper.disjuncts = {{Symbol::Inv(authors), Symbol::Fwd(authors)}};
  copaper.star = true;

  // Star-shaped body: ?1 is the source of two conjuncts.
  QueryRule star;
  star.body = {Conjunct{0, 1, atom(Symbol::Fwd(authors))},
               Conjunct{1, 2, atom(Symbol::Fwd(published_in))},
               Conjunct{1, 3, atom(Symbol::Fwd(extended_to))}};
  star.head = {0, 2};
  // Cycle: a coauthor triangle has no chain head.
  QueryRule cycle;
  cycle.body = {Conjunct{0, 1, coauthor}, Conjunct{1, 2, coauthor},
                Conjunct{2, 0, coauthor}};
  cycle.head = {0, 1};
  // Two chain rules: unions never take the single-rule fast path.
  QueryRule venue;
  venue.body = {Conjunct{0, 1, atom(Symbol::Fwd(authors))},
                Conjunct{1, 2, atom(Symbol::Fwd(published_in))}};
  venue.head = {0, 2};
  QueryRule journal = venue;
  journal.body[1].expr = atom(Symbol::Fwd(extended_to));
  // A Kleene-star conjunct inside a star-shaped body.
  QueryRule closure;
  closure.body = {Conjunct{0, 1, atom(Symbol::Fwd(authors))},
                  Conjunct{1, 2, copaper},
                  Conjunct{1, 3, atom(Symbol::Fwd(published_in))}};
  closure.head = {0, 2};

  std::vector<std::pair<const char*, Query>> queries(4);
  queries[0] = {"star", Query{}};
  queries[0].second.rules = {star};
  queries[1] = {"cycle", Query{}};
  queries[1].second.rules = {cycle};
  queries[2] = {"union", Query{}};
  queries[2].second.rules = {venue, journal};
  queries[3] = {"closure", Query{}};
  queries[3].second.rules = {closure};

  for (const auto& [name, query] : queries) {
    for (bool plan_on : {false, true}) {
      EvalOptions serial_opts;
      if (plan_on) serial_opts.planner = &planner_;
      // The serial reference run is the oracle for this plan mode.
      const JoinPathRun oracle =
          RunJoinPath(true, graph_, query, ResourceBudget::Unlimited(),
                      serial_opts);
      ASSERT_TRUE(oracle.status.ok()) << name << ": " << oracle.status;
      ASSERT_GT(oracle.count, 0u) << name;
      const size_t ceiling = oracle.profile.peak_tuples / 2;
      ASSERT_GT(ceiling, 0u) << name;
      const ResourceBudget tight = ResourceBudget::Limited(1e9, ceiling);

      for (int threads : kThreadCounts) {
        Executor executor(threads);
        EvalOptions opts = serial_opts;
        opts.executor = &executor;
        for (bool reference : {true, false}) {
          const std::string where =
              std::string(name) + (plan_on ? " planned" : " unplanned") +
              (reference ? " reference" : " S") + " at " +
              std::to_string(threads) + " threads";
          const JoinPathRun run = RunJoinPath(
              reference, graph_, query, ResourceBudget::Unlimited(), opts);
          ASSERT_TRUE(run.status.ok()) << where << ": " << run.status;
          EXPECT_EQ(run.count, oracle.count) << where;
          const EvalProfile& p = run.profile;
          EXPECT_EQ(p.peak_tuples, oracle.profile.peak_tuples) << where;
          EXPECT_EQ(p.bfs_pops, oracle.profile.bfs_pops) << where;
          EXPECT_EQ(p.bfs_peak_frontier, oracle.profile.bfs_peak_frontier)
              << where;
          EXPECT_EQ(p.over_releases, 0u) << where;
          EXPECT_EQ(p.plan_steps, oracle.profile.plan_steps) << where;
          ASSERT_EQ(p.conjuncts.size(), oracle.profile.conjuncts.size())
              << where;
          for (size_t i = 0; i < p.conjuncts.size(); ++i) {
            EXPECT_EQ(p.conjuncts[i].rows, oracle.profile.conjuncts[i].rows)
                << where << " conjunct " << i;
          }

          const JoinPathRun killed =
              RunJoinPath(reference, graph_, query, tight, opts);
          EXPECT_TRUE(killed.status.IsResourceExhausted())
              << where << ": " << killed.status;
          EXPECT_EQ(killed.profile.over_releases, 0u) << where;
          EXPECT_GT(killed.profile.peak_tuples, ceiling) << where;
          EXPECT_EQ(killed.profile.plan_steps.size(),
                    oracle.profile.plan_steps.size())
              << where;
        }
      }
    }
  }
}

}  // namespace
}  // namespace gmark
