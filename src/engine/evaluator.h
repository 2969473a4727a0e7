// The reference UCRPQ evaluator: the measurement substrate behind the
// paper's selectivity-quality experiments (Table 2, Figs. 10/11).
//
// Regular path queries are evaluated by breadth-first search over the
// implicit product of the graph with the query NFA, one source node at
// a time, with O(1) amortized state reset between sources; this is the
// only product-graph BFS in the engine layer. Binary chain queries are
// evaluated as a single composed RPQ (sound under set semantics with
// endpoint projection), which avoids materializing intermediate join
// relations — essential for counting quadratic queries. Every other
// shape runs the shared plan executor (engine_common.h) with one BFS
// per conjunct as its strategy — the S engine's strategy, so the two
// agree on every non-chain query.
//
// Per-source BFS runs are independent, so when an EvalOptions carries a
// multi-worker Executor the source loop is chunked across it: each
// worker reuses private EvalScratch and charges a private
// ConcurrentBudgetScope tracker, and chunk results merge in source
// order — counts, pairs, profiles, and budget accounting are
// byte-identical at any thread or chunk count (parallel_eval_test pins
// this).

#ifndef GMARK_ENGINE_EVALUATOR_H_
#define GMARK_ENGINE_EVALUATOR_H_

#include <vector>

#include "engine/automaton.h"
#include "engine/budget.h"
#include "engine/engine_common.h"
#include "engine/eval_options.h"
#include "engine/relation.h"
#include "graph/graph.h"
#include "obs/eval_profile.h"
#include "plan/plan.h"
#include "query/query.h"
#include "util/result.h"

namespace gmark {

/// \brief Low-level RPQ evaluation over one graph. All entry points
/// take an optional EvalProfile that accumulates BFS pop counts and
/// peak frontier size; a null profile costs one pointer test per BFS.
class RpqEvaluator {
 public:
  /// \brief `graph` must outlive the evaluator; `opts.executor`, when
  /// set, must outlive every evaluation.
  explicit RpqEvaluator(const Graph* graph, EvalOptions opts = {})
      : graph_(graph), opts_(opts) {}

  /// \brief Count distinct (source, target) pairs accepted by `nfa`.
  /// The per-source target sets are charged while live and released
  /// before returning (only the count leaves the function).
  Result<uint64_t> CountPairs(const Nfa& nfa, BudgetTracker* budget,
                              EvalProfile* profile = nullptr) const;

  /// \brief Materialize all accepted pairs (set semantics), charged
  /// against `budget` for the lifetime of the returned vector.
  Result<ChargedPairs> MaterializePairs(const Nfa& nfa,
                                        BudgetTracker* budget,
                                        EvalProfile* profile = nullptr) const;

  /// \brief The conjunct strategy of the S engine and of the reference
  /// evaluator's join path: compile the (direction-resolved) conjunct
  /// to an NFA and MaterializePairs it.
  Result<ChargedPairs> ConjunctPairs(const Conjunct& conjunct,
                                     BudgetTracker* budget,
                                     EvalProfile* profile = nullptr) const;

  const Graph& graph() const { return *graph_; }
  const EvalOptions& options() const { return opts_; }

 private:
  const Graph* graph_;
  EvalOptions opts_;
};

/// \brief Query-level evaluator with the chain fast path.
class ReferenceEvaluator {
 public:
  explicit ReferenceEvaluator(const Graph* graph, EvalOptions opts = {})
      : rpq_(graph, opts) {}

  /// \brief |Q(G)| with distinct set semantics — the paper's measurement
  /// (§7.1 applies count(distinct ...) to every query). `ctx`, when
  /// given, receives the evaluation profile (obs/eval_profile.h).
  Result<uint64_t> CountDistinct(
      const Query& query,
      const ResourceBudget& budget = ResourceBudget::Unlimited(),
      EvalContext* ctx = nullptr) const;

  /// \brief Evaluate one rule into a relation over its head variables
  /// through the plan executor (ExecuteRulePlan) — the path non-chain
  /// shapes take, and an independent oracle for the chain fast path in
  /// tests. The result's rows are charged against `budget` until the
  /// ChargedRelation is destroyed. `plan`, when given, supplies
  /// conjunct order and per-step direction (null executes the identity
  /// plan); `conjunct_offset`/`step_offset` place this rule's profile
  /// entries in a multi-rule query.
  Result<ChargedRelation> EvaluateRuleJoin(const QueryRule& rule,
                                           BudgetTracker* budget,
                                           EvalContext* ctx = nullptr,
                                           const RulePlan* plan = nullptr,
                                           size_t conjunct_offset = 0,
                                           size_t step_offset = 0) const;

 private:
  RpqEvaluator rpq_;
};

}  // namespace gmark

#endif  // GMARK_ENGINE_EVALUATOR_H_
