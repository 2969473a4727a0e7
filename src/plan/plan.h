// The QueryPlan IR — the plan half of the plan/execute split.
//
// A plan annotates a Query with the decisions the engines used to
// hard-code: the order conjuncts execute in and which CSR direction each
// conjunct traverses — for a Kleene star, that is also the side that
// seeds the fixpoint. The unplanned path is the identity plan (written
// order, forward), so every engine runs exactly one execution code path
// whether planning is on or off — byte-identity between the two modes
// is a property of the steps, not of a separate legacy branch.
//
// Plans are plain data: building one never touches a graph instance,
// and executing one never consults the planner again. Determinism: a
// plan is a pure function of (query, schema, layout), so serial and
// parallel evaluations of the same query always execute the same steps.

#ifndef GMARK_PLAN_PLAN_H_
#define GMARK_PLAN_PLAN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "query/query.h"

namespace gmark {

struct EvalProfile;

/// \brief One step of a rule's execution: which conjunct to run next
/// and how to traverse it.
struct PlanStep {
  uint32_t conjunct = 0;  ///< Index into QueryRule::body as written.
  /// Traverse the conjunct target-to-source (the executor swaps the
  /// endpoints and reverses the regex; the produced relation is
  /// identical up to row order because reversal is a bijection on
  /// matching paths).
  /// For a Kleene-star step this is also the fixpoint's seed side: the
  /// closure runs over the (possibly reversed) base relation.
  bool backward = false;
  double est_rows = -1.0;  ///< Planner row estimate; -1 in identity plans.
  double est_cost = -1.0;  ///< Planner direction cost; -1 in identity plans.

  bool operator==(const PlanStep&) const = default;
};

/// \brief Execution recipe for one rule body.
struct RulePlan {
  std::vector<PlanStep> steps;  ///< Every body conjunct exactly once.
  /// For chain-shaped bodies: evaluate the whole chain right-to-left
  /// (the reference evaluator's single-automaton fast path cannot
  /// reorder conjuncts, but it can run the reversed chain).
  bool chain_backward = false;

  /// \brief Written order, every step forward.
  static RulePlan Identity(const QueryRule& rule);

  bool operator==(const RulePlan&) const = default;
};

/// \brief A full query plan: one RulePlan per rule, same order.
struct QueryPlan {
  std::vector<RulePlan> rules;
  bool planned = false;  ///< False for identity plans.

  /// \brief The identity plan: written order, forward traversal.
  /// Executing it reproduces pre-plan behavior.
  static QueryPlan Identity(const Query& query);

  /// \brief Compact rendering for logs and bench tables, e.g.
  /// "r0[#1> #0<~]".
  std::string ToString() const;

  bool operator==(const QueryPlan&) const = default;
};

/// \brief The conjunct a step actually executes: the original conjunct
/// for a forward step, or the endpoint-swapped, regex-reversed conjunct
/// for a backward one. Var labels travel with the endpoints, so joins
/// and head projection downstream are unaffected by direction.
Conjunct EffectiveConjunct(const Conjunct& conjunct, const PlanStep& step);

/// \brief Record a plan into a profile: fills plan_steps (rule order,
/// execution order within each rule), `planned`, and `chain_backward`.
/// Called before execution so budget-killed paths keep their plan.
void RecordPlan(const QueryPlan& plan, EvalProfile* profile);

}  // namespace gmark

#endif  // GMARK_PLAN_PLAN_H_
