// The selectivity-driven planner: turns a Query into a QueryPlan using
// only the schema's in/out degree distributions and the realized node
// layout — the same §5.2.2 signal the workload generator uses to pick
// query selectivities, now pointed at evaluation.
//
// Three decisions per rule, all cost-based and all deterministic:
//   1. Conjunct order — greedy cheapest-first by estimated rows,
//      restricted to conjuncts sharing a variable with the already-
//      ordered prefix (no planner-introduced cross products); ties
//      break toward the lower written index.
//   2. Traversal direction — forward or backward CSR per conjunct,
//      whichever side's intermediate frontiers are estimated smaller.
//   3. Kleene seed side — a star step's direction is its seed side:
//      the fixpoint grows from the endpoint with fewer nodes carrying
//      a matching edge.
// Chain-shaped bodies additionally get a whole-chain direction for the
// reference evaluator's single-automaton fast path.

#ifndef GMARK_PLAN_PLANNER_H_
#define GMARK_PLAN_PLANNER_H_

#include "core/graph_config.h"
#include "plan/plan.h"
#include "query/query.h"
#include "selectivity/estimator.h"

namespace gmark {

/// \brief Schema-driven query planner. Thread-safe: planning reads the
/// immutable schema/estimator only, so one Planner may serve concurrent
/// evaluations (each call builds its plan in locals).
class Planner {
 public:
  /// \brief `schema` must outlive the planner.
  explicit Planner(const GraphSchema* schema) : estimator_(schema) {}

  /// \brief Plan a query against the realized node layout. Pure
  /// function of (query, schema, layout): repeated calls return equal
  /// plans, so serial and parallel runs execute identical steps.
  QueryPlan PlanQuery(const Query& query, const NodeLayout& layout) const;

  const SelectivityEstimator& estimator() const { return estimator_; }

 private:
  SelectivityEstimator estimator_;
};

}  // namespace gmark

#endif  // GMARK_PLAN_PLANNER_H_
