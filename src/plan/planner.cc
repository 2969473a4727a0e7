#include "plan/planner.h"

#include <limits>
#include <set>
#include <vector>

namespace gmark {

namespace {

// Greedy cheapest-first join order. Starts from the globally cheapest
// conjunct, then repeatedly takes the cheapest conjunct connected to
// the bound variable set; a disconnected body falls back to the
// cheapest remaining conjunct (the written query already implied a
// cross product there). Ties break toward the lower written index, so
// the order — like everything else in the plan — is deterministic.
std::vector<size_t> GreedyOrder(const QueryRule& rule,
                                const std::vector<CardinalityEstimate>& est) {
  const size_t n = rule.body.size();
  std::vector<size_t> order;
  order.reserve(n);
  std::vector<bool> used(n, false);
  std::set<VarId> bound;
  for (size_t picked = 0; picked < n; ++picked) {
    size_t best = n;
    bool best_connected = false;
    double best_rows = std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < n; ++i) {
      if (used[i]) continue;
      const bool connected =
          order.empty() || bound.count(rule.body[i].source) > 0 ||
          bound.count(rule.body[i].target) > 0;
      const bool wins =
          best == n || (connected && !best_connected) ||
          (connected == best_connected && est[i].rows < best_rows);
      if (wins) {
        best = i;
        best_connected = connected;
        best_rows = est[i].rows;
      }
    }
    used[best] = true;
    order.push_back(best);
    bound.insert(rule.body[best].source);
    bound.insert(rule.body[best].target);
  }
  return order;
}

}  // namespace

QueryPlan Planner::PlanQuery(const Query& query,
                             const NodeLayout& layout) const {
  QueryPlan plan = QueryPlan::Identity(query);
  plan.planned = true;
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    RulePlan& rp = plan.rules[r];

    std::vector<CardinalityEstimate> est(rule.body.size());
    for (size_t i = 0; i < rule.body.size(); ++i) {
      est[i] = estimator_.EstimateCardinality(rule.body[i], layout);
    }

    const std::vector<size_t> order = GreedyOrder(rule, est);
    for (size_t pos = 0; pos < order.size(); ++pos) {
      const size_t i = order[pos];
      PlanStep& step = rp.steps[pos];
      step.conjunct = static_cast<uint32_t>(i);
      step.est_rows = est[i].rows;
      if (rule.body[i].expr.star) {
        // A star step's direction IS its seed side: the fixpoint grows
        // from whichever endpoint has fewer nodes carrying a matching
        // edge. Strict < keeps forward on ties (identity-friendly).
        step.backward = est[i].backward_seeds < est[i].forward_seeds;
        step.est_cost =
            step.backward ? est[i].backward_seeds : est[i].forward_seeds;
      } else {
        step.backward = est[i].backward_cost < est[i].forward_cost;
        step.est_cost =
            step.backward ? est[i].backward_cost : est[i].forward_cost;
      }
    }

    // Whole-chain direction for the single-automaton fast path.
    auto chain = AsChain(rule);
    if (chain.ok()) {
      const std::vector<Conjunct>& c = chain.ValueOrDie();
      rp.chain_backward = estimator_.EstimateChainCost(c, layout, true) <
                          estimator_.EstimateChainCost(c, layout, false);
    }
  }
  return plan;
}

}  // namespace gmark
