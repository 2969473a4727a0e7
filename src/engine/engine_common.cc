#include "engine/engine_common.h"

#include <algorithm>
#include <unordered_set>

#include "obs/eval_profile.h"
#include "plan/planner.h"
#include "util/timer.h"

namespace gmark {

namespace {

/// Pack a pair for hashing; node ids fit comfortably in 32 bits at the
/// graph sizes the engines run on.
uint64_t PackPair(NodeId a, NodeId b) { return (a << 32) | (b & 0xffffffff); }

}  // namespace

NodePairs SymbolPairs(const Graph& graph, const Symbol& symbol) {
  // Scan the forward CSR in place — no intermediate edge vector, and
  // inverse symbols swap roles as they materialize instead of paying a
  // second pass.
  NodePairs pairs;
  pairs.reserve(graph.EdgeCount(symbol.predicate));
  if (symbol.inverse) {
    graph.ForEachEdge(symbol.predicate, [&pairs](NodeId s, NodeId t) {
      pairs.emplace_back(t, s);
    });
  } else {
    graph.ForEachEdge(symbol.predicate, [&pairs](NodeId s, NodeId t) {
      pairs.emplace_back(s, t);
    });
  }
  return pairs;
}

Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                      const PathExpr& path,
                                      bool set_semantics,
                                      BudgetTracker* budget) {
  if (path.empty()) {
    return Status::InvalidArgument("cannot compose an empty path");
  }
  NodePairs current = SymbolPairs(graph, path[0]);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(current.size()));
  for (size_t i = 1; i < path.size(); ++i) {
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    const Symbol& sym = path[i];
    NodePairs next;
    TupleCharge next_charge(budget);
    std::unordered_set<uint64_t> seen;
    for (const auto& [x, mid] : current) {
      auto neighbors = sym.inverse
                           ? graph.InNeighbors(sym.predicate, mid)
                           : graph.OutNeighbors(sym.predicate, mid);
      for (NodeId w : neighbors) {
        if (set_semantics && !seen.insert(PackPair(x, w)).second) continue;
        GMARK_RETURN_NOT_OK(next_charge.Charge(1));
        next.emplace_back(x, w);
      }
    }
    // Both step relations are live until here; the move-assign below
    // releases the step we just consumed only after its successor was
    // fully charged (the PR 5 lifetime rule).
    current = std::move(next);
    charge = std::move(next_charge);
  }
  return ChargedPairs(std::move(current), std::move(charge));
}

Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                    const RegularExpression& expr,
                                    bool set_semantics,
                                    BudgetTracker* budget) {
  NodePairs base;
  for (const PathExpr& path : expr.disjuncts) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedPairs part,
        ComposePathPairs(graph, path, set_semantics, budget));
    base.insert(base.end(), part.value.begin(), part.value.end());
    // part's guard releases its charge here; the accumulating union is
    // charged once below, after deduplication.
  }
  // UNION (not UNION ALL): disjunction is set-oriented in every dialect.
  DedupPairs(&base);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(base.size()));
  return ChargedPairs(std::move(base), std::move(charge));
}

Result<ChargedPairs> ClosureNaive(const Graph& graph, const NodePairs& base,
                                  BudgetTracker* budget, uint64_t* rounds) {
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  std::unordered_set<uint64_t> known;
  NodePairs result;
  TupleCharge charge(budget);
  result.reserve(static_cast<size_t>(n) + base.size());
  for (NodeId v = 0; v < n; ++v) {
    known.insert(PackPair(v, v));
    result.emplace_back(v, v);
  }
  GMARK_RETURN_NOT_OK(charge.Charge(result.size()));

  // Index the base relation by source for the join.
  std::unordered_multimap<NodeId, NodeId> base_by_src;
  base_by_src.reserve(base.size());
  for (const auto& [s, t] : base) base_by_src.emplace(s, t);

  bool grew = true;
  while (grew) {
    grew = false;
    if (rounds != nullptr) ++*rounds;
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    // Naive: rescan the ENTIRE accumulated relation every round.
    budget->ChargeScan(result.size());
    NodePairs additions;
    for (const auto& [x, mid] : result) {
      auto range = base_by_src.equal_range(mid);
      for (auto it = range.first; it != range.second; ++it) {
        if (known.insert(PackPair(x, it->second)).second) {
          GMARK_RETURN_NOT_OK(charge.Charge(1));
          additions.emplace_back(x, it->second);
        }
      }
    }
    if (!additions.empty()) {
      grew = true;
      result.insert(result.end(), additions.begin(), additions.end());
    }
  }
  return ChargedPairs(std::move(result), std::move(charge));
}

Result<ChargedPairs> ClosureSemiNaive(const Graph& graph,
                                      const NodePairs& base,
                                      BudgetTracker* budget,
                                      uint64_t* rounds) {
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  std::unordered_set<uint64_t> known;
  NodePairs result;
  TupleCharge charge(budget);
  result.reserve(static_cast<size_t>(n) + base.size());
  for (NodeId v = 0; v < n; ++v) {
    known.insert(PackPair(v, v));
    result.emplace_back(v, v);
  }
  GMARK_RETURN_NOT_OK(charge.Charge(result.size()));

  std::unordered_multimap<NodeId, NodeId> base_by_src;
  base_by_src.reserve(base.size());
  for (const auto& [s, t] : base) base_by_src.emplace(s, t);

  // Seed the delta with the base (paths of length exactly 1).
  NodePairs delta;
  for (const auto& [s, t] : base) {
    if (known.insert(PackPair(s, t)).second) {
      GMARK_RETURN_NOT_OK(charge.Charge(1));
      delta.emplace_back(s, t);
      result.emplace_back(s, t);
    }
  }
  while (!delta.empty()) {
    if (rounds != nullptr) ++*rounds;
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    NodePairs next_delta;
    // Semi-naive: only the delta is extended.
    budget->ChargeScan(delta.size());
    for (const auto& [x, mid] : delta) {
      auto range = base_by_src.equal_range(mid);
      for (auto it = range.first; it != range.second; ++it) {
        if (known.insert(PackPair(x, it->second)).second) {
          GMARK_RETURN_NOT_OK(charge.Charge(1));
          next_delta.emplace_back(x, it->second);
          result.emplace_back(x, it->second);
        }
      }
    }
    delta = std::move(next_delta);
  }
  return ChargedPairs(std::move(result), std::move(charge));
}

Result<ChargedPairs> EvaluateConjunctPairs(const Graph& graph,
                                           const Conjunct& conjunct,
                                           bool set_semantics,
                                           ClosureKind closure,
                                           BudgetTracker* budget,
                                           EvalProfile* profile,
                                           size_t conjunct_index) {
  GMARK_ASSIGN_OR_RETURN(
      ChargedPairs base,
      RegexBasePairs(graph, conjunct.expr, set_semantics, budget));
  if (!conjunct.expr.star) return base;
  // The base relation stays charged until the closure exists, then
  // releases with `base` on return (hand-paired code used to leak it).
  uint64_t rounds = 0;
  Result<ChargedPairs> closed =
      closure == ClosureKind::kSemiNaive
          ? ClosureSemiNaive(graph, base.value, budget, &rounds)
          : ClosureNaive(graph, base.value, budget, &rounds);
  if (profile != nullptr) {
    profile->Conjunct(conjunct_index).fixpoint_rounds += rounds;
    profile->fixpoint_rounds += rounds;
  }
  return closed;
}

Result<ChargedRelation> ExecuteRulePlan(const QueryRule& rule,
                                        const RulePlan& plan,
                                        const ConjunctStrategy& strategy,
                                        BudgetTracker* budget,
                                        EvalProfile* profile,
                                        size_t conjunct_offset,
                                        size_t step_offset) {
  ChargedRelation acc;
  for (size_t pos = 0; pos < plan.steps.size(); ++pos) {
    const PlanStep& step = plan.steps[pos];
    // Direction resolves here, once, for every engine: a backward step
    // hands the strategy the endpoint-swapped, regex-reversed conjunct.
    // Var labels travel with the endpoints, so the joins and head
    // projection below never care about direction.
    const Conjunct c = EffectiveConjunct(rule.body[step.conjunct], step);
    const size_t conjunct_index = conjunct_offset + step.conjunct;
    WallTimer conjunct_timer;
    ChargedRelation rel;
    {
      GMARK_ASSIGN_OR_RETURN(ChargedPairs pairs, strategy(c, conjunct_index));
      // The relation copy lives alongside the pair vector until the
      // scope closes: ChargeRelation charges it for its lifetime, and
      // the pair vector's share releases only when `pairs` dies at the
      // end of this scope. Releasing before the copy was charged
      // under-counted the live peak ~2x, so the §7 memory-blowup budget
      // under-fired.
      GMARK_ASSIGN_OR_RETURN(
          rel, ChargeRelation(
                   VarRelation::FromPairs(c.source, c.target, pairs.value),
                   budget));
    }
    const size_t conjunct_rows = rel.value.row_count();
    if (pos == 0) {
      acc = std::move(rel);
    } else {
      // Both join inputs stay charged until the join output exists; the
      // move-assign releases the replaced acc, and rel releases at the
      // end of the iteration.
      GMARK_ASSIGN_OR_RETURN(ChargedRelation joined,
                             HashJoin(acc.value, rel.value, budget));
      acc = std::move(joined);
    }
    if (profile != nullptr) {
      ConjunctProfile& cp = profile->Conjunct(conjunct_index);
      cp.rows += conjunct_rows;
      cp.seconds += conjunct_timer.ElapsedSeconds();
      profile->RecordPlanStepRows(step_offset + pos, conjunct_rows);
    }
    GMARK_RETURN_NOT_OK(budget->CheckTime());
  }
  // acc releases after the projection is built.
  return ProjectDistinct(acc.value, rule.head, budget);
}

Result<uint64_t> ExecutePlan(const Query& query, const QueryPlan& plan,
                             const ConjunctStrategy& strategy,
                             BudgetTracker* budget, EvalProfile* profile) {
  // Relations and their charges live in parallel vectors until the
  // union is counted; the guards release on return, before the
  // caller's profile snapshot (which records the peak, not the
  // balance).
  std::vector<VarRelation> per_rule;
  std::vector<TupleCharge> per_rule_charges;
  // Profile conjunct numbering is global across rules in WRITTEN
  // order; plan steps map execution position back to it.
  size_t conjunct_offset = 0;
  size_t step_offset = 0;
  for (size_t ri = 0; ri < query.rules.size(); ++ri) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedRelation rel,
        ExecuteRulePlan(query.rules[ri], plan.rules[ri], strategy, budget,
                        profile, conjunct_offset, step_offset));
    per_rule.push_back(std::move(rel.value));
    per_rule_charges.push_back(std::move(rel.charge));
    conjunct_offset += query.rules[ri].body.size();
    step_offset += plan.rules[ri].steps.size();
  }
  return CountDistinctUnion(per_rule, budget);
}

QueryPlan PlanOrIdentity(const EvalOptions& opts, const Graph& graph,
                         const Query& query) {
  if (opts.planner != nullptr) {
    return opts.planner->PlanQuery(query, graph.layout());
  }
  return QueryPlan::Identity(query);
}

}  // namespace gmark
