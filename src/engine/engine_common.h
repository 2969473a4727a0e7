// Internal building blocks shared by the engine simulators: the one
// plan executor that the P/S/D engines and the reference evaluator's
// join path all run, and the conjunct strategies they plug into it —
// bulk path composition (relational-style) and transitive-closure
// strategies (naive vs semi-naive), which is exactly where the paper's
// P and D systems differ on recursive queries.

#ifndef GMARK_ENGINE_ENGINE_COMMON_H_
#define GMARK_ENGINE_ENGINE_COMMON_H_

#include <functional>
#include <vector>

#include "engine/budget.h"
#include "engine/charge.h"
#include "engine/eval_options.h"
#include "engine/relation.h"
#include "graph/graph.h"
#include "plan/plan.h"
#include "query/query.h"
#include "util/result.h"

namespace gmark {

struct EvalProfile;

using NodePairs = std::vector<std::pair<NodeId, NodeId>>;

/// \brief A pair vector whose tuples are charged against a
/// BudgetTracker for exactly the vector's lifetime.
using ChargedPairs = Charged<NodePairs>;

/// \brief All edges matching one symbol, as (source, target) pairs
/// (inverse symbols swap the roles), read from the CSR of the symbol's
/// own direction.
///
/// Order: grouped by source, sources ascending; within a source, the
/// CSR's neighbor order.
NodePairs SymbolPairs(const Graph& graph, const Symbol& symbol);

/// \brief Relational evaluation of one concatenation path: start from
/// the first symbol's edge relation and compose stepwise through the
/// adjacency index. With `set_semantics` each step deduplicates (a
/// Datalog relation); without, bag semantics mirror a SQL join pipeline.
///
/// Order: grouped by source, sources ascending; within a source, the
/// order in which the step first reached each target.
///
/// Charges: the first relation at once, then one tuple per produced
/// row; a step's relation stays charged until its successor is fully
/// charged. Set semantics deduplicate one source's targets at a time,
/// with no table over the whole step relation.
Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                      const PathExpr& path,
                                      bool set_semantics,
                                      BudgetTracker* budget);

/// \brief Union of the disjunct relations of a regular expression
/// (without applying the star), deduplicated.
///
/// One walk over the sources merges the disjuncts, which are grouped by
/// source. A bitset deduplicates each source's targets; when they lie
/// close together they are read back from its words in ascending order,
/// and only a sparse run is sorted.
///
/// Order: sorted and distinct. Charges: each disjunct as
/// ComposePathPairs charges it, released before the union is charged
/// once, in full.
Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                    const RegularExpression& expr,
                                    bool set_semantics,
                                    BudgetTracker* budget);

/// \brief Reflexive-transitive closure by NAIVE iteration: every round
/// rejoins the whole accumulated relation with the base (the cost
/// profile of a recursive view evaluated without delta optimization).
/// `rounds`, when given, receives the number of fixpoint rounds run —
/// the cost-asymmetry observable the evaluation profiles report.
Result<ChargedPairs> ClosureNaive(const Graph& graph, const NodePairs& base,
                                  BudgetTracker* budget,
                                  uint64_t* rounds = nullptr);

/// \brief Reflexive-transitive closure by SEMI-NAIVE iteration: only
/// the delta of the previous round is extended (Datalog-style).
/// `rounds` as in ClosureNaive.
Result<ChargedPairs> ClosureSemiNaive(const Graph& graph,
                                      const NodePairs& base,
                                      BudgetTracker* budget,
                                      uint64_t* rounds = nullptr);

/// \brief Closure strategy of EvaluateConjunctPairs.
enum class ClosureKind { kNaive, kSemiNaive };

/// \brief The P and D conjunct strategy: evaluates one conjunct —
/// already direction-resolved by EffectiveConjunct, so a backward step
/// arrives with its endpoints swapped and its regex reversed — into
/// charged pairs: regex base union, then the requested closure strategy
/// when starred. The Kleene seed side follows the step direction for
/// free: the closure operates on the (possibly reversed) base relation.
/// Fixpoint rounds are recorded under `conjunct_index` even when the
/// closure dies on its budget — a partial round count still explains
/// where the time went.
Result<ChargedPairs> EvaluateConjunctPairs(const Graph& graph,
                                           const Conjunct& conjunct,
                                           bool set_semantics,
                                           ClosureKind closure,
                                           BudgetTracker* budget,
                                           EvalProfile* profile,
                                           size_t conjunct_index);

/// \brief How an engine evaluates one conjunct, the only part of plan
/// execution that differs between engines: the conjunct arrives
/// direction-resolved (EffectiveConjunct), `conjunct_index` is its
/// global position in written order (for per-conjunct statistics), and
/// the pairs come back charged for their lifetime.
using ConjunctStrategy =
    std::function<Result<ChargedPairs>(const Conjunct&, size_t)>;

/// \brief The plan executor for one rule: runs the steps in plan order
/// through `strategy`, joins each step's relation into the accumulator,
/// and projects the head (distinct). Records per-conjunct and per-step
/// rows and seconds into `profile` (may be null) and checks the
/// deadline after every step. `conjunct_offset`/`step_offset` place
/// this rule's profile entries in a multi-rule query. The result's rows
/// stay charged against `budget` until it is destroyed.
Result<ChargedRelation> ExecuteRulePlan(const QueryRule& rule,
                                        const RulePlan& plan,
                                        const ConjunctStrategy& strategy,
                                        BudgetTracker* budget,
                                        EvalProfile* profile,
                                        size_t conjunct_offset,
                                        size_t step_offset);

/// \brief The plan executor: every rule through ExecuteRulePlan, then
/// the distinct count of their union — |Q(G)| under the paper's
/// count(distinct ...) semantics. A rule's relation is already
/// distinct, so one rule is counted by CountDistinctRows, with no
/// table; two or more go through CountDistinctUnion. Both charge the
/// same.
Result<uint64_t> ExecutePlan(const Query& query, const QueryPlan& plan,
                             const ConjunctStrategy& strategy,
                             BudgetTracker* budget, EvalProfile* profile);

/// \brief The plan an evaluation executes: the planner's, when the
/// options carry one, else the identity plan. One call site per
/// engine, so plan-on and plan-off share every execution code path.
QueryPlan PlanOrIdentity(const EvalOptions& opts, const Graph& graph,
                         const Query& query);

}  // namespace gmark

#endif  // GMARK_ENGINE_ENGINE_COMMON_H_
