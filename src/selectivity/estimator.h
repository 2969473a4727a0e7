// Static, schema-only selectivity estimation for binary UCRPQs — the
// paper's headline capability (§5.2.2): compute alpha-hat(Q) in {0,1,2}
// from the schema alone, with no graph instance.

#ifndef GMARK_SELECTIVITY_ESTIMATOR_H_
#define GMARK_SELECTIVITY_ESTIMATOR_H_

#include <map>
#include <vector>

#include "core/graph_config.h"
#include "query/query.h"
#include "selectivity/schema_graph.h"

namespace gmark {

/// \brief Numeric, schema-only cost inputs for one conjunct — the
/// planner's view of the §5.2.2 degree distributions: expected result
/// rows plus the relative cost of anchoring evaluation at either
/// endpoint.
///
/// All values are expectations derived from the schema's eta
/// constraints and the realized NodeLayout; no graph instance is
/// consulted, so the same (schema, layout) always yields the same
/// estimate and planning stays deterministic.
struct CardinalityEstimate {
  double rows = 0.0;            ///< Expected distinct (source, target) pairs.
  double forward_cost = 0.0;    ///< Intermediate rows walking source->target.
  double backward_cost = 0.0;   ///< Intermediate rows walking target->source.
  double forward_seeds = 0.0;   ///< Nodes with a matching first edge.
  double backward_seeds = 0.0;  ///< Nodes with a matching final edge.
};

/// \brief Schema-driven estimator over the selectivity algebra.
///
/// The estimator walks the schema graph G_S: the accumulated triple of
/// the node reached from a type's identity node by a concrete symbol
/// path is exactly sel_{A,B} of that path; disjuncts combine with the
/// Fig. 7a table; stars iterate composition to a fixpoint; chain bodies
/// compose left to right. alpha-hat(Q) = max over reachable (A, B)
/// pairs, as in §5.2.2.
class SelectivityEstimator {
 public:
  /// \brief `schema` must outlive the estimator.
  explicit SelectivityEstimator(const GraphSchema* schema);

  /// \brief Classes of a regular expression started from type `source`:
  /// target type -> accumulated triple. Empty when no instance of the
  /// expression can leave `source`.
  std::map<TypeId, SelTriple> EstimateRegex(
      TypeId source, const RegularExpression& expr) const;

  /// \brief alpha-hat for a whole query. Rule bodies must be chains
  /// (the shape for which the paper defines selectivity estimation);
  /// other shapes return Unsupported. Unions take the max over rules.
  Result<int> EstimateAlpha(const Query& query) const;

  /// \brief alpha-hat mapped onto {constant, linear, quadratic}.
  Result<QuerySelectivity> EstimateClass(const Query& query) const;

  /// \brief Expected cardinality and direction costs of one conjunct
  /// under the type-level independence model (composition divides by
  /// the shared middle type's node count; disjunction adds; the
  /// outermost star iterates closure over the reflexive diagonal).
  CardinalityEstimate EstimateCardinality(const Conjunct& conjunct,
                                          const NodeLayout& layout) const;

  /// \brief Cost of evaluating a chain body end to end in one
  /// direction (seed scan plus every intermediate frontier) — the
  /// signal behind the planner's whole-chain direction choice.
  double EstimateChainCost(const std::vector<Conjunct>& chain,
                           const NodeLayout& layout, bool backward) const;

  const SchemaGraph& schema_graph() const { return graph_; }
  const GraphSchema& schema() const { return *schema_; }

 private:
  // Walk one concrete symbol path from a set of schema-graph states.
  std::vector<SchemaNodeId> WalkPath(
      const std::vector<SchemaNodeId>& from, const PathExpr& path) const;

  const GraphSchema* schema_;
  SchemaGraph graph_;
};

/// \brief Reorder a rule body into a chain x0 -> x1 -> ... if possible
/// (each variable used at most twice, conjuncts linkable end to end).
/// Returns NotFound when the body is not a chain.
Result<std::vector<Conjunct>> AsChain(const QueryRule& rule);

}  // namespace gmark

#endif  // GMARK_SELECTIVITY_ESTIMATOR_H_
