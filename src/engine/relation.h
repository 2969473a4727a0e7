// Materialized relations over query variables: the workhorse of the
// join-based evaluation paths (general shapes in the reference
// evaluator; the Relational/Datalog/SPARQL engine simulators).

#ifndef GMARK_ENGINE_RELATION_H_
#define GMARK_ENGINE_RELATION_H_

#include <cstdint>
#include <span>
#include <vector>

#include "engine/budget.h"
#include "engine/charge.h"
#include "graph/graph.h"
#include "query/query.h"
#include "util/result.h"

namespace gmark {

class FlatRowTable;

/// \brief A bag/set of tuples over an ordered list of variables,
/// stored row-major in one flat buffer.
class VarRelation {
 public:
  VarRelation() = default;
  explicit VarRelation(std::vector<VarId> vars) : vars_(std::move(vars)) {}

  const std::vector<VarId>& vars() const { return vars_; }
  size_t width() const { return vars_.size(); }
  size_t row_count() const {
    return width() == 0 ? (nullary_nonempty_ ? 1 : 0)
                        : data_.size() / width();
  }

  std::span<const NodeId> row(size_t i) const {
    return {data_.data() + i * width(), width()};
  }

  /// \brief Reserve room for `rows` rows in all.
  void Reserve(size_t rows) { data_.reserve(rows * width()); }

  void AppendRow(std::span<const NodeId> values) {
    data_.insert(data_.end(), values.begin(), values.end());
  }

  /// \brief For width-0 (boolean) relations: mark non-empty.
  void SetNonEmpty() { nullary_nonempty_ = true; }

  /// \brief Build a binary relation (?x, ?y) from node pairs. When the
  /// two variables coincide, only reflexive pairs are kept and the
  /// relation becomes unary.
  static VarRelation FromPairs(
      VarId x, VarId y, const std::vector<std::pair<NodeId, NodeId>>& pairs);

  /// \brief Position of `var` in vars(), or -1.
  int IndexOf(VarId var) const;

 private:
  std::vector<VarId> vars_;
  std::vector<NodeId> data_;
  bool nullary_nonempty_ = false;
};

/// \brief A relation whose rows are charged against a BudgetTracker:
/// the charge releases when the relation is destroyed. Every
/// materializing operator below returns one, so a relation can never
/// outlive — or predate — its budget accounting.
using ChargedRelation = Charged<VarRelation>;

/// \brief Charge `rel`'s rows against `budget` and bind the charge to
/// the relation's lifetime. On budget exhaustion the charge unwinds and
/// the error is returned (the tracker's peak still records the attempt,
/// matching BudgetTracker::ChargeTuples semantics).
Result<ChargedRelation> ChargeRelation(VarRelation rel,
                                       BudgetTracker* budget);

/// \brief Append `row` to `rel` unless `rel` holds it already, where
/// `seen` holds the row ids of `rel` and nothing else (flat_table.h).
/// True when appended. ResourceExhausted when `rel` would reach
/// 2^32 - 1 rows, the row-id limit. Charges nothing.
Result<bool> AppendDistinctRow(std::span<const NodeId> row, VarRelation* rel,
                               FlatRowTable* seen);

/// \brief Natural hash join on the shared variables of `a` and `b`.
/// Joins with no shared variables degenerate to a (budgeted) cross
/// product. Output schema: `a`'s variables, then `b`'s others.
///
/// Row order: `a` order, and within one `a` row its matches in `b`
/// order. Charges: one tuple per output row, decided before any row is
/// written. A first pass over `a` counts the output from the sizes of
/// `b`'s key groups. When the count fits the ceiling it is charged
/// once and the rows are emitted. When it does not, the join charges
/// the headroom plus one and fails, which leaves the tracker's balance,
/// peak and message exactly as charging row by row up to the first
/// row past the ceiling would.
///
/// The deadline is read through a PeriodicTimeCheck ticked once per
/// `a` row in each pass and once per output row. So a join that fits
/// can still be a time kill while its rows are emitted, but a join past
/// the ceiling is a tuple kill even where writing its rows up to the
/// ceiling would have outlasted the deadline.
///
/// ResourceExhausted when `b` holds 2^32 - 1 rows or more (the row-id
/// limit of flat_table.h).
Result<ChargedRelation> HashJoin(const VarRelation& a, const VarRelation& b,
                                 BudgetTracker* budget);

/// \brief Project onto `onto` and de-duplicate. Columns follow `onto`.
///
/// Row order: first occurrence in `rel`. Charges: one tuple per kept
/// row, as it is kept; projecting onto no variables charges nothing.
/// ResourceExhausted when the result would reach 2^32 - 1 rows.
Result<ChargedRelation> ProjectDistinct(const VarRelation& rel,
                                        const std::vector<VarId>& onto,
                                        BudgetTracker* budget);

/// \brief Count the distinct tuples in the union of equal-width
/// relations (the UCRPQ union semantics with a count(distinct)
/// aggregate). InvalidArgument when the widths differ.
///
/// Charges: one tuple per distinct tuple, as it is first met in `rels`
/// order, held until the count returns. ResourceExhausted when the
/// union would reach 2^32 - 1 distinct tuples.
Result<uint64_t> CountDistinctUnion(const std::vector<VarRelation>& rels,
                                    BudgetTracker* budget);

/// \brief CountDistinctUnion of the one relation `rel`, whose rows are
/// already distinct (ProjectDistinct output), counted with no table.
///
/// Charges: the rows at once, held until the count returns; past the
/// ceiling, the headroom plus one, which leaves the tracker's balance,
/// peak and message exactly as CountDistinctUnion's row-by-row charge
/// would. A width-0 relation counts 1 or 0 and charges nothing.
Result<uint64_t> CountDistinctRows(const VarRelation& rel,
                                   BudgetTracker* budget);

}  // namespace gmark

#endif  // GMARK_ENGINE_RELATION_H_
