// The path-composition kernels as they were before composition went
// source by source, kept test-only as the differential reference for
// engine_common's SymbolPairs/ComposePathPairs/RegexBasePairs:
//   - the first symbol's pairs come from the forward CSR, swapped for an
//     inverse symbol (so they are not grouped by source);
//   - set semantics deduplicate every composed pair through one flat
//     table over the whole step relation;
//   - the disjunct union concatenates the parts and sorts and uniques
//     the concatenation once.
// Charges follow the same rules as the library kernels: one charge per
// produced row, a step stays charged until its successor is, and each
// part's charge is released before the union is charged.

#ifndef GMARK_TESTS_ENGINE_LEGACY_COMPOSE_H_
#define GMARK_TESTS_ENGINE_LEGACY_COMPOSE_H_

#include <algorithm>
#include <utility>

#include "engine/engine_common.h"
#include "engine/flat_table.h"

namespace gmark {
namespace testing_legacy {

/// Sort and unique in place: set semantics for a pair vector.
inline void SortUnique(NodePairs* pairs) {
  std::sort(pairs->begin(), pairs->end());
  pairs->erase(std::unique(pairs->begin(), pairs->end()), pairs->end());
}

inline uint64_t PairHash(const std::pair<NodeId, NodeId>& p) {
  return HashColumn(HashColumn(kRowHashSeed, p.first), p.second);
}

inline Status AppendIfNew(NodeId x, NodeId y, NodePairs* pairs,
                          FlatRowTable* seen, TupleCharge* charge) {
  GMARK_RETURN_NOT_OK(CheckRowLimit(pairs->size()));
  const std::pair<NodeId, NodeId> pair{x, y};
  const uint32_t found = seen->FindOrInsert(
      PairHash(pair), static_cast<uint32_t>(pairs->size()),
      [&](uint32_t r) { return (*pairs)[r] == pair; },
      [&](uint32_t r) { return PairHash((*pairs)[r]); });
  if (found != FlatRowTable::kNone) return Status::OK();
  GMARK_RETURN_NOT_OK(charge->Charge(1));
  pairs->push_back(pair);
  return Status::OK();
}

inline NodePairs SymbolPairs(const Graph& graph, const Symbol& symbol) {
  NodePairs pairs;
  pairs.reserve(graph.EdgeCount(symbol.predicate));
  graph.ForEachEdge(symbol.predicate, [&](NodeId s, NodeId t) {
    if (symbol.inverse) {
      pairs.emplace_back(t, s);
    } else {
      pairs.emplace_back(s, t);
    }
  });
  return pairs;
}

inline Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                             const PathExpr& path,
                                             bool set_semantics,
                                             BudgetTracker* budget) {
  if (path.empty()) {
    return Status::InvalidArgument("cannot compose an empty path");
  }
  NodePairs current = testing_legacy::SymbolPairs(graph, path[0]);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(current.size()));
  PeriodicTimeCheck clock(budget);
  for (size_t i = 1; i < path.size(); ++i) {
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    const Symbol& sym = path[i];
    NodePairs next;
    TupleCharge next_charge(budget);
    FlatRowTable seen;
    for (const auto& [x, mid] : current) {
      auto neighbors = sym.inverse ? graph.InNeighbors(sym.predicate, mid)
                                   : graph.OutNeighbors(sym.predicate, mid);
      for (NodeId w : neighbors) {
        GMARK_RETURN_NOT_OK(clock.Check());
        if (set_semantics) {
          GMARK_RETURN_NOT_OK(AppendIfNew(x, w, &next, &seen, &next_charge));
        } else {
          GMARK_RETURN_NOT_OK(next_charge.Charge(1));
          next.emplace_back(x, w);
        }
      }
    }
    current = std::move(next);
    charge = std::move(next_charge);
  }
  return ChargedPairs(std::move(current), std::move(charge));
}

inline Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                           const RegularExpression& expr,
                                           bool set_semantics,
                                           BudgetTracker* budget) {
  NodePairs base;
  for (const PathExpr& path : expr.disjuncts) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedPairs part,
        testing_legacy::ComposePathPairs(graph, path, set_semantics,
                                         budget));
    base.insert(base.end(), part.value.begin(), part.value.end());
  }
  SortUnique(&base);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(base.size()));
  return ChargedPairs(std::move(base), std::move(charge));
}

}  // namespace testing_legacy
}  // namespace gmark

#endif  // GMARK_TESTS_ENGINE_LEGACY_COMPOSE_H_
