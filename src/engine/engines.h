// The four query-processing systems of the paper's §7 evaluation,
// simulated as in-process engines. The real systems are not embedded;
// each is reproduced by its evaluation strategy, so its §7 failure
// modes come from real work against the resource budget:
//
//   P — RelationalEngine: PostgreSQL-style conjunct-at-a-time hash
//       joins with full materialization; Kleene star via NAIVE
//       iterate-to-fixpoint of the linear-recursive view (each round
//       rejoins the whole accumulated relation).
//   S — SparqlEngine: SPARQL 1.1 property paths evaluated per the W3C
//       ALP procedure (per-source BFS), conjuncts joined afterwards.
//   G — CypherEngine: DFS pattern enumeration under relationship-
//       isomorphism semantics; variable-length patterns support neither
//       inverse nor concatenation (dropped, §7.1), so recursive answers
//       legitimately deviate.
//   D — DatalogEngine: bottom-up SEMI-NAIVE evaluation with delta
//       relations — the only engine expected to complete all recursive
//       queries (paper Table 4).
//
// All engines compute count(distinct head) under a ResourceBudget, so
// failures ("-" table entries) arise from real resource exhaustion.

#ifndef GMARK_ENGINE_ENGINES_H_
#define GMARK_ENGINE_ENGINES_H_

#include <memory>
#include <string>
#include <vector>

#include "engine/budget.h"
#include "engine/eval_options.h"
#include "graph/graph.h"
#include "obs/eval_profile.h"
#include "query/query.h"
#include "util/result.h"

namespace gmark {

/// \brief Which system simulator (paper names the systems P, S, G, D).
enum class EngineKind { kRelational, kSparql, kCypher, kDatalog };

/// \brief "P", "S", "G", "D".
const char* EngineKindCode(EngineKind kind);

/// \brief All four engines in the paper's presentation order.
std::vector<EngineKind> AllEngineKinds();

/// \brief Common engine interface.
class QueryEngine {
 public:
  virtual ~QueryEngine() = default;
  virtual EngineKind kind() const = 0;
  /// \brief Human-readable strategy description.
  virtual std::string description() const = 0;
  /// \brief count(distinct head) of the query on the graph, within
  /// budget. ResourceExhausted models the paper's failed runs. `ctx`,
  /// when given, receives the evaluation profile (obs/eval_profile.h) —
  /// filled on success and failure alike; the count never depends on it.
  virtual Result<uint64_t> Evaluate(const Graph& graph, const Query& query,
                                    const ResourceBudget& budget,
                                    EvalContext* ctx = nullptr) const = 0;
};

/// \brief Instantiate a simulator with serial evaluation.
std::unique_ptr<QueryEngine> MakeEngine(EngineKind kind);

/// \brief Instantiate a simulator that may parallelize within a query
/// per `opts` (the S engine's per-source BFS chunks over the executor;
/// the other strategies are inherently sequential and ignore it).
/// Results are byte-identical to the serial engine at any thread
/// count; `opts.executor` must outlive the engine's evaluations.
std::unique_ptr<QueryEngine> MakeEngine(EngineKind kind,
                                        const EvalOptions& opts);

}  // namespace gmark

#endif  // GMARK_ENGINE_ENGINES_H_
