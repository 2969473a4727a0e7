// The gMark query workload generation algorithm (Fig. 6 of the paper):
// for each query, build a skeleton for the configured shape, pick
// projection variables for the arity, and instantiate the placeholders
// with regular expressions — via the selectivity machinery of §5.2.4
// for selectivity-controlled binary chain queries, or via random
// schema-graph walks otherwise (§5.1).

#ifndef GMARK_WORKLOAD_QUERY_GENERATOR_H_
#define GMARK_WORKLOAD_QUERY_GENERATOR_H_

#include <optional>
#include <string>
#include <vector>

#include "query/query.h"
#include "query/workload_config.h"
#include "selectivity/selectivity_graph.h"
#include "util/random.h"
#include "util/result.h"

namespace gmark {

/// \brief A generated query plus the constraints it was generated for.
struct GeneratedQuery {
  Query query;
  QueryShape shape = QueryShape::kChain;
  /// Target selectivity class, when the query was selectivity-controlled.
  std::optional<QuerySelectivity> target_class;
};

/// \brief A generated workload.
struct Workload {
  std::string name;
  std::vector<GeneratedQuery> queries;

  /// \brief Requested queries the generator could not realize (e.g. a
  /// selectivity class the schema cannot express — the paper's Table 2
  /// has such a gap for WD-Rec linear). Messages are diagnostic.
  std::vector<std::string> skipped;

  /// \brief Queries stripped of generation metadata.
  std::vector<Query> RawQueries() const;

  /// \brief Canonical XML rendering: one <workload name="..."> document
  /// with a <query> per query (as QueriesToXml writes them) and a
  /// <skipped> per skip record. Two generator runs render
  /// byte-identically iff they agree on every query, every query name,
  /// and every skip — the byte-identity surface the thread-invariance
  /// tests pin.
  std::string ToXml(const GraphSchema& schema) const;
};

/// \brief Workload generator bound to one schema.
///
/// Thread-safety: construction builds the schema graph; afterwards all
/// generation methods are const and recompute into locals, so one
/// generator may serve any number of concurrent callers as long as
/// each brings its own RandomEngine.
class QueryGenerator {
 public:
  /// \brief `schema` must outlive the generator.
  explicit QueryGenerator(const GraphSchema* schema);

  /// \brief Run Fig. 6: generate config.num_queries queries. Shapes and
  /// selectivity classes cycle round-robin through the configured lists
  /// so classes are evenly represented (10/10/10 in the paper's
  /// 30-query workloads).
  ///
  /// This is the 1-thread special case of ParallelGenerateWorkload
  /// (workload/parallel_workload.h): every query index draws from its
  /// own SplitMix64-derived stream, so the output is byte-identical to
  /// the parallel path at any thread count.
  Result<Workload> Generate(const WorkloadConfiguration& config) const;

  /// \brief Generate a single query with explicit shape/class against a
  /// caller-provided G_sel built with
  /// SelectivityGraph::Build(&schema_graph(), config.size.path_length).
  /// Sharing one immutable G_sel across queries is what makes workload
  /// generation parallel-friendly: this method is const and touches no
  /// mutable state, so any number of threads may call it concurrently
  /// with distinct RandomEngines. `gsel` may be null only when the
  /// query is not selectivity-controlled: a controlled query (a chain
  /// with a target class) with a null `gsel` returns InvalidArgument.
  Result<GeneratedQuery> GenerateOne(
      const WorkloadConfiguration& config, QueryShape shape,
      std::optional<QuerySelectivity> target, const SelectivityGraph* gsel,
      RandomEngine* rng) const;

  const SchemaGraph& schema_graph() const { return graph_; }

 private:
  // Selectivity-controlled chain generation (§5.2.4).
  Result<QueryRule> GenerateControlledChainRule(
      const WorkloadConfiguration& config, QuerySelectivity target,
      const SelectivityGraph& gsel, RandomEngine* rng) const;

  // General shape-driven generation (§5.1), no selectivity guarantee.
  Result<QueryRule> GenerateFreeRule(const WorkloadConfiguration& config,
                                     QueryShape shape,
                                     RandomEngine* rng) const;

  // Sample a loop path (type T back to type T) for starred conjuncts.
  Result<PathExpr> SampleLoopPath(TypeId type, IntRange length,
                                  RandomEngine* rng) const;

  // Sample a path from `from` ending at any node of `target_type`.
  Result<std::pair<PathExpr, SchemaNodeId>> SamplePathToType(
      SchemaNodeId from, TypeId target_type, IntRange length,
      RandomEngine* rng) const;

  // Random walk of length within `length`; returns path and end node.
  Result<std::pair<PathExpr, SchemaNodeId>> RandomWalk(
      SchemaNodeId from, IntRange length, RandomEngine* rng) const;

  // Build a regular expression with `num_disjuncts` disjunct paths all
  // going `from` -> `to` (duplicates dropped).
  Result<RegularExpression> BuildRegex(SchemaNodeId from, SchemaNodeId to,
                                       int num_disjuncts, IntRange length,
                                       RandomEngine* rng) const;

  const GraphSchema* schema_;
  SchemaGraph graph_;
};

}  // namespace gmark

#endif  // GMARK_WORKLOAD_QUERY_GENERATOR_H_
