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

/// \brief What every query of one workload reads and none writes:
/// G_sel when some query is selectivity-controlled, and the nb_path
/// walk-count tables both of its samplers draw from, built once per
/// workload instead of once per draw. A pure function of (schema
/// graph, configuration): ParallelGenerateWorkload builds one with
/// QueryGenerator::BuildTables and shares it with every query task.
struct WorkloadTables {
  /// walks_to[t]: G_S walks into schema-graph node t of up to
  /// config.size.path_length.max edges.
  std::vector<WalkCounts> walks_to;
  /// G_sel, present when some query is selectivity-controlled (a chain
  /// in the shape rotation with selectivity control on).
  std::optional<SelectivityGraph> gsel;
  /// With gsel, chains[c]: G_sel walks of up to
  /// config.size.conjuncts.max conjuncts ending in QuerySelectivity c.
  std::vector<WalkCounts> chains;
};

/// \brief Workload generator bound to one schema.
///
/// Thread-safety: construction builds the schema graph; afterwards all
/// generation methods are const and read only locals and a caller-owned
/// WorkloadTables, so one generator may serve any number of concurrent
/// callers as long as each brings its own RandomEngine.
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

  /// \brief The shared read-only state of a workload with `config`:
  /// the walk-count tables toward every schema-graph node, and G_sel
  /// with its chain tables when some query is selectivity-controlled.
  /// InvalidArgument when `config` does not validate.
  Result<WorkloadTables> BuildTables(
      const WorkloadConfiguration& config) const;

  /// \brief Generate a single query with explicit shape/class against
  /// caller-provided tables built by BuildTables(config). Sharing one
  /// immutable WorkloadTables across queries is what makes workload
  /// generation parallel-friendly: this method is const and touches no
  /// mutable state, so any number of threads may call it concurrently
  /// with distinct RandomEngines. A controlled query (a chain with a
  /// target class) against tables without G_sel returns
  /// InvalidArgument.
  Result<GeneratedQuery> GenerateOne(const WorkloadConfiguration& config,
                                     QueryShape shape,
                                     std::optional<QuerySelectivity> target,
                                     const WorkloadTables& tables,
                                     RandomEngine* rng) const;

  const SchemaGraph& schema_graph() const { return graph_; }

 private:
  // Selectivity-controlled chain generation (§5.2.4).
  Result<QueryRule> GenerateControlledChainRule(
      const WorkloadConfiguration& config, QuerySelectivity target,
      const WorkloadTables& tables, RandomEngine* rng) const;

  // General shape-driven generation (§5.1), no selectivity guarantee.
  Result<QueryRule> GenerateFreeRule(const WorkloadConfiguration& config,
                                     QueryShape shape,
                                     const WorkloadTables& tables,
                                     RandomEngine* rng) const;

  // Sample a loop path (type T back to type T) for starred conjuncts.
  Result<PathExpr> SampleLoopPath(TypeId type, IntRange length,
                                  const WorkloadTables& tables,
                                  RandomEngine* rng) const;

  // Sample a path from `from` ending at any node of `target_type`.
  Result<std::pair<PathExpr, SchemaNodeId>> SamplePathToType(
      SchemaNodeId from, TypeId target_type, IntRange length,
      const WorkloadTables& tables, RandomEngine* rng) const;

  // Random walk of length within `length`; returns path and end node.
  Result<std::pair<PathExpr, SchemaNodeId>> RandomWalk(
      SchemaNodeId from, IntRange length, RandomEngine* rng) const;

  // Build a regular expression with `num_disjuncts` disjunct paths all
  // going `from` -> `to` (duplicates dropped).
  Result<RegularExpression> BuildRegex(SchemaNodeId from, SchemaNodeId to,
                                       int num_disjuncts, IntRange length,
                                       const WorkloadTables& tables,
                                       RandomEngine* rng) const;

  const GraphSchema* schema_;
  SchemaGraph graph_;
};

}  // namespace gmark

#endif  // GMARK_WORKLOAD_QUERY_GENERATOR_H_
