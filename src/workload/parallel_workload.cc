#include "workload/parallel_workload.h"

#include <algorithm>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "parallel/executor.h"
#include "util/random.h"
#include "util/string_util.h"

namespace gmark {

namespace {

/// Query indices per task. Queries are coarse units (each one walks the
/// schema graph many times), so small chunks load-balance well; the
/// value has no effect on the generated workload.
constexpr size_t kQueriesPerTask = 4;

/// Per-request result slot: exactly one of `query` / `skip` is set.
/// Tasks write disjoint slots, so the vector needs no locking.
struct QuerySlot {
  std::optional<GeneratedQuery> query;
  std::string skip;
};

}  // namespace

Result<Workload> ParallelGenerateWorkload(
    const QueryGenerator& generator, const WorkloadConfiguration& config,
    const ParallelWorkloadOptions& options) {
  // Hoisted tables: the walk counts and, when some query is
  // selectivity-controlled, G_sel — built once, shared read-only by
  // every task.
  GMARK_ASSIGN_OR_RETURN(const WorkloadTables tables,
                         generator.BuildTables(config));

  const size_t num_queries = config.num_queries;
  std::vector<QuerySlot> slots(num_queries);

  Executor executor(options.num_threads);
  for (size_t lo = 0; lo < num_queries; lo += kQueriesPerTask) {
    const size_t hi = std::min(num_queries, lo + kQueriesPerTask);
    executor.Submit([&generator, &config, &slots, &tables, lo, hi] {
      for (size_t i = lo; i < hi; ++i) {
        const QueryShape shape = config.shapes[i % config.shapes.size()];
        std::optional<QuerySelectivity> target;
        if (config.selectivity_control) {
          target = config.selectivities[i % config.selectivities.size()];
        }
        // The stream depends only on (seed, request index): any
        // partition of the index space replays it identically.
        RandomEngine rng(DeriveSeed(config.seed, i,
                                    internal::kWorkloadQueryPhase));
        auto one =
            generator.GenerateOne(config, shape, target, tables, &rng);
        if (one.ok()) {
          slots[i].query = std::move(one).ValueOrDie();
        } else {
          slots[i].skip = StrCat(
              "q", i, " ", QueryShapeName(shape), "/",
              target.has_value() ? QuerySelectivityName(*target) : "any",
              ": ", one.status().message());
        }
      }
    });
  }
  executor.Wait();

  // Merge in request-index order. Names come from the request index —
  // not the emission order — so one skipped query never shifts every
  // later name, and a workload stays stable under schema tweaks that
  // only change which requests skip.
  Workload workload;
  workload.name = config.name;
  for (size_t i = 0; i < num_queries; ++i) {
    if (slots[i].query.has_value()) {
      GeneratedQuery gq = std::move(*slots[i].query);
      gq.query.name = StrCat("q", i);
      workload.queries.push_back(std::move(gq));
    } else {
      workload.skipped.push_back(std::move(slots[i].skip));
    }
  }
  if (workload.queries.empty()) {
    return Status::NotFound(
        "no queries could be generated; first failure: " +
        (workload.skipped.empty() ? std::string("?") : workload.skipped[0]));
  }
  return workload;
}

}  // namespace gmark
