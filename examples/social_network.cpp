// Scenario: benchmarking recursive queries on a social network.
//
// The LDBC-style LSN use case is the paper's vehicle for power-law
// `knows` graphs, where transitive closures are quadratic (§5.2.1).
// This example:
//   1. generates LSN instances at three sizes,
//   2. generates a recursion-heavy workload (Rec preset),
//   3. shows, per query, the statically estimated class and the
//      measured result growth, and
//   4. runs the co-knowledge closure on all four engine simulators to
//      reproduce the paper's "only Datalog survives recursion" story in
//      miniature.
//
// Run:  ./build/examples/social_network

#include <cstdio>

#include "analysis/alpha_lab.h"
#include "analysis/runner.h"
#include "core/use_cases.h"
#include "engine/engines.h"
#include "graph/stats.h"
#include "parallel/parallel_generator.h"
#include "selectivity/estimator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

int main() {
  GraphConfiguration base = MakeLsnConfig(2000, 17);
  std::printf("== LSN social-network scenario ==\n");
  Graph sample = ParallelGenerateGraph(base).ValueOrDie();
  std::printf("%s\n", ComputeStats(sample).ToString(base.schema).c_str());

  // Recursion-heavy workload.
  QueryGenerator generator(&base.schema);
  Workload workload =
      generator.Generate(MakePresetWorkload(WorkloadPreset::kRec, 6, 19))
          .ValueOrDie();
  SelectivityEstimator estimator(&base.schema);
  AlphaLab lab = AlphaLab::Create(base, {1000, 2000, 4000}).ValueOrDie();

  std::printf("== Recursive workload: estimated class vs measured growth "
              "==\n");
  for (const GeneratedQuery& gq : workload.queries) {
    std::printf("%s (requested %s):\n  %s", gq.query.name.c_str(),
                QuerySelectivityName(*gq.target_class),
                gq.query.ToString(base.schema).c_str());
    auto est_class = estimator.EstimateClass(gq.query);
    auto measured =
        lab.Measure(gq.query, ResourceBudget::Limited(30.0, 100000000));
    if (est_class.ok()) {
      std::printf("  estimated class: %s\n",
                  QuerySelectivityName(*est_class));
    }
    if (measured.ok()) {
      std::printf("  measured alpha: %.3f  counts:", measured->alpha);
      for (uint64_t c : measured->counts) {
        std::printf(" %llu", static_cast<unsigned long long>(c));
      }
      std::printf("\n");
    } else {
      std::printf("  measurement: %s\n",
                  measured.status().ToString().c_str());
    }
  }

  // The knows-closure on all four engines.
  std::printf("\n== knows* on the four engine simulators (2000 nodes) ==\n");
  PredicateId knows = base.schema.PredicateIdOf("knows").ValueOrDie();
  RegularExpression closure;
  closure.disjuncts = {{Symbol::Fwd(knows)}};
  closure.star = true;
  Query knows_star;
  knows_star.name = "knows-closure";
  QueryRule rule;
  rule.head = {0, 1};
  rule.body = {Conjunct{0, 1, closure}};
  knows_star.rules = {rule};

  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind);
    TimingResult result = TimeQuery(*engine, sample, knows_star,
                                    ResourceBudget::Limited(10.0, 40000000));
    std::printf("  %s: %-8s  (%s)\n", EngineKindCode(kind),
                result.ok()
                    ? (result.ToCell() + "s, " +
                       std::to_string(result.count) + " pairs")
                          .c_str()
                    : result.status.ToString().c_str(),
                engine->description().c_str());
  }
  return 0;
}
