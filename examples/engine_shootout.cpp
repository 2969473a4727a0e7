// Scenario: a miniature engine shootout (the paper's §7 in one file).
//
// Generates a Bib instance and one diverse workload, then runs each
// query on the four engine simulators under a budget, printing the
// per-query time grid and a per-engine summary — a template for using
// gMark to compare real query engines.
//
// Run:  ./build/examples/engine_shootout

#include <cstdio>
#include <map>

#include "analysis/runner.h"
#include "core/use_cases.h"
#include "engine/engines.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"
#include "translate/translator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

int main() {
  GraphConfiguration config = MakeBibConfig(2000, 29);
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  QueryGenerator generator(&config.schema);
  WorkloadConfiguration wconfig =
      MakePresetWorkload(WorkloadPreset::kCon, 9, 31);
  wconfig.recursion_probability = 0.2;
  Workload workload = generator.Generate(wconfig).ValueOrDie();
  ReferenceEvaluator reference(&graph);
  ResourceBudget budget = ResourceBudget::Limited(5.0, 20000000);

  std::printf("== Engine shootout: Bib 2000 nodes, %zu queries ==\n\n",
              workload.queries.size());
  std::printf("%-6s %-10s", "query", "class");
  for (EngineKind kind : AllEngineKinds()) {
    std::printf("  %8s", EngineKindCode(kind));
  }
  std::printf("  %10s\n", "|Q(G)|");

  std::map<EngineKind, double> totals;
  std::map<EngineKind, int> failures;
  for (const GeneratedQuery& gq : workload.queries) {
    std::printf("%-6s %-10s", gq.query.name.c_str(),
                QuerySelectivityName(*gq.target_class));
    for (EngineKind kind : AllEngineKinds()) {
      auto engine = MakeEngine(kind);
      TimingProtocol protocol;
      protocol.warm_runs = 3;
      TimingResult result =
          TimeQuery(*engine, graph, gq.query, budget, protocol);
      std::printf("  %8s", result.ToCell().c_str());
      if (result.ok()) {
        totals[kind] += result.seconds;
      } else {
        ++failures[kind];
      }
    }
    std::printf("  %10llu\n",
                static_cast<unsigned long long>(
                    reference.CountDistinct(gq.query).ValueOr(0)));
  }

  std::printf("\n== Totals (seconds over completed queries) ==\n");
  for (EngineKind kind : AllEngineKinds()) {
    auto engine = MakeEngine(kind);
    std::printf("%s  total=%.3fs  failures=%d   %s\n", EngineKindCode(kind),
                totals[kind], failures[kind],
                engine->description().c_str());
  }

  // Show one query in all four concrete syntaxes, count(distinct) form.
  const Query& showcase = workload.queries.front().query;
  std::printf("\n== %s in the four output syntaxes ==\n",
              showcase.name.c_str());
  TranslateOptions options;
  options.count_distinct = true;
  for (QueryLanguage lang : AllQueryLanguages()) {
    auto text = TranslateQuery(showcase, config.schema, lang, options);
    std::printf("--- %s ---\n%s\n", QueryLanguageName(lang),
                text.ok() ? text->c_str() : text.status().ToString().c_str());
  }
  return 0;
}
