// Quickstart: the full gMark workflow of Fig. 1 in one program.
//
//   1. Define a graph configuration (the bibliographical schema of the
//      paper's motivating example, Fig. 2).
//   2. Check schema consistency and generate a graph instance.
//   3. Generate a selectivity-controlled query workload.
//   4. Statically estimate each query's selectivity class, evaluate the
//      query on the instance, and translate it into all four syntaxes.
//
// Run:  ./build/examples/quickstart

#include <iostream>

#include "analysis/regression.h"
#include "core/consistency.h"
#include "core/use_cases.h"
#include "engine/evaluator.h"
#include "graph/stats.h"
#include "parallel/parallel_generator.h"
#include "selectivity/estimator.h"
#include "translate/translator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

int main() {
  using namespace gmark;

  // 1. Configuration: 10K-node bibliographical graph.
  GraphConfiguration config = MakeBibConfig(/*num_nodes=*/10000, /*seed=*/1);
  std::cout << "== Schema consistency ==\n";
  auto report = CheckConsistency(config);
  if (!report.ok()) {
    std::cerr << report.status() << "\n";
    return 1;
  }
  std::cout << report->ToString() << "\n";

  // 2. Generate the instance.
  auto graph = ParallelGenerateGraph(config);
  if (!graph.ok()) {
    std::cerr << graph.status() << "\n";
    return 1;
  }
  std::cout << "== Instance ==\n"
            << ComputeStats(*graph).ToString(config.schema) << "\n";

  // 3. A small selectivity-controlled workload (2 queries per class).
  WorkloadConfiguration wconfig =
      MakePresetWorkload(WorkloadPreset::kCon, /*num_queries=*/6, /*seed=*/3);
  QueryGenerator generator(&config.schema);
  auto workload = generator.Generate(wconfig);
  if (!workload.ok()) {
    std::cerr << workload.status() << "\n";
    return 1;
  }

  // 4. Inspect each query.
  SelectivityEstimator estimator(&config.schema);
  ReferenceEvaluator evaluator(&*graph);
  for (const GeneratedQuery& gq : workload->queries) {
    std::cout << "== " << gq.query.name << " (requested: "
              << QuerySelectivityName(*gq.target_class) << ") ==\n"
              << gq.query.ToString(config.schema);
    auto alpha = estimator.EstimateAlpha(gq.query);
    if (alpha.ok()) {
      std::cout << "estimated alpha: " << *alpha << "\n";
    }
    auto count = evaluator.CountDistinct(gq.query);
    if (count.ok()) {
      std::cout << "|Q(G)| on the 10K instance: " << *count << "\n";
    } else {
      std::cout << "evaluation: " << count.status() << "\n";
    }
    for (QueryLanguage lang : AllQueryLanguages()) {
      auto text = TranslateQuery(gq.query, config.schema, lang);
      std::cout << "-- " << QueryLanguageName(lang) << " --\n"
                << (text.ok() ? *text : text.status().ToString() + "\n");
    }
    std::cout << "\n";
  }
  if (!workload->skipped.empty()) {
    std::cout << "skipped requests:\n";
    for (const auto& s : workload->skipped) std::cout << "  " << s << "\n";
  }
  return 0;
}
