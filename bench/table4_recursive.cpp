// Table 4: execution time for two recursive queries across the four
// engines and increasing graph sizes.
//
//   Query 1 (constant selectivity):
//     (?x,?y) <- (?x, heldIn^-.publishedIn^-, ?m1),
//                (?m1, (authors^-.authors)*, ?m2),
//                (?m2, publishedIn.heldIn, ?y)
//     City pairs connected through the co-paper closure: the OUTPUT is
//     constant-class, but the recursive middle conjunct is a quadratic
//     closure — the paper's pattern of a cheap-looking recursive query
//     whose materialization cost kills most engines.
//   Query 2 (quadratic selectivity):
//     (?x,?y) <- (?x, (authors.authors^-)*, ?y)   co-author closure.
//
// Expected shape (paper Table 4): D (semi-naive) completes most cells
// and is the most robust; P (naive fixpoint) and S fail ("-") as sizes
// grow; G answers deviate because openCypher cannot express inverse or
// concatenation under a star (deviations are marked with "!").

#include <cstdio>
#include <vector>

#include "analysis/runner.h"
#include "bench_util.h"
#include "core/use_cases.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"

using namespace gmark;

int main() {
  bench::PrintHeader("Table 4: recursive query execution times",
                     "paper Table 4");
  std::vector<int64_t> sizes =
      bench::Sizes({500, 1000, 2000}, {2000, 4000, 8000, 16000});
  ResourceBudget budget =
      bench::FullMode() ? ResourceBudget::Limited(120.0, 200000000)
                        : ResourceBudget::Limited(5.0, 40000000);
  TimingProtocol protocol;
  if (!bench::FullMode()) protocol.warm_runs = 2;

  GraphConfiguration base = MakeBibConfig(sizes.front(), 7);
  PredicateId authors = base.schema.PredicateIdOf("authors").ValueOrDie();
  PredicateId held = base.schema.PredicateIdOf("heldIn").ValueOrDie();
  PredicateId published =
      base.schema.PredicateIdOf("publishedIn").ValueOrDie();

  // Query 1: constant output, quadratic recursive middle.
  Query q1;
  q1.name = "q1-constant";
  {
    RegularExpression closure;
    closure.disjuncts = {{Symbol::Inv(authors), Symbol::Fwd(authors)}};
    closure.star = true;
    QueryRule rule;
    rule.head = {0, 3};
    rule.body = {
        Conjunct{0, 1,
                 RegularExpression::Path(
                     {Symbol::Inv(held), Symbol::Inv(published)})},
        Conjunct{1, 2, closure},
        Conjunct{2, 3,
                 RegularExpression::Path(
                     {Symbol::Fwd(published), Symbol::Fwd(held)})}};
    q1.rules = {rule};
  }
  // Query 2: quadratic co-author closure.
  Query q2;
  q2.name = "q2-quadratic";
  {
    RegularExpression closure;
    closure.disjuncts = {{Symbol::Fwd(authors), Symbol::Inv(authors)}};
    closure.star = true;
    QueryRule rule;
    rule.head = {0, 1};
    rule.body = {Conjunct{0, 1, closure}};
    q2.rules = {rule};
  }

  std::vector<Graph> graphs;
  for (int64_t n : sizes) {
    GraphConfiguration config = base;
    config.num_nodes = n;
    graphs.push_back(ParallelGenerateGraph(config).ValueOrDie());
  }

  for (const Query& q : {q1, q2}) {
    std::printf("\n--- %s ---\n", q.name.c_str());
    // Reference answers, to flag isomorphic-semantics deviations.
    std::vector<uint64_t> reference_counts;
    for (const Graph& graph : graphs) {
      ReferenceEvaluator reference(&graph);
      reference_counts.push_back(reference.CountDistinct(q).ValueOr(0));
    }
    std::printf("%-5s", "sys");
    for (int64_t n : sizes) std::printf("  %10lld", static_cast<long long>(n));
    std::printf("\n");
    for (EngineKind kind : AllEngineKinds()) {
      auto engine = MakeEngine(kind);
      std::printf("%-5s", EngineKindCode(kind));
      for (size_t gi = 0; gi < graphs.size(); ++gi) {
        TimingResult result =
            TimeQuery(*engine, graphs[gi], q, budget, protocol);
        std::string cell = result.ToCell();
        if (result.ok() && result.count != reference_counts[gi]) {
          cell += "!";  // Deviating answer set (openCypher semantics).
        }
        std::printf("  %10s", cell.c_str());
      }
      std::printf("\n");
    }
  }
  std::printf(
      "\n(\"-\" = failed within budget; \"!\" = deviating answer set)\n"
      "expected shape (paper): D completes and is the most robust; P and\n"
      "S fail from moderate sizes on; G deviates (openCypher cannot\n"
      "express inverse/concatenation under a star, paper 7.1).\n");
  return 0;
}
