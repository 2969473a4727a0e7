// Fig. 10: evaluation times of a constant, a linear, and a quadratic
// query from the "original" SP2Bench workload (org) versus comparable
// gMark-generated queries of the same shape/size/selectivity, across
// graph sizes.
//
// Substitution note: SP2Bench's own generator and stack
// are proprietary to that benchmark; the "org" side is a fixed set of
// hand-written queries mirroring SP2Bench query shapes per class,
// evaluated on our SP schema encoding. Both sides run on the reference
// evaluator; the figure's claim — generated queries track the
// asymptotic runtime behaviour of the fixed ones — is what we check.

#include <cstdio>

#include "analysis/alpha_lab.h"
#include "bench_util.h"
#include "core/use_cases.h"
#include "engine/evaluator.h"
#include "parallel/parallel_generator.h"
#include "util/timer.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

using namespace gmark;

namespace {

Query BinaryChain(const std::string& name,
                  std::vector<RegularExpression> exprs) {
  Query q;
  q.name = name;
  QueryRule rule;
  for (size_t i = 0; i < exprs.size(); ++i) {
    rule.body.push_back(Conjunct{static_cast<VarId>(i),
                                 static_cast<VarId>(i + 1),
                                 std::move(exprs[i])});
  }
  rule.head = {0, static_cast<VarId>(exprs.size())};
  q.rules = {rule};
  return q;
}

double TimeCount(const Graph& graph, const Query& q) {
  ReferenceEvaluator eval(&graph);
  WallTimer timer;
  auto r = eval.CountDistinct(q);
  if (!r.ok()) return -1.0;
  return timer.ElapsedSeconds();
}

}  // namespace

int main() {
  bench::PrintHeader(
      "Fig. 10: SP2Bench original vs gMark queries, runtime vs size",
      "paper Fig. 10");
  std::vector<int64_t> sizes =
      bench::Sizes({500, 1000, 2000, 4000}, {2000, 4000, 8000, 16000});
  GraphConfiguration base = MakeSpConfig(sizes.front(), 7);
  const GraphSchema& schema = base.schema;
  PredicateId cite = schema.PredicateIdOf("cite").ValueOrDie();
  PredicateId journal = schema.PredicateIdOf("journal").ValueOrDie();
  PredicateId published = schema.PredicateIdOf("publishedBy").ValueOrDie();

  // "Original" SP2Bench-style queries, one per class:
  //   constant — journals of a common publisher (Q-like lookup);
  //   linear   — articles with their journal (SP2Bench Q2 flavour);
  //   quadratic — article pairs citing a common article.
  RegularExpression pub_loop;
  pub_loop.disjuncts = {{Symbol::Fwd(published), Symbol::Inv(published)}};
  Query org_constant = BinaryChain("org-constant", {pub_loop});
  Query org_linear =
      BinaryChain("org-linear", {RegularExpression::Atom(
                                    Symbol::Fwd(journal))});
  RegularExpression co_cite;
  co_cite.disjuncts = {{Symbol::Fwd(cite), Symbol::Inv(cite)}};
  Query org_quadratic = BinaryChain("org-quadratic", {co_cite});
  std::vector<Query> org{org_constant, org_linear, org_quadratic};

  // gMark twins: same shape (chain), same size bounds, same classes.
  QueryGenerator generator(&schema);
  WorkloadConfiguration wconfig =
      MakePresetWorkload(WorkloadPreset::kLen, 3, 17);
  wconfig.size.path_length = IntRange::Between(1, 2);
  auto workload = generator.Generate(wconfig);
  if (!workload.ok()) {
    std::fprintf(stderr, "%s\n", workload.status().ToString().c_str());
    return 1;
  }

  std::printf("%-8s", "size");
  for (const Query& q : org) std::printf("  %14s", q.name.c_str());
  for (const GeneratedQuery& gq : workload->queries) {
    std::printf("  gmark-%-9s", QuerySelectivityName(*gq.target_class));
  }
  std::printf("\n");

  for (int64_t n : sizes) {
    GraphConfiguration config = base;
    config.num_nodes = n;
    auto graph = ParallelGenerateGraph(config);
    if (!graph.ok()) continue;
    std::printf("%-8lld", static_cast<long long>(n));
    for (const Query& q : org) {
      std::printf("  %13.4fs", TimeCount(*graph, q));
    }
    for (const GeneratedQuery& gq : workload->queries) {
      std::printf("  %14.4fs", TimeCount(*graph, gq.query));
    }
    std::printf("\n");
  }
  std::printf(
      "\nexpected shape (paper): each gMark query falls in the same\n"
      "selectivity class as its org counterpart — same asymptotic runtime\n"
      "growth, with quadratic >> linear >= constant at the largest size.\n");
  return 0;
}
