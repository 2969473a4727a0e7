// The NP-hardness construction of Theorem 3.6, instantiated for the
// paper's example formula phi0 = (x1 v -x2 v x3) ^ (-x1 v x3 v -x4).
//
// These tests document two facts about the system: (a) the reduction's
// configuration is expressible in the gMark schema language, and (b)
// the generator honors its design contract of always emitting a graph
// (relaxing constraints) rather than deciding satisfiability — which
// Thm. 3.6 shows would be NP-complete.

#include <gtest/gtest.h>

#include "core/graph_config.h"
#include "parallel/parallel_generator.h"
#include "util/string_util.h"

namespace gmark {
namespace {

// phi0 over variables x1..x4: clause C1 = (x1, -x2, x3),
// clause C2 = (-x1, x3, -x4). Positive occurrences: x1 in C1, x3 in C1
// and C2; negative occurrences: x2 in C1, x1 in C2, x4 in C2.
GraphConfiguration Phi0Config() {
  const int n = 4;  // variables
  const int k = 2;  // clauses
  GraphConfiguration config;
  config.num_nodes = 2 * n + k + 1;  // The reduction's node budget.
  GraphSchema& s = config.schema;

  auto fixed1 = OccurrenceConstraint::Fixed(1);
  EXPECT_TRUE(s.AddType("A", fixed1).ok());
  for (int i = 1; i <= k; ++i) {
    EXPECT_TRUE(s.AddType(StrCat("C", i), fixed1).ok());
  }
  for (int i = 1; i <= n; ++i) {
    EXPECT_TRUE(s.AddType(StrCat("B", i), fixed1).ok());
  }
  // Ti / Fi: at most one of each exists; the proof gives them "?" out
  // of A, so we declare them with one node each (the generator's
  // relaxation decides which get used).
  for (int i = 1; i <= n; ++i) {
    EXPECT_TRUE(s.AddType(StrCat("T", i), fixed1).ok());
    EXPECT_TRUE(s.AddType(StrCat("F", i), fixed1).ok());
  }
  for (int i = 1; i <= k; ++i) {
    EXPECT_TRUE(s.AddPredicate(StrCat("c", i)).ok());
  }
  for (int i = 1; i <= n; ++i) {
    EXPECT_TRUE(s.AddPredicate(StrCat("b", i)).ok());
    EXPECT_TRUE(s.AddPredicate(StrCat("t", i)).ok());
    EXPECT_TRUE(s.AddPredicate(StrCat("f", i)).ok());
  }

  // eta(A, Ti, ti) = eta(A, Fi, fi) = "?".
  for (int i = 1; i <= n; ++i) {
    EXPECT_TRUE(s.AddEdgeOptional("A", StrCat("t", i), StrCat("T", i)).ok());
    EXPECT_TRUE(s.AddEdgeOptional("A", StrCat("f", i), StrCat("F", i)).ok());
  }
  // Positive literal occurrences: eta(Ti, Cl, cl) = 1; plus
  // eta(Ti, Bi, bi) = 1.
  auto one = [&](const std::string& src, const std::string& pred,
                 const std::string& trg) {
    EXPECT_TRUE(s.AddEdgeOne(src, pred, trg).ok());
  };
  one("T1", "c1", "C1");  // x1 in C1
  one("T3", "c1", "C1");  // x3 in C1
  one("T3", "c2", "C2");  // x3 in C2
  one("F2", "c1", "C1");  // -x2 in C1
  one("F1", "c2", "C2");  // -x1 in C2
  one("F4", "c2", "C2");  // -x4 in C2
  for (int i = 1; i <= 4; ++i) {
    one(StrCat("T", i), StrCat("b", i), StrCat("B", i));
    one(StrCat("F", i), StrCat("b", i), StrCat("B", i));
  }
  return config;
}

TEST(SatReductionTest, ConfigurationIsExpressible) {
  GraphConfiguration config = Phi0Config();
  EXPECT_TRUE(config.Validate().ok());
  // 3n + k + 1 types and 3n + k predicates, as in the proof.
  EXPECT_EQ(config.schema.type_count(), 3u * 4 + 2 + 1);
  EXPECT_EQ(config.schema.predicate_count(), 3u * 4 + 2);
}

TEST(SatReductionTest, GeneratorAlwaysEmitsAGraphWithoutBacktracking) {
  // The generator must terminate and produce a graph even though
  // deciding exact satisfaction of this configuration encodes SAT1-in-3
  // (it relaxes; it does not solve NP-complete problems).
  GraphConfiguration config = Phi0Config();
  auto graph = ParallelGenerateGraph(config);
  ASSERT_TRUE(graph.ok()) << graph.status();
  // Every type was allocated its fixed node.
  EXPECT_EQ(graph->num_nodes(), 15);
  // Structural soundness: all bi edges end in the matching Bi node.
  for (int i = 1; i <= 4; ++i) {
    PredicateId bi =
        config.schema.PredicateIdOf(StrCat("b", i)).ValueOrDie();
    TypeId type_bi =
        config.schema.TypeIdOf(StrCat("B", i)).ValueOrDie();
    graph->ForEachEdge(bi, [&](NodeId src, NodeId trg) {
      (void)src;
      EXPECT_EQ(graph->TypeOf(trg), type_bi);
    });
  }
}

TEST(SatReductionTest, RelaxationOverApproximatesValuations) {
  // Because "?" edges from A are drawn independently, the generated
  // graph may encode both Ti and Fi for the same variable — exactly the
  // relaxation the paper accepts in exchange for linear-time
  // generation. We only require the per-constraint degree bound.
  GraphConfiguration config = Phi0Config();
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  TypeId a = config.schema.TypeIdOf("A").ValueOrDie();
  NodeId a_node = graph.layout().GlobalId(a, 0);
  for (int i = 1; i <= 4; ++i) {
    PredicateId ti =
        config.schema.PredicateIdOf(StrCat("t", i)).ValueOrDie();
    EXPECT_LE(graph.OutNeighbors(ti, a_node).size(), 1u);
  }
}

}  // namespace
}  // namespace gmark
