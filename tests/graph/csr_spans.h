// Graph-equality helpers for the CSR build tests. They compare through
// the public neighbor spans: every node of the layout, both directions,
// order included, plus each predicate's edge count. This checks the
// adjacency itself, not how the offsets are stored.

#ifndef GMARK_TESTS_GRAPH_CSR_SPANS_H_
#define GMARK_TESTS_GRAPH_CSR_SPANS_H_

#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "graph/graph.h"

namespace gmark {

inline std::vector<NodeId> SpanVec(std::span<const uint32_t> s) {
  return {s.begin(), s.end()};
}

/// Expect `got` to hold exactly `want`'s adjacency: the same
/// OutNeighbors and InNeighbors span, in order, for every node in
/// [0, num_nodes) of every predicate, and the same edge counts.
inline void ExpectSameAdjacency(const Graph& want, const Graph& got,
                                const std::string& label) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes()) << label;
  ASSERT_EQ(got.predicate_count(), want.predicate_count()) << label;
  EXPECT_EQ(got.num_edges(), want.num_edges()) << label;
  const auto n = static_cast<NodeId>(want.num_nodes());
  for (PredicateId p = 0; p < want.predicate_count(); ++p) {
    EXPECT_EQ(got.EdgeCount(p), want.EdgeCount(p))
        << label << ", predicate " << p;
    for (NodeId v = 0; v < n; ++v) {
      ASSERT_TRUE(std::ranges::equal(got.OutNeighbors(p, v),
                                     want.OutNeighbors(p, v)))
          << label << ", predicate " << p << ", out of node " << v;
      ASSERT_TRUE(std::ranges::equal(got.InNeighbors(p, v),
                                     want.InNeighbors(p, v)))
          << label << ", predicate " << p << ", into node " << v;
    }
  }
}

}  // namespace gmark

#endif  // GMARK_TESTS_GRAPH_CSR_SPANS_H_
