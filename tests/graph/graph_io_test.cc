#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <sstream>

#include "core/use_cases.h"
#include "parallel/parallel_generator.h"

namespace gmark {
namespace {

TEST(GraphIoTest, NTriplesSinkFormat) {
  GraphConfiguration config = MakeBibConfig(1000);
  std::ostringstream out;
  NTriplesSink sink(&out, &config.schema);
  sink.Append(3, 0, 7);
  EXPECT_EQ(out.str(),
            "<http://gmark/n3> <http://gmark/p/authors> <http://gmark/n7> "
            ".\n");
  EXPECT_EQ(sink.count(), 1u);
}

TEST(GraphIoTest, CsvSinkFormat) {
  GraphConfiguration config = MakeBibConfig(1000);
  std::ostringstream out;
  CsvSink sink(&out, &config.schema);
  sink.Append(1, 1, 2);
  EXPECT_EQ(out.str(), "source,predicate,target\n1,publishedIn,2\n");
  EXPECT_EQ(sink.count(), 1u);
}

TEST(GraphIoTest, WriteCsvEmitsHeaderAndEveryEdge) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(g, config.schema, &out).ok());
  size_t rows = 0;
  std::istringstream in(out.str());
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, g.num_edges() + 1);  // Header plus one row per edge.
  EXPECT_EQ(out.str().rfind("source,predicate,target\n", 0), 0u);
}

TEST(GraphIoTest, WriteCsvReportsStreamFailure) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  out.setstate(std::ios::badbit);
  Status st = WriteCsv(g, config.schema, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_TRUE(st.IsIOError()) << st;
}

TEST(GraphIoTest, WriteNTriplesReportsStreamFailure) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  for (bool types : {false, true}) {
    std::ostringstream out;
    out.setstate(std::ios::badbit);
    Status st = WriteNTriples(g, config.schema, &out, types);
    EXPECT_TRUE(st.IsIOError()) << st;
  }
}

TEST(GraphIoTest, NodeIdExtremesAreFormattedExactly) {
  GraphConfiguration config = MakeBibConfig(100);
  std::ostringstream nt, csv;
  NTriplesSink nt_sink(&nt, &config.schema);
  nt_sink.Append(0, 0, UINT64_MAX);
  nt_sink.Append(UINT64_MAX, 1, 0);
  EXPECT_EQ(nt.str(),
            "<http://gmark/n0> <http://gmark/p/authors> "
            "<http://gmark/n18446744073709551615> .\n"
            "<http://gmark/n18446744073709551615> "
            "<http://gmark/p/publishedIn> <http://gmark/n0> .\n");
  CsvSink csv_sink(&csv, &config.schema);
  csv_sink.Append(UINT64_MAX, 0, 0);
  csv_sink.Append(0, 1, UINT64_MAX);
  EXPECT_EQ(csv.str(),
            "source,predicate,target\n"
            "18446744073709551615,authors,0\n"
            "0,publishedIn,18446744073709551615\n");
}

TEST(GraphIoTest, NTriplesRoundTripPreservesEdges) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(WriteNTriples(g, config.schema, &out).ok());
  std::istringstream in(out.str());
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(edges->size(), g.num_edges());
  // Rebuild and compare per-predicate counts.
  Graph g2 = Graph::Build(g.layout(), config.schema.predicate_count(),
                          std::move(*edges))
                 .ValueOrDie();
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    EXPECT_EQ(g.EdgeCount(p), g2.EdgeCount(p));
  }
}

TEST(GraphIoTest, TypeTriplesAreWrittenAndSkippedOnRead) {
  GraphConfiguration config = MakeBibConfig(500, 3);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  ASSERT_TRUE(
      WriteNTriples(g, config.schema, &out, /*include_node_types=*/true)
          .ok());
  EXPECT_NE(out.str().find("<http://gmark/type>"), std::string::npos);
  EXPECT_NE(out.str().find("\"researcher\""), std::string::npos);
  std::istringstream in(out.str());
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(edges->size(), g.num_edges());
}

TEST(GraphIoTest, RoundTripSurvivesMultiWordTypeNames) {
  // A type name containing a space splits its type triple into more
  // than four tokens; the reader must skip type triples before the
  // token-count shape check or it rejects files the writer produced.
  // A 1000-character predicate checks that no line is cut at a fixed
  // buffer size.
  const std::string cites(1000, 'c');
  GraphConfiguration config;
  config.num_nodes = 40;
  config.seed = 5;
  GraphSchema& s = config.schema;
  ASSERT_TRUE(s.AddType("white paper", OccurrenceConstraint::Fixed(20)).ok());
  ASSERT_TRUE(
      s.AddType("review board", OccurrenceConstraint::Fixed(20)).ok());
  ASSERT_TRUE(s.AddPredicate(cites).ok());
  ASSERT_TRUE(s.AddEdgeConstraintByName(
                   "white paper", cites, "review board",
                   DistributionSpec::NonSpecified(),
                   DistributionSpec::Uniform(1, 3))
                  .ok());
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  ASSERT_GT(g.num_edges(), 0u);
  std::ostringstream out;
  ASSERT_TRUE(
      WriteNTriples(g, config.schema, &out, /*include_node_types=*/true)
          .ok());
  ASSERT_NE(out.str().find("\"white paper\""), std::string::npos);
  ASSERT_NE(out.str().find("<http://gmark/p/" + cites + "> "),
            std::string::npos);
  std::istringstream in(out.str());
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  std::vector<Edge> written;
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    g.ForEachEdge(p, [&](NodeId src, NodeId trg) {
      written.push_back(Edge{src, p, trg});
    });
  }
  EXPECT_EQ(*edges, written);
}

TEST(GraphIoTest, ReadSkipsCommentsAndBlankLines) {
  GraphConfiguration config = MakeBibConfig(100);
  std::istringstream in(
      "# comment\n\n"
      "<http://gmark/n1> <http://gmark/p/authors> <http://gmark/n2> .\n");
  auto edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok());
  ASSERT_EQ(edges->size(), 1u);
  EXPECT_EQ((*edges)[0], (Edge{1, 0, 2}));
}

TEST(GraphIoTest, ReadRejectsMalformedLines) {
  GraphConfiguration config = MakeBibConfig(100);
  {
    std::istringstream in("<http://gmark/n1> <http://gmark/p/authors>\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    // Truncated type triples are corruption, not skippable noise.
    std::istringstream in("<http://gmark/n1> <http://gmark/type>\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    std::istringstream in(
        "<http://gmark/n1> <http://gmark/type> \"researcher\"\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    std::istringstream in(
        "<http://gmark/n1> <http://gmark/p/unknownPred> <http://gmark/n2> "
        ".\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
  {
    std::istringstream in(
        "<bad> <http://gmark/p/authors> <http://gmark/n2> .\n");
    EXPECT_FALSE(ReadNTriples(&in, config.schema).ok());
  }
}

}  // namespace
}  // namespace gmark
