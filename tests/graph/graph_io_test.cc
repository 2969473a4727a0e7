#include "graph/graph_io.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "core/use_cases.h"
#include "parallel/parallel_generator.h"
#include "util/string_util.h"

namespace gmark {
namespace {

// Two types of `per_type` nodes with multi-word names, joined by one
// predicate whose name is 1000 'c's.
GraphConfiguration LongNameConfig(int64_t per_type) {
  const std::string cites(1000, 'c');
  GraphConfiguration config;
  config.num_nodes = 2 * per_type;
  config.seed = 5;
  GraphSchema& s = config.schema;
  EXPECT_TRUE(
      s.AddType("white paper", OccurrenceConstraint::Fixed(per_type)).ok());
  EXPECT_TRUE(
      s.AddType("review board", OccurrenceConstraint::Fixed(per_type)).ok());
  EXPECT_TRUE(s.AddPredicate(cites).ok());
  EXPECT_TRUE(s.AddEdgeConstraintByName(
                   "white paper", cites, "review board",
                   DistributionSpec::NonSpecified(),
                   DistributionSpec::Uniform(1, 3))
                  .ok());
  return config;
}

// Every edge of `g` through `sink`, predicate by predicate.
void AppendAll(const Graph& g, EdgeSink* sink) {
  for (PredicateId p = 0; p < g.predicate_count(); ++p) {
    g.ForEachEdge(p, [&](NodeId src, NodeId trg) {
      sink->Append(src, p, trg);
    });
  }
}

// What NTriplesSink gives for every edge, then (with `types`) each
// node's type triple in node order.
std::string SinkNTriples(const Graph& g, const GraphSchema& schema,
                         bool types) {
  std::ostringstream out;
  NTriplesSink sink(&out, &schema);
  AppendAll(g, &sink);
  EXPECT_EQ(sink.count(), g.num_edges());
  for (NodeId v = 0; types && v < static_cast<NodeId>(g.num_nodes()); ++v) {
    out << StrCat("<http://gmark/n", v, "> <http://gmark/type> \"",
                  schema.TypeName(g.TypeOf(v)), "\" .\n");
  }
  return out.str();
}

// What CsvSink gives: its header, then every edge.
std::string SinkCsv(const Graph& g, const GraphSchema& schema) {
  std::ostringstream out;
  CsvSink sink(&out, &schema);
  AppendAll(g, &sink);
  return out.str();
}

// Accepts the first `limit` bytes, then fails every write. Records the
// size of each write it is handed.
class FailingBuf : public std::streambuf {
 public:
  explicit FailingBuf(size_t limit) : limit_(limit) {}
  size_t accepted() const { return accepted_; }
  const std::vector<size_t>& writes() const { return writes_; }

 protected:
  std::streamsize xsputn(const char*, std::streamsize n) override {
    writes_.push_back(static_cast<size_t>(n));
    const size_t take =
        std::min(static_cast<size_t>(n), limit_ - accepted_);
    accepted_ += take;
    return static_cast<std::streamsize>(take);
  }
  int_type overflow(int_type ch) override {
    if (accepted_ == limit_) return traits_type::eof();
    ++accepted_;
    return traits_type::not_eof(ch);
  }

 private:
  size_t limit_;
  size_t accepted_ = 0;
  std::vector<size_t> writes_;
};

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

TEST(GraphIoTest, WritersMatchTheSinksByteForByte) {
  // Bib 20k spans dozens of 64 KB blocks; each line of the long-name
  // schema holds a 1000-character predicate IRI, so blocks end mid-way
  // through its lines.
  for (const GraphConfiguration& config :
       {MakeBibConfig(20000, 3), LongNameConfig(200)}) {
    Graph g = ParallelGenerateGraph(config).ValueOrDie();
    for (bool types : {false, true}) {
      SCOPED_TRACE(types);
      std::ostringstream out;
      ASSERT_TRUE(WriteNTriples(g, config.schema, &out, types).ok());
      EXPECT_GT(out.str().size(), size_t{6} << 16);
      EXPECT_EQ(out.str(), SinkNTriples(g, config.schema, types));
    }
    std::ostringstream csv;
    ASSERT_TRUE(WriteCsv(g, config.schema, &csv).ok());
    EXPECT_EQ(csv.str(), SinkCsv(g, config.schema));
  }
}

TEST(GraphIoTest, WritersHandTheStreamWholeBlocks) {
  GraphConfiguration config = MakeBibConfig(5000, 3);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  FailingBuf buf(SIZE_MAX);
  std::ostream out(&buf);
  ASSERT_TRUE(WriteNTriples(g, config.schema, &out).ok());
  ASSERT_GT(buf.writes().size(), 2u);
  // Every write but the last is one block: 64 KB plus less than a line.
  for (size_t i = 0; i + 1 < buf.writes().size(); ++i) {
    EXPECT_GE(buf.writes()[i], size_t{1} << 16);
    EXPECT_LT(buf.writes()[i], (size_t{1} << 16) + 200);
  }
}

TEST(GraphIoTest, WritersReportAStreamThatFailsMidWrite) {
  GraphConfiguration config = MakeBibConfig(5000, 3);
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  for (bool types : {false, true}) {
    FailingBuf buf(100000);
    std::ostream out(&buf);
    Status st = WriteNTriples(g, config.schema, &out, types);
    EXPECT_TRUE(st.IsIOError()) << st;
    // The first block went through, the second only in part.
    EXPECT_EQ(buf.accepted(), 100000u);
  }
  FailingBuf buf(100000);
  std::ostream out(&buf);
  Status st = WriteCsv(g, config.schema, &out);
  EXPECT_TRUE(st.IsIOError()) << st;
  EXPECT_EQ(buf.accepted(), 100000u);
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
  const GraphConfiguration config = LongNameConfig(20);
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

TEST(GraphIoTest, ReadRejectsSignedEmptyAndOverflowingIds) {
  GraphConfiguration config = MakeBibConfig(100);
  const std::string good =
      "<http://gmark/n1> <http://gmark/p/authors> <http://gmark/n2> .\n";
  for (const char* id :
       {"-5", "+7", "", "18446744073709551616", "1x"}) {
    SCOPED_TRACE(id);
    std::istringstream in(good + "<http://gmark/n" + id +
                          "> <http://gmark/p/authors> <http://gmark/n2> .\n");
    Result<std::vector<Edge>> edges = ReadNTriples(&in, config.schema);
    ASSERT_FALSE(edges.ok());
    EXPECT_TRUE(edges.status().IsInvalidArgument()) << edges.status();
    EXPECT_NE(edges.status().message().find("line 2"), std::string::npos)
        << edges.status();
  }
}

TEST(GraphIoTest, ReadAcceptsTheExtremeIdsTheSinkWrites) {
  GraphConfiguration config = MakeBibConfig(100);
  std::ostringstream out;
  NTriplesSink sink(&out, &config.schema);
  sink.Append(0, 0, UINT64_MAX);
  sink.Append(UINT64_MAX, 1, 0);
  std::istringstream in(out.str());
  Result<std::vector<Edge>> edges = ReadNTriples(&in, config.schema);
  ASSERT_TRUE(edges.ok()) << edges.status();
  EXPECT_EQ(*edges, (std::vector<Edge>{{0, 0, UINT64_MAX},
                                       {UINT64_MAX, 1, 0}}));
}

}  // namespace
}  // namespace gmark
