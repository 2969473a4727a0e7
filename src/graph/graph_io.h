// Graph instance serialization (Fig. 1: "Graph instance file").
// Supported formats: N-triples (the paper's data format for SPARQL
// systems) and a plain CSV edge list.

#ifndef GMARK_GRAPH_GRAPH_IO_H_
#define GMARK_GRAPH_GRAPH_IO_H_

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "core/graph_config.h"
#include "graph/generator.h"
#include "graph/graph.h"
#include "util/result.h"

namespace gmark {

/// The text of one edge line; defined in graph_io.cc and shared by the
/// sinks and the whole-graph writers, so both produce the same bytes.
class LineFormat;

/// \brief Base of the text sinks. Each edge becomes one line
/// `<prefix><source><infix><target><suffix>`, where the infix is fixed
/// per predicate when the sink is built. Ids are formatted with
/// std::to_chars, so the bytes never depend on the stream's locale or
/// format flags. Append formats the line into a buffer of the sink's
/// own, sized for the longest line, and hands it to the stream in one
/// `write`, so the stream holds every line as soon as Append returns.
/// Stream errors are the caller's to check (e.g. by testing the stream
/// after a drain); the sink itself only counts what it emitted.
class LineSink : public EdgeSink {
 public:
  ~LineSink() override;
  void Append(NodeId source, PredicateId predicate, NodeId target) override;
  size_t count() const override { return count_; }

 protected:
  LineSink(std::ostream* out, LineFormat format);

 private:
  std::ostream* out_;
  std::unique_ptr<const LineFormat> format_;
  std::unique_ptr<char[]> line_;  // Room for the longest line.
  size_t count_ = 0;
};

/// \brief Sink that streams edges as N-triples, e.g.
/// `<http://gmark/n12> <http://gmark/p/authors> <http://gmark/n7> .`
class NTriplesSink : public LineSink {
 public:
  /// \brief `schema` supplies the predicate names, read here.
  NTriplesSink(std::ostream* out, const GraphSchema* schema);
};

/// \brief Sink that streams edges as `source,predicate,target` CSV rows
/// with a header, using predicate names.
class CsvSink : public LineSink {
 public:
  CsvSink(std::ostream* out, const GraphSchema* schema);
};

/// \brief Write an indexed graph as N-triples, plus one
/// `<node> <http://gmark/type> "<typename>" .` triple per node when
/// `include_node_types`: the bytes NTriplesSink gives for every edge,
/// predicate by predicate, then the type triples in node order. The
/// lines are formatted into one reused 64 KB block that goes to the
/// stream in one `write` each time it fills, and once at the end. The
/// stream is tested after that last write: IOError if any write failed
/// (a failed stream skips every later write). As with the sinks, the
/// bytes do not depend on the stream's locale or format flags.
Status WriteNTriples(const Graph& graph, const GraphSchema& schema,
                     std::ostream* out, bool include_node_types = false);

/// \brief Write an indexed graph as a CSV edge list (header row plus one
/// `source,predicate,target` row per edge): the bytes CsvSink gives,
/// written in 64 KB blocks and tested for failure as WriteNTriples does.
Status WriteCsv(const Graph& graph, const GraphSchema& schema,
                std::ostream* out);

/// \brief Parse the N-triples dialect produced by NTriplesSink back into
/// an edge list (type triples are skipped). A node id is decimal digits
/// that fit a NodeId; anything else (a sign, no digits, an overflow) is
/// InvalidArgument naming the line.
Result<std::vector<Edge>> ReadNTriples(std::istream* in,
                                       const GraphSchema& schema);

}  // namespace gmark

#endif  // GMARK_GRAPH_GRAPH_IO_H_
