#include "graph/graph_io.h"

#include <istream>
#include <ostream>

#include "util/string_util.h"

namespace gmark {

namespace {
constexpr char kNodePrefix[] = "<http://gmark/n";
constexpr char kPredPrefix[] = "<http://gmark/p/";
constexpr char kTypePredicate[] = "<http://gmark/type>";
constexpr std::string_view kCsvHeader = "source,predicate,target\n";

// Per predicate, the text between two ids: StrCat(before, name, after).
std::vector<std::string> PredicateInfixes(const GraphSchema& schema,
                                          std::string_view before,
                                          std::string_view after) {
  std::vector<std::string> infixes;
  infixes.reserve(schema.predicate_count());
  for (PredicateId p = 0; p < schema.predicate_count(); ++p) {
    infixes.push_back(StrCat(before, schema.PredicateName(p), after));
  }
  return infixes;
}

// Stream every edge of the indexed graph into the sink, predicate by
// predicate.
void AppendEdges(const Graph& graph, EdgeSink* sink) {
  for (PredicateId p = 0; p < graph.predicate_count(); ++p) {
    graph.ForEachEdge(
        p, [sink, p](NodeId src, NodeId trg) { sink->Append(src, p, trg); });
  }
}
}  // namespace

LineSink::LineSink(std::ostream* out, std::string prefix,
                   std::vector<std::string> infixes, std::string suffix)
    : out_(out),
      prefix_(std::move(prefix)),
      infixes_(std::move(infixes)),
      suffix_(std::move(suffix)) {}

void LineSink::Append(NodeId source, PredicateId predicate, NodeId target) {
  line_.assign(prefix_);
  StrAppend(&line_, source, infixes_[predicate], target, suffix_);
  out_->write(line_.data(), static_cast<std::streamsize>(line_.size()));
  ++count_;
}

NTriplesSink::NTriplesSink(std::ostream* out, const GraphSchema* schema)
    : LineSink(out, kNodePrefix,
               PredicateInfixes(*schema, StrCat("> ", kPredPrefix),
                                StrCat("> ", kNodePrefix)),
               "> .\n") {}

CsvSink::CsvSink(std::ostream* out, const GraphSchema* schema)
    : LineSink(out, "", PredicateInfixes(*schema, ",", ","), "\n") {
  out->write(kCsvHeader.data(),
             static_cast<std::streamsize>(kCsvHeader.size()));
}

Status WriteNTriples(const Graph& graph, const GraphSchema& schema,
                     std::ostream* out, bool include_node_types) {
  NTriplesSink sink(out, &schema);
  AppendEdges(graph, &sink);
  if (include_node_types) {
    std::string line;
    for (NodeId v = 0; v < static_cast<NodeId>(graph.num_nodes()); ++v) {
      line.assign(kNodePrefix);
      StrAppend(&line, v, "> ", kTypePredicate, " \"",
                schema.TypeName(graph.TypeOf(v)), "\" .\n");
      out->write(line.data(), static_cast<std::streamsize>(line.size()));
    }
  }
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

Status WriteCsv(const Graph& graph, const GraphSchema& schema,
                std::ostream* out) {
  CsvSink sink(out, &schema);
  AppendEdges(graph, &sink);
  if (!*out) return Status::IOError("stream write failed");
  return Status::OK();
}

namespace {

/// Extract the numeric id from "<http://gmark/n123>".
Result<NodeId> ParseNodeIri(const std::string& token) {
  if (!StartsWith(token, kNodePrefix) || token.back() != '>') {
    return Status::InvalidArgument("not a gMark node IRI: " + token);
  }
  std::string digits =
      token.substr(sizeof(kNodePrefix) - 1,
                   token.size() - sizeof(kNodePrefix));
  GMARK_ASSIGN_OR_RETURN(int64_t id, ParseInt(digits));
  return static_cast<NodeId>(id);
}

}  // namespace

Result<std::vector<Edge>> ReadNTriples(std::istream* in,
                                       const GraphSchema& schema) {
  std::vector<Edge> edges;
  std::string line;
  size_t line_no = 0;
  while (std::getline(*in, line)) {
    ++line_no;
    std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::vector<std::string> tokens = Split(trimmed, ' ');
    // Type triples carry a quoted type name, which may itself contain
    // spaces and split into extra tokens — so they must be recognized
    // before the 4-token shape check. Only well-terminated ones are
    // skipped; a truncated type line is still a malformed file.
    if (tokens.size() >= 2 && tokens[1] == kTypePredicate) {
      if (tokens.size() >= 4 && tokens.back() == ".") continue;
      return Status::InvalidArgument("malformed type triple on line " +
                                     std::to_string(line_no));
    }
    if (tokens.size() < 4 || tokens[3] != ".") {
      return Status::InvalidArgument("malformed N-triples line " +
                                     std::to_string(line_no));
    }
    if (!StartsWith(tokens[1], kPredPrefix) || tokens[1].back() != '>') {
      return Status::InvalidArgument("unknown predicate IRI on line " +
                                     std::to_string(line_no));
    }
    std::string pred_name =
        tokens[1].substr(sizeof(kPredPrefix) - 1,
                         tokens[1].size() - sizeof(kPredPrefix));
    GMARK_ASSIGN_OR_RETURN(PredicateId pred,
                           schema.PredicateIdOf(pred_name));
    GMARK_ASSIGN_OR_RETURN(NodeId src, ParseNodeIri(tokens[0]));
    GMARK_ASSIGN_OR_RETURN(NodeId trg, ParseNodeIri(tokens[2]));
    edges.push_back(Edge{src, pred, trg});
  }
  return edges;
}

}  // namespace gmark
