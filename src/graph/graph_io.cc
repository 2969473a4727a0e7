#include "graph/graph_io.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <istream>
#include <ostream>

#include "util/string_util.h"

namespace gmark {

namespace {
constexpr std::string_view kNodePrefix = "<http://gmark/n";
constexpr std::string_view kPredPrefix = "<http://gmark/p/";
constexpr std::string_view kTypePredicate = "<http://gmark/type>";
constexpr std::string_view kCsvHeader = "source,predicate,target\n";

// The whole-graph writers hand the stream one block each time it passes
// this many bytes.
constexpr size_t kBlockBytes = size_t{64} << 10;
// Decimal digits of UINT64_MAX.
constexpr size_t kMaxIdChars = 20;

char* Put(char* at, std::string_view s) {
  std::memcpy(at, s.data(), s.size());
  return at + s.size();
}

char* PutId(char* at, NodeId id) {
  return std::to_chars(at, at + kMaxIdChars, id).ptr;
}

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
}  // namespace

/// The text of one edge line, `<prefix><source><infix><target><suffix>`,
/// with one infix per predicate. The infixes sit in one string at a
/// fixed stride (the longest, rounded up to 16 bytes) and are copied a
/// whole stride at a time; the target's digits overwrite the padding.
class LineFormat {
 public:
  LineFormat(std::string_view prefix, const std::vector<std::string>& infixes,
             std::string_view suffix)
      : prefix_(prefix), suffix_(suffix) {
    for (const std::string& infix : infixes) {
      stride_ = std::max(stride_, infix.size());
    }
    stride_ = (stride_ + 15) / 16 * 16;
    padded_.assign(infixes.size() * stride_, '\0');
    for (size_t p = 0; p < infixes.size(); ++p) {
      infixes[p].copy(&padded_[p * stride_], infixes[p].size());
      lengths_.push_back(infixes[p].size());
    }
    max_line_ = prefix_.size() + kMaxIdChars + stride_ + kMaxIdChars +
                suffix_.size();
  }

  /// \brief Bytes one line may touch: every line fits at a buffer
  /// position with this many bytes free.
  size_t max_line() const { return max_line_; }

  /// \brief Writes the line at `at` and returns its end.
  char* Format(char* at, NodeId source, PredicateId predicate,
               NodeId target) const {
    at = PutId(Put(at, prefix_), source);
    std::memcpy(at, padded_.data() + predicate * stride_, stride_);
    at = PutId(at + lengths_[predicate], target);
    return Put(at, suffix_);
  }

 private:
  std::string prefix_;
  std::string suffix_;
  std::string padded_;  // Infix p at p * stride_, zero-padded.
  std::vector<size_t> lengths_;
  size_t stride_ = 0;
  size_t max_line_ = 0;
};

namespace {

LineFormat NTriplesFormat(const GraphSchema& schema) {
  return LineFormat(kNodePrefix,
                    PredicateInfixes(schema, StrCat("> ", kPredPrefix),
                                     StrCat("> ", kNodePrefix)),
                    "> .\n");
}

LineFormat CsvFormat(const GraphSchema& schema) {
  return LineFormat("", PredicateInfixes(schema, ",", ","), "\n");
}

/// One reused block of kBlockBytes plus the longest line. Lines are
/// formatted at end(); the block goes to the stream in one `write` each
/// time it passes kBlockBytes, and once more in Finish.
class BlockWriter {
 public:
  BlockWriter(std::ostream* out, size_t max_line)
      : out_(out),
        block_(new char[kBlockBytes + max_line]),
        full_(block_.get() + kBlockBytes),
        end_(block_.get()) {}

  /// \brief Where the next line goes; the longest line fits there.
  char* end() const { return end_; }

  /// \brief Takes the lines formatted up to `end`.
  void Advance(char* end) {
    end_ = end;
    if (end_ >= full_) Write();
  }

  /// \brief Writes what is left, then IOError if any write failed.
  Status Finish() {
    Write();
    if (!*out_) return Status::IOError("stream write failed");
    return Status::OK();
  }

 private:
  void Write() {
    out_->write(block_.get(), end_ - block_.get());
    end_ = block_.get();
  }

  std::ostream* out_;
  std::unique_ptr<char[]> block_;
  char* full_;
  char* end_;
};

// Every edge of the indexed graph, predicate by predicate.
void PutEdges(const Graph& graph, const LineFormat& format,
              BlockWriter* block) {
  for (PredicateId p = 0; p < graph.predicate_count(); ++p) {
    graph.ForEachEdge(p, [&format, block, p](NodeId src, NodeId trg) {
      block->Advance(format.Format(block->end(), src, p, trg));
    });
  }
}

}  // namespace

LineSink::LineSink(std::ostream* out, LineFormat format)
    : out_(out),
      format_(std::make_unique<const LineFormat>(std::move(format))),
      line_(new char[format_->max_line()]) {}

LineSink::~LineSink() = default;

void LineSink::Append(NodeId source, PredicateId predicate, NodeId target) {
  const char* end = format_->Format(line_.get(), source, predicate, target);
  out_->write(line_.get(), end - line_.get());
  ++count_;
}

NTriplesSink::NTriplesSink(std::ostream* out, const GraphSchema* schema)
    : LineSink(out, NTriplesFormat(*schema)) {}

CsvSink::CsvSink(std::ostream* out, const GraphSchema* schema)
    : LineSink(out, CsvFormat(*schema)) {
  out->write(kCsvHeader.data(),
             static_cast<std::streamsize>(kCsvHeader.size()));
}

Status WriteNTriples(const Graph& graph, const GraphSchema& schema,
                     std::ostream* out, bool include_node_types) {
  const LineFormat format = NTriplesFormat(schema);
  // Per type, the text after a node id on its type line.
  std::vector<std::string> type_suffixes;
  size_t max_line = format.max_line();
  if (include_node_types) {
    for (TypeId t = 0; t < schema.type_count(); ++t) {
      type_suffixes.push_back(
          StrCat("> ", kTypePredicate, " \"", schema.TypeName(t), "\" .\n"));
      max_line = std::max(max_line, kNodePrefix.size() + kMaxIdChars +
                                        type_suffixes.back().size());
    }
  }
  BlockWriter block(out, max_line);
  PutEdges(graph, format, &block);
  if (include_node_types) {
    for (NodeId v = 0; v < static_cast<NodeId>(graph.num_nodes()); ++v) {
      char* at = PutId(Put(block.end(), kNodePrefix), v);
      block.Advance(Put(at, type_suffixes[graph.TypeOf(v)]));
    }
  }
  return block.Finish();
}

Status WriteCsv(const Graph& graph, const GraphSchema& schema,
                std::ostream* out) {
  const LineFormat format = CsvFormat(schema);
  BlockWriter block(out, format.max_line());
  block.Advance(Put(block.end(), kCsvHeader));
  PutEdges(graph, format, &block);
  return block.Finish();
}

namespace {

/// Extract the numeric id from "<http://gmark/n123>": decimal digits
/// only, no sign, at most UINT64_MAX.
Result<NodeId> ParseNodeIri(std::string_view token, size_t line_no) {
  if (!StartsWith(token, kNodePrefix) || token.back() != '>') {
    return Status::InvalidArgument(
        StrCat("not a gMark node IRI on line ", line_no, ": ", token));
  }
  const std::string_view digits = token.substr(
      kNodePrefix.size(), token.size() - kNodePrefix.size() - 1);
  const char* end = digits.data() + digits.size();
  NodeId id = 0;
  const std::from_chars_result r = std::from_chars(digits.data(), end, id);
  if (r.ec != std::errc() || r.ptr != end) {
    return Status::InvalidArgument(
        StrCat("bad node id on line ", line_no, ": ", token));
  }
  return id;
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
        tokens[1].substr(kPredPrefix.size(),
                         tokens[1].size() - kPredPrefix.size() - 1);
    GMARK_ASSIGN_OR_RETURN(PredicateId pred,
                           schema.PredicateIdOf(pred_name));
    GMARK_ASSIGN_OR_RETURN(NodeId src, ParseNodeIri(tokens[0], line_no));
    GMARK_ASSIGN_OR_RETURN(NodeId trg, ParseNodeIri(tokens[2], line_no));
    edges.push_back(Edge{src, pred, trg});
  }
  return edges;
}

}  // namespace gmark
