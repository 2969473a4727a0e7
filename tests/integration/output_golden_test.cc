// Golden bytes of every text writer: N-Triples (sink and whole-graph),
// CSV, the workload and configuration XML, Query::ToString, and the
// four query translations. Each output is pinned by its byte length and
// 64-bit FNV-1a hash, so a single changed byte in any writer fails
// here; the format tests elsewhere only check short samples or
// substrings. The constants must never be regenerated to make a writer
// change pass: a writer rewrite has to reproduce them.

#include <gtest/gtest.h>

#include <cstdint>
#include <iomanip>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <string_view>

#include "core/config_xml.h"
#include "core/use_cases.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "parallel/parallel_generator.h"
#include "translate/translator.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

struct Fingerprint {
  uint64_t bytes = 0;
  uint64_t fnv = 0;
  bool operator==(const Fingerprint&) const = default;
};

// Printed in the form the expectations below are written in.
std::ostream& operator<<(std::ostream& os, const Fingerprint& f) {
  return os << "{" << f.bytes << "u, 0x" << std::hex << std::setw(16)
            << std::setfill('0') << f.fnv << std::dec << "ull}";
}

Fingerprint Of(std::string_view s) {
  uint64_t h = 14695981039346656037ull;  // FNV-1a 64 offset basis.
  for (unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;  // FNV-1a 64 prime.
  }
  return Fingerprint{s.size(), h};
}

GraphConfiguration BibInstance() { return MakeBibConfig(3000, 11); }
GraphConfiguration LsnInstance() { return MakeLsnConfig(3000, 13); }

// 500 queries over every shape and selectivity class, with recursion,
// unions of rules, and arities 0..3 (ASK / nonempty forms included).
Workload GoldenWorkload(const GraphSchema& schema) {
  WorkloadConfiguration w;
  w.name = "golden";
  w.num_queries = 500;
  w.seed = 19;
  w.arity = IntRange::Between(0, 3);
  w.shapes = {QueryShape::kChain, QueryShape::kStar, QueryShape::kCycle,
              QueryShape::kStarChain};
  w.selectivities = {QuerySelectivity::kConstant, QuerySelectivity::kLinear,
                     QuerySelectivity::kQuadratic};
  w.recursion_probability = 0.3;
  w.size.rules = IntRange::Between(1, 2);
  w.size.conjuncts = IntRange::Between(1, 4);
  w.size.disjuncts = IntRange::Between(1, 3);
  w.size.path_length = IntRange::Between(1, 3);
  return QueryGenerator(&schema).Generate(w).ValueOrDie();
}

TEST(OutputGoldenTest, WorkloadReachesEveryFormattingBranch) {
  // The pins below are only as strong as the workload is varied.
  GraphConfiguration config = BibInstance();
  const Workload workload = GoldenWorkload(config.schema);
  std::set<size_t> arities;
  std::set<QueryShape> shapes;
  bool unions = false, stars = false, inverses = false;
  for (const GeneratedQuery& gq : workload.queries) {
    arities.insert(gq.query.arity());
    shapes.insert(gq.shape);
    unions = unions || gq.query.rules.size() > 1;
    for (const QueryRule& rule : gq.query.rules) {
      for (const Conjunct& c : rule.body) {
        stars = stars || c.expr.star;
        for (const PathExpr& path : c.expr.disjuncts) {
          for (const Symbol& s : path) inverses = inverses || s.inverse;
        }
      }
    }
  }
  EXPECT_EQ(arities, (std::set<size_t>{0, 1, 2, 3}));
  EXPECT_EQ(shapes.size(), 4u);
  EXPECT_TRUE(unions);
  EXPECT_TRUE(stars);
  EXPECT_TRUE(inverses);
  EXPECT_FALSE(workload.skipped.empty());  // <skipped> text nodes.
}

std::string NTriples(const GraphConfiguration& config, bool types) {
  Graph g = GenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  EXPECT_TRUE(WriteNTriples(g, config.schema, &out, types).ok());
  return out.str();
}

TEST(OutputGoldenTest, WriteNTriples) {
  EXPECT_EQ(Of(NTriples(BibInstance(), false)),
            (Fingerprint{302813u, 0xb51c5f34ab3cfa35ull}));
  EXPECT_EQ(Of(NTriples(BibInstance(), true)),
            (Fingerprint{469303u, 0x735c71de0633db97ull}));
  EXPECT_EQ(Of(NTriples(LsnInstance(), false)),
            (Fingerprint{958800u, 0xac31974d756ace2cull}));
  EXPECT_EQ(Of(NTriples(LsnInstance(), true)),
            (Fingerprint{1126780u, 0x912321d345b2972dull}));
}

TEST(OutputGoldenTest, WriteCsv) {
  for (const auto& [config, expected] :
       {std::pair{BibInstance(),
                  Fingerprint{80987u, 0x2977fd02d0456a86ull}},
        std::pair{LsnInstance(),
                  Fingerprint{252219u, 0xba22e336991dbda7ull}}}) {
    Graph g = GenerateGraph(config).ValueOrDie();
    std::ostringstream out;
    ASSERT_TRUE(WriteCsv(g, config.schema, &out).ok());
    EXPECT_EQ(Of(out.str()), expected);
  }
}

TEST(OutputGoldenTest, NTriplesSinkFromParallelGenerator) {
  // Small chunks so the parallel generator splits the work.
  for (int threads : {1, 2}) {
    SCOPED_TRACE(threads);
    for (const auto& [config, expected] :
         {std::pair{BibInstance(),
                    Fingerprint{302792u, 0x8ca9775d9a57e594ull}},
          std::pair{LsnInstance(),
                    Fingerprint{951910u, 0x4c959a8479d2c8bdull}}}) {
      GeneratorOptions options;
      options.num_threads = threads;
      options.chunk_size = 512;
      std::ostringstream out;
      NTriplesSink sink(&out, &config.schema);
      ASSERT_TRUE(ParallelGenerateToSink(config, &sink, options).ok());
      EXPECT_EQ(Of(out.str()), expected);
    }
  }
}

TEST(OutputGoldenTest, WorkloadToXml) {
  GraphConfiguration bib = BibInstance();
  GraphConfiguration lsn = LsnInstance();
  EXPECT_EQ(Of(GoldenWorkload(bib.schema).ToXml(bib.schema)),
            (Fingerprint{700078u, 0x449a6243a48e5f7bull}));
  EXPECT_EQ(Of(GoldenWorkload(lsn.schema).ToXml(lsn.schema)),
            (Fingerprint{894211u, 0x6c1f315a820ba93full}));
}

TEST(OutputGoldenTest, GraphConfigToXml) {
  EXPECT_EQ(Of(GraphConfigToXml(BibInstance())),
            (Fingerprint{1435u, 0xb003128da4ac9e8full}));
  EXPECT_EQ(Of(GraphConfigToXml(LsnInstance())),
            (Fingerprint{3530u, 0xd0672efb1ddf49b3ull}));
}

TEST(OutputGoldenTest, QueryToString) {
  GraphConfiguration config = BibInstance();
  std::string all;
  for (const GeneratedQuery& gq : GoldenWorkload(config.schema).queries) {
    all += gq.query.ToString(config.schema);
  }
  EXPECT_EQ(Of(all), (Fingerprint{100284u, 0x001008c622cd29f1ull}));
}

// Every query of the workload in one language, concatenated; a query the
// dialect cannot express contributes its status message instead.
std::string TranslateAll(const Workload& workload, const GraphSchema& schema,
                         QueryLanguage lang, bool count_distinct) {
  TranslateOptions options;
  options.count_distinct = count_distinct;
  std::string all;
  for (const GeneratedQuery& gq : workload.queries) {
    Result<std::string> text = TranslateQuery(gq.query, schema, lang, options);
    all += text.ok() ? text.ValueOrDie() : "!" + text.status().ToString();
    all += '\n';
  }
  return all;
}

TEST(OutputGoldenTest, TranslateQuery) {
  struct Case {
    QueryLanguage lang;
    bool count_distinct;
    Fingerprint expected;
  };
  const Case cases[] = {
      {QueryLanguage::kSparql, false, {201356u, 0x95085720474b93ffull}},
      {QueryLanguage::kSparql, true, {214846u, 0x6e6bc6a4d60e27d3ull}},
      {QueryLanguage::kOpenCypher, false, {341605u, 0x237ea6e7266eb510ull}},
      {QueryLanguage::kOpenCypher, true, {352965u, 0x74d9dd8436ad7719ull}},
      {QueryLanguage::kSql, false, {623111u, 0x6d5b51c19fd2b59bull}},
      {QueryLanguage::kSql, true, {635181u, 0x460178b72b776518ull}},
      {QueryLanguage::kDatalog, false, {334192u, 0x1f9be6e3bf3e36afull}},
      {QueryLanguage::kDatalog, true, {357453u, 0x5d16751d16eaac39ull}},
  };
  GraphConfiguration config = BibInstance();
  const Workload workload = GoldenWorkload(config.schema);
  for (const Case& c : cases) {
    SCOPED_TRACE(std::string(QueryLanguageName(c.lang)) +
                 (c.count_distinct ? " count_distinct" : ""));
    EXPECT_EQ(Of(TranslateAll(workload, config.schema, c.lang,
                              c.count_distinct)),
              c.expected);
  }
}

}  // namespace
}  // namespace gmark
