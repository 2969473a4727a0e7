// Golden bytes of every text writer: N-Triples (sink and whole-graph),
// CSV, the workload and configuration XML, Query::ToString, the four
// query translations, and the diagnostics (metrics table, profile line,
// occurrence, graph, schema-graph and consistency reports). Each long
// output is pinned by its byte length and 64-bit FNV-1a hash, each
// short one verbatim, so a single changed byte in any writer fails
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
#include "core/consistency.h"
#include "core/use_cases.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "obs/eval_profile.h"
#include "obs/metrics.h"
#include "parallel/parallel_generator.h"
#include "query/query_xml.h"
#include "selectivity/schema_graph.h"
#include "translate/translator.h"
#include "util/string_util.h"
#include "workload/presets.h"
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

// The configuration GoldenWorkload generates from.
WorkloadConfiguration GoldenWorkloadConfig() {
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
  return w;
}

// 500 queries over every shape and selectivity class, with recursion,
// unions of rules, and arities 0..3 (ASK / nonempty forms included).
Workload GoldenWorkload(const GraphSchema& schema) {
  return QueryGenerator(&schema).Generate(GoldenWorkloadConfig()).ValueOrDie();
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
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  std::ostringstream out;
  EXPECT_TRUE(WriteNTriples(g, config.schema, &out, types).ok());
  return out.str();
}

TEST(OutputGoldenTest, WriteNTriples) {
  EXPECT_EQ(Of(NTriples(BibInstance(), false)),
            (Fingerprint{302810u, 0x2fe99b1611680483ull}));
  EXPECT_EQ(Of(NTriples(BibInstance(), true)),
            (Fingerprint{469300u, 0xf87b0bee839f7b35ull}));
  EXPECT_EQ(Of(NTriples(LsnInstance(), false)),
            (Fingerprint{945132u, 0xffb703e2f410c2b1ull}));
  EXPECT_EQ(Of(NTriples(LsnInstance(), true)),
            (Fingerprint{1113112u, 0x8cdadae911139e28ull}));
}

TEST(OutputGoldenTest, WriteCsv) {
  for (const auto& [config, expected] :
       {std::pair{BibInstance(),
                  Fingerprint{80984u, 0x5ef08894606ed524ull}},
        std::pair{LsnInstance(),
                  Fingerprint{249159u, 0x4cee711513e6fee0ull}}}) {
    Graph g = ParallelGenerateGraph(config).ValueOrDie();
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

TEST(OutputGoldenTest, QueriesToXml) {
  GraphConfiguration bib = BibInstance();
  GraphConfiguration lsn = LsnInstance();
  EXPECT_EQ(Of(QueriesToXml(GoldenWorkload(bib.schema).RawQueries(),
                            bib.schema)),
            (Fingerprint{698423u, 0xbff9d7c236b9d9e3ull}));
  EXPECT_EQ(Of(QueriesToXml(GoldenWorkload(lsn.schema).RawQueries(),
                            lsn.schema)),
            (Fingerprint{892490u, 0x35406a82edba8074ull}));
  EXPECT_EQ(QueriesToXml({}, bib.schema), "<workload/>\n");
}

TEST(OutputGoldenTest, WorkloadConfigToXml) {
  // The golden configuration, every preset, and a name that needs
  // escaping, concatenated.
  WorkloadConfiguration escaped = GoldenWorkloadConfig();
  escaped.name = "a<b>&\"c'";
  escaped.shapes.clear();
  escaped.recursion_probability = 0.125;
  std::string all = WorkloadConfigToXml(GoldenWorkloadConfig()) +
                    WorkloadConfigToXml(escaped);
  for (WorkloadPreset preset : AllWorkloadPresets()) {
    all += WorkloadConfigToXml(MakePresetWorkload(preset));
  }
  EXPECT_EQ(Of(all), (Fingerprint{2830u, 0x6b1af1b2f74a9e7cull}));
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
    all += text.ok() ? text.ValueOrDie()
                     : StrCat("!", text.status().ToString());
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

TEST(OutputGoldenTest, MetricsSnapshotToTable) {
  MetricsSnapshot snap;
  snap.counters = {{"gen.edges", 1234567},
                   {"gen.generate_nanos", 2500000001},
                   {"eval.queries", 0}};
  snap.gauges = {{"gen.peak_shard_edges", 987654321}};
  HistogramSnapshot h;
  h.name = "query.eval_nanos";
  h.count = 7;
  h.sum = 123456;
  h.buckets.assign(MetricRegistry::kHistogramBuckets, 0);
  h.buckets[5] = 2;
  h.buckets[15] = 4;
  h.buckets[17] = 1;
  snap.histograms = {h};
  EXPECT_EQ(snap.ToTable(),
            "  gen.edges             1234567\n"
            "  gen.generate_nanos    2500000001  (2.500s)\n"
            "  eval.queries          0\n"
            "  gen.peak_shard_edges  987654321\n"
            "  query.eval_nanos      count=7 mean=17636.6 p50<=32767 "
            "p99<=32767\n");
  EXPECT_EQ(MetricsSnapshot().ToTable(), "");
}

TEST(OutputGoldenTest, MetricsSnapshotToJsonEscapesNames) {
  MetricsSnapshot snap;
  snap.counters = {{std::string("ctl\x01\x1f\t\"\\x"), 5}};
  EXPECT_EQ(snap.ToJson(),
            "{\n  \"counters\": {\n    \"ctl\\u0001\\u001f\\t\\\"\\\\x\": 5"
            "\n  },\n  \"gauges\": {},\n  \"histograms\": {}\n}\n");
}

TEST(OutputGoldenTest, EvalProfileToString) {
  EvalProfile p;
  p.conjuncts = {{12345, 0.0123456, 3}, {0, 1.5, 0}, {7, 12.0004, 0}};
  p.plan_steps = {{2, 0, true, false, 1234.56, 98765},
                  {0, 1, false, true, -1.0, 0},
                  {1, 2, false, false, 0.04, 12}};
  p.planned = true;
  p.chain_backward = true;
  p.bfs_pops = 4321;
  p.bfs_peak_frontier = 55;
  p.fixpoint_rounds = 3;
  p.peak_tuples = 1000000;
  p.tuples_scanned = 2500000;
  p.tuple_headroom = 123;
  p.over_releases = 2;
  EXPECT_EQ(p.ToString(),
            "peak_tuples=1000000 scanned=2500000 headroom=123 bfs_pops=4321 "
            "peak_frontier=55 fixpoint_rounds=3 over_releases=2 "
            "conjuncts=[12345 rows/0.012s 0 rows/1.500s 7 rows/12.000s] "
            "plan=[#2< est=1234.6 act=98765 #0>~ est=-1.0 act=0 "
            "#1> est=0.0 act=12] chain_backward");
  EXPECT_EQ(EvalProfile().ToString(),
            "peak_tuples=0 scanned=0 headroom=0 conjuncts=[]");
}

TEST(OutputGoldenTest, OccurrenceConstraintToString) {
  EXPECT_EQ(OccurrenceConstraint::Fixed(1234567).ToString(), "fixed(1234567)");
  EXPECT_EQ(OccurrenceConstraint::Proportion(0.5).ToString(), "50%");
  EXPECT_EQ(OccurrenceConstraint::Proportion(1.0 / 3.0).ToString(), "33.3333%");
  EXPECT_EQ(OccurrenceConstraint::Proportion(1e-9).ToString(), "1e-07%");
}

TEST(OutputGoldenTest, GraphStatsToString) {
  GraphConfiguration config = BibInstance();
  Graph g = ParallelGenerateGraph(config).ValueOrDie();
  EXPECT_EQ(Of(ComputeStats(g).ToString(config.schema)),
            (Fingerprint{306u, 0x5a34dcb9a9d1845dull}));
}

TEST(OutputGoldenTest, SchemaGraphToString) {
  GraphConfiguration config = BibInstance();
  EXPECT_EQ(Of(SchemaGraph::Build(config.schema).ToString(config.schema)),
            (Fingerprint{1737u, 0xe86152ddf7702f09ull}));
}

TEST(OutputGoldenTest, ConsistencyReportToString) {
  GraphConfiguration config = BibInstance();
  EXPECT_EQ(Of(CheckConsistency(config).ValueOrDie().ToString()),
            (Fingerprint{483u, 0x6834634cd03ca30cull}));
}

}  // namespace
}  // namespace gmark
