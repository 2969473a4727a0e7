// Every text writer formats numbers itself, so its output is the same
// bytes whatever locale or format flags the stream (or the process)
// carries. A digit-grouping numpunct facet is the classic way to break
// this: `<http://gmark/n12,345>` is no longer an IRI, and a CSV row
// `1,234,567,publishedIn,2` has five columns, and `"peak_tuples":
// 4,3,2,1` is no longer JSON. The diagnostics (metrics, traces,
// profiles, reports) are held to the same rule as the artifacts.

#include <gtest/gtest.h>

#include <locale>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/runner.h"
#include "core/config_xml.h"
#include "core/consistency.h"
#include "core/use_cases.h"
#include "graph/graph_io.h"
#include "graph/stats.h"
#include "obs/eval_profile.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parallel/parallel_generator.h"
#include "query/query_xml.h"
#include "selectivity/schema_graph.h"
#include "translate/translator.h"
#include "workload/presets.h"
#include "workload/query_generator.h"

namespace gmark {
namespace {

// Groups every digit, so even two-digit numbers change when a writer
// lets the stream format them ("e1,2", "_a1,0", "h1,1").
struct GroupEveryDigit : std::numpunct<char> {
  char do_thousands_sep() const override { return ','; }
  std::string do_grouping() const override { return "\1"; }
};

std::locale GroupingLocale() {
  return std::locale(std::locale::classic(), new GroupEveryDigit);
}

// A chain of twelve conjuncts whose first path has twelve symbols,
// projecting all thirteen variables: conjunct, anonymous-node, alias and
// head-variable numbers all reach two digits in every language.
Query WideQuery() {
  QueryRule rule;
  for (VarId v = 0; v < 12; ++v) {
    Conjunct c;
    c.source = v;
    c.target = v + 1;
    c.expr.disjuncts = {{Symbol::Fwd(0), Symbol::Inv(1)}};
    if (v == 0) c.expr.disjuncts = {PathExpr(12, Symbol::Fwd(0))};
    c.expr.star = (v == 5);
    rule.body.push_back(c);
  }
  for (VarId v = 0; v <= 12; ++v) rule.head.push_back(v);
  Query q;
  q.name = "wide";
  q.rules = {rule, rule};
  return q;
}

// Sets the global locale for its lifetime, restoring the previous one.
class ScopedGlobalLocale {
 public:
  explicit ScopedGlobalLocale(const std::locale& loc)
      : previous_(std::locale::global(loc)) {}
  ~ScopedGlobalLocale() { std::locale::global(previous_); }

 private:
  std::locale previous_;
};

// Metrics whose every number has at least two digits.
MetricsSnapshot WideSnapshot() {
  MetricsSnapshot snap;
  snap.counters = {{"gen.total_edges", 12345},
                   {"gen.generate_nanos", 1234567890123}};
  snap.gauges = {{"gen.peak_shard_edges", 98765}};
  HistogramSnapshot h;
  h.name = "query.eval_nanos";
  h.count = 4321;
  h.sum = 987654321;
  h.buckets.assign(MetricRegistry::kHistogramBuckets, 0);
  h.buckets[12] = 4000;
  h.buckets[20] = 321;
  snap.histograms = {h};
  return snap;
}

EvalProfile WideProfile() {
  EvalProfile p;
  p.conjuncts = {{123456, 1234.5678, 12}, {10, 0.25, 0}};
  p.plan_steps = {{11, 10, true, true, 12345.6, 654321},
                  {10, 11, false, false, -1.0, 10}};
  p.planned = true;
  p.chain_backward = true;
  p.bfs_pops = 4321;
  p.bfs_peak_frontier = 1234;
  p.fixpoint_rounds = 12;
  p.peak_tuples = 4321;
  p.tuples_scanned = 123456789;
  p.tuple_headroom = 99999;
  p.over_releases = 10;
  return p;
}

// Every diagnostic writer on fixed inputs. The trace goes into
// `trace_out`, a stream made like the artifacts' ones; the other
// writers return strings, so only the global locale can reach them.
std::string RenderDiagnostics(const GraphConfiguration& config,
                              const Graph& graph,
                              const std::vector<Query>& queries,
                              std::ostream* trace_out) {
  const GraphSchema& schema = config.schema;
  std::string all = WideSnapshot().ToJson() + WideSnapshot().ToTable();
  Tracer tracer(1);
  tracer.AddCompleteEvent({"gen.generate", "gen", 12345678, 2500000, 12,
                           {{"edges", "123456"}, {"use_case", "Bib"}}});
  tracer.AddCompleteEvent({"query.time", "", 98765432100, 1500, 10, {}});
  EXPECT_TRUE(tracer.WriteChromeTrace(*trace_out).ok());
  const EvalProfile profile = WideProfile();
  all += profile.ToJson() + profile.ToString();
  TimingResult timing;
  timing.seconds = 1234.5;
  all += timing.ToCell();
  all += ComputeStats(graph).ToString(schema);
  all += SchemaGraph::Build(schema).ToString(schema);
  all += CheckConsistency(config).ValueOrDie().ToString();
  all += OccurrenceConstraint::Fixed(12345).ToString() +
         OccurrenceConstraint::Proportion(0.123456).ToString();
  all += QueriesToXml(queries, schema);
  WorkloadConfiguration workload_config =
      MakePresetWorkload(WorkloadPreset::kCon, 12345, 67890);
  workload_config.arity = IntRange::Between(10, 12);
  all += WorkloadConfigToXml(workload_config);
  return all;
}

// Everything the writers produce for one graph and one query set, each
// writer given a fresh stream. A `perturbed` stream is imbued with the
// grouping locale and carries hex/showbase flags.
std::string RenderAll(bool perturbed) {
  GraphConfiguration config = MakeBibConfig(3000, 11);
  const GraphSchema& schema = config.schema;
  Graph graph = ParallelGenerateGraph(config).ValueOrDie();
  auto stream = [perturbed] {
    auto out = std::make_unique<std::ostringstream>();
    if (perturbed) {
      out->imbue(GroupingLocale());
      out->setf(std::ios::hex | std::ios::showbase);
    }
    return out;
  };
  std::string all;
  {
    auto out = stream();
    NTriplesSink sink(out.get(), &schema);
    sink.Append(12345, 0, 1234567);
    EXPECT_TRUE(WriteNTriples(graph, schema, out.get(), true).ok());
    all += out->str();
  }
  {
    auto out = stream();
    CsvSink sink(out.get(), &schema);
    sink.Append(1234567, 1, 2);
    EXPECT_TRUE(WriteCsv(graph, schema, out.get()).ok());
    all += out->str();
  }
  std::vector<Query> queries = {WideQuery()};
  Workload workload =
      QueryGenerator(&schema)
          .Generate(MakePresetWorkload(WorkloadPreset::kCon, 30, 7))
          .ValueOrDie();
  for (const GeneratedQuery& gq : workload.queries) {
    queries.push_back(gq.query);
  }
  all += workload.ToXml(schema) + GraphConfigToXml(config);
  {
    auto out = stream();
    all += RenderDiagnostics(config, graph, queries, out.get());
    all += out->str();
  }
  for (const Query& q : queries) {
    all += q.ToString(schema);
    for (QueryLanguage lang : AllQueryLanguages()) {
      for (bool count_distinct : {false, true}) {
        TranslateOptions options;
        options.count_distinct = count_distinct;
        all += TranslateQuery(q, schema, lang, options).ValueOrDie();
      }
    }
  }
  return all;
}

TEST(OutputLocaleTest, GroupingLocaleLeavesEveryOutputUnchanged) {
  const std::string classic = RenderAll(/*perturbed=*/false);
  ASSERT_NE(classic.find("<http://gmark/n12345>"), std::string::npos);
  ASSERT_NE(classic.find("\n1234567,publishedIn,2\n"), std::string::npos);
  ASSERT_NE(classic.find("_a10"), std::string::npos);
  ASSERT_NE(classic.find("_c11("), std::string::npos);
  ASSERT_NE(classic.find("\"peak_tuples\": 4321,"), std::string::npos);
  ASSERT_NE(classic.find("\"tid\": 12"), std::string::npos);
  ASSERT_NE(classic.find("1234.500"), std::string::npos);

  std::string grouped;
  {
    ScopedGlobalLocale global(GroupingLocale());
    grouped = RenderAll(/*perturbed=*/true);
  }
  EXPECT_EQ(std::locale().name(), std::locale::classic().name());

  // Compare line by line first so a failure names the first bad line.
  std::istringstream a(classic), b(grouped);
  std::string la, lb;
  size_t line = 0;
  while (std::getline(a, la) && std::getline(b, lb)) {
    ++line;
    ASSERT_EQ(la, lb) << "first difference on line " << line;
  }
  EXPECT_EQ(classic, grouped);
}

}  // namespace
}  // namespace gmark
