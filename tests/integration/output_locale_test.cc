// Every text writer formats numbers itself, so its output is the same
// bytes whatever locale or format flags the stream (or the process)
// carries. A digit-grouping numpunct facet is the classic way to break
// this: `<http://gmark/n12,345>` is no longer an IRI, and a CSV row
// `1,234,567,publishedIn,2` has five columns.

#include <gtest/gtest.h>

#include <locale>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/config_xml.h"
#include "core/use_cases.h"
#include "graph/generator.h"
#include "graph/graph_io.h"
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

// Everything the writers produce for one graph and one query set, each
// writer given a fresh stream. A `perturbed` stream is imbued with the
// grouping locale and carries hex/showbase flags.
std::string RenderAll(bool perturbed) {
  GraphConfiguration config = MakeBibConfig(3000, 11);
  const GraphSchema& schema = config.schema;
  Graph graph = GenerateGraph(config).ValueOrDie();
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
