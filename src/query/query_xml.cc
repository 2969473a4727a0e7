#include "query/query_xml.h"

#include "util/string_util.h"

namespace gmark {

namespace {

// The writers below spell each element's attributes in key order and
// close an element with neither text nor children as `<tag/>`.

void AppendRegex(std::string* out, const RegularExpression& expr,
                 const GraphSchema& schema) {
  StrAppend(out, "          <regex star=\"", expr.star ? "true" : "false");
  if (expr.disjuncts.empty()) {
    out->append("\"/>\n");
    return;
  }
  out->append("\">\n");
  for (const PathExpr& path : expr.disjuncts) {
    if (path.empty()) {
      out->append("            <disjunct/>\n");
      continue;
    }
    out->append("            <disjunct>\n");
    for (const Symbol& s : path) {
      out->append(s.inverse ? "              <symbol inverse=\"true\" "
                            : "              <symbol ");
      out->append("predicate=\"");
      AppendXmlEscaped(out, schema.PredicateName(s.predicate));
      out->append("\"/>\n");
    }
    out->append("            </disjunct>\n");
  }
  out->append("          </regex>\n");
}

void AppendRule(std::string* out, const QueryRule& rule,
                const GraphSchema& schema) {
  out->append("    <rule>\n");
  if (rule.head.empty()) {
    out->append("      <head/>\n");
  } else {
    out->append("      <head>\n");
    for (VarId v : rule.head) StrAppend(out, "        <var id=\"", v, "\"/>\n");
    out->append("      </head>\n");
  }
  if (rule.body.empty()) {
    out->append("      <body/>\n");
  } else {
    out->append("      <body>\n");
    for (const Conjunct& c : rule.body) {
      StrAppend(out, "        <conjunct source=\"", c.source, "\" target=\"",
                c.target, "\">\n");
      AppendRegex(out, c.expr, schema);
      out->append("        </conjunct>\n");
    }
    out->append("      </body>\n");
  }
  out->append("    </rule>\n");
}

// `<list><item>name</item>...</list>` one level down, or `<list/>`.
template <typename T>
void AppendNameList(std::string* out, std::string_view list,
                    std::string_view item, const std::vector<T>& values,
                    const char* (*name)(T)) {
  if (values.empty()) {
    StrAppend(out, "  <", list, "/>\n");
    return;
  }
  StrAppend(out, "  <", list, ">\n");
  for (T v : values) {
    StrAppend(out, "    <", item, '>', name(v), "</", item, ">\n");
  }
  StrAppend(out, "  </", list, ">\n");
}

Result<RegularExpression> ParseRegex(const XmlNode& regex,
                                     const GraphSchema& schema) {
  RegularExpression expr;
  expr.star = regex.attr("star") == "true";
  for (const XmlNode* d : regex.FindChildren("disjunct")) {
    PathExpr path;
    for (const XmlNode* s : d->FindChildren("symbol")) {
      GMARK_ASSIGN_OR_RETURN(PredicateId pred,
                             schema.PredicateIdOf(s->attr("predicate")));
      path.push_back(Symbol{pred, s->attr("inverse") == "true"});
    }
    expr.disjuncts.push_back(std::move(path));
  }
  if (expr.disjuncts.empty()) {
    return Status::InvalidArgument("<regex> without <disjunct> children");
  }
  return expr;
}

}  // namespace

void AppendQueryXml(std::string* out, const Query& query,
                    const GraphSchema& schema) {
  StrAppend(out, "  <query arity=\"", query.arity(), "\" name=\"");
  AppendXmlEscaped(out, query.name);
  if (query.rules.empty()) {
    out->append("\"/>\n");
    return;
  }
  out->append("\">\n");
  for (const QueryRule& rule : query.rules) AppendRule(out, rule, schema);
  out->append("  </query>\n");
}

std::string QueriesToXml(const std::vector<Query>& queries,
                         const GraphSchema& schema) {
  if (queries.empty()) return "<workload/>\n";
  std::string out = "<workload>\n";
  for (const Query& q : queries) AppendQueryXml(&out, q, schema);
  out.append("</workload>\n");
  return out;
}

Result<std::vector<Query>> ParseQueriesXml(const std::string& xml,
                                           const GraphSchema& schema) {
  GMARK_ASSIGN_OR_RETURN(XmlNode root, ParseXml(xml));
  if (root.name() != "workload") {
    return Status::InvalidArgument("expected <workload> root, got <" +
                                   root.name() + ">");
  }
  std::vector<Query> queries;
  for (const XmlNode* qn : root.FindChildren("query")) {
    Query q;
    q.name = qn->attr("name");
    for (const XmlNode* rn : qn->FindChildren("rule")) {
      QueryRule rule;
      if (const XmlNode* head = rn->FindChild("head")) {
        for (const XmlNode* v : head->FindChildren("var")) {
          GMARK_ASSIGN_OR_RETURN(int64_t id, ParseInt(v->attr("id")));
          rule.head.push_back(static_cast<VarId>(id));
        }
      }
      const XmlNode* body = rn->FindChild("body");
      if (body == nullptr) {
        return Status::InvalidArgument("rule without <body> in query " +
                                       q.name);
      }
      for (const XmlNode* cn : body->FindChildren("conjunct")) {
        Conjunct c;
        GMARK_ASSIGN_OR_RETURN(int64_t src, ParseInt(cn->attr("source")));
        GMARK_ASSIGN_OR_RETURN(int64_t trg, ParseInt(cn->attr("target")));
        c.source = static_cast<VarId>(src);
        c.target = static_cast<VarId>(trg);
        const XmlNode* regex = cn->FindChild("regex");
        if (regex == nullptr) {
          return Status::InvalidArgument("conjunct without <regex> in " +
                                         q.name);
        }
        GMARK_ASSIGN_OR_RETURN(c.expr, ParseRegex(*regex, schema));
        rule.body.push_back(std::move(c));
      }
      q.rules.push_back(std::move(rule));
    }
    GMARK_RETURN_NOT_OK(q.Validate(schema));
    queries.push_back(std::move(q));
  }
  return queries;
}

Result<WorkloadConfiguration> ParseWorkloadConfigXml(const std::string& xml) {
  GMARK_ASSIGN_OR_RETURN(XmlNode root, ParseXml(xml));
  const XmlNode* w = root.name() == "workload" ? &root
                                               : root.FindChild("workload");
  if (w == nullptr) {
    return Status::InvalidArgument("expected a <workload> element");
  }
  WorkloadConfiguration config;
  if (w->has_attr("name")) config.name = w->attr("name");
  if (w->has_attr("queries")) {
    GMARK_ASSIGN_OR_RETURN(int64_t n, ParseInt(w->attr("queries")));
    config.num_queries = static_cast<size_t>(n);
  }
  if (w->has_attr("seed")) {
    GMARK_ASSIGN_OR_RETURN(int64_t seed, ParseInt(w->attr("seed")));
    config.seed = static_cast<uint64_t>(seed);
  }
  if (const XmlNode* arity = w->FindChild("arity")) {
    GMARK_ASSIGN_OR_RETURN(int64_t lo, ParseInt(arity->attr("min")));
    GMARK_ASSIGN_OR_RETURN(int64_t hi, ParseInt(arity->attr("max")));
    config.arity = IntRange::Between(static_cast<int>(lo),
                                     static_cast<int>(hi));
  }
  if (const XmlNode* shapes = w->FindChild("shapes")) {
    config.shapes.clear();
    for (const XmlNode* s : shapes->FindChildren("shape")) {
      GMARK_ASSIGN_OR_RETURN(QueryShape shape, ParseQueryShape(s->text()));
      config.shapes.push_back(shape);
    }
  }
  if (const XmlNode* sels = w->FindChild("selectivities")) {
    config.selectivities.clear();
    for (const XmlNode* s : sels->FindChildren("selectivity")) {
      GMARK_ASSIGN_OR_RETURN(QuerySelectivity sel,
                             ParseQuerySelectivity(s->text()));
      config.selectivities.push_back(sel);
    }
  }
  if (const XmlNode* rec = w->FindChild("recursion")) {
    GMARK_ASSIGN_OR_RETURN(config.recursion_probability,
                           ParseDouble(rec->attr("probability")));
  }
  if (const XmlNode* size = w->FindChild("size")) {
    auto parse_range = [&](const std::string& key,
                           IntRange* out) -> Status {
      if (!size->has_attr(key + "-min")) return Status::OK();
      GMARK_ASSIGN_OR_RETURN(int64_t lo, ParseInt(size->attr(key + "-min")));
      GMARK_ASSIGN_OR_RETURN(int64_t hi, ParseInt(size->attr(key + "-max")));
      *out = IntRange::Between(static_cast<int>(lo), static_cast<int>(hi));
      return Status::OK();
    };
    GMARK_RETURN_NOT_OK(parse_range("rules", &config.size.rules));
    GMARK_RETURN_NOT_OK(parse_range("conjuncts", &config.size.conjuncts));
    GMARK_RETURN_NOT_OK(parse_range("disjuncts", &config.size.disjuncts));
    GMARK_RETURN_NOT_OK(parse_range("length", &config.size.path_length));
  }
  GMARK_RETURN_NOT_OK(config.Validate());
  return config;
}

std::string WorkloadConfigToXml(const WorkloadConfiguration& config) {
  std::string out = "<workload name=\"";
  AppendXmlEscaped(&out, config.name);
  StrAppend(&out, "\" queries=\"", config.num_queries, "\" seed=\"",
            config.seed, "\">\n  <arity max=\"", config.arity.max,
            "\" min=\"", config.arity.min, "\"/>\n");
  AppendNameList(&out, "shapes", "shape", config.shapes, QueryShapeName);
  AppendNameList(&out, "selectivities", "selectivity", config.selectivities,
                 QuerySelectivityName);
  StrAppend(&out, "  <recursion probability=\"",
            FormatDouble(config.recursion_probability), "\"/>\n  <size");
  const QuerySize& size = config.size;
  for (const auto& [key, range] :
       {std::pair{"conjuncts", size.conjuncts}, {"disjuncts", size.disjuncts},
        {"length", size.path_length}, {"rules", size.rules}}) {
    StrAppend(&out, ' ', key, "-max=\"", range.max, "\" ", key, "-min=\"",
              range.min, '"');
  }
  out.append("/>\n</workload>\n");
  return out;
}

}  // namespace gmark
