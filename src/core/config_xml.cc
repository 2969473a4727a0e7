#include "core/config_xml.h"

#include <fstream>
#include <iterator>

#include "util/string_util.h"

namespace gmark {

namespace {

Result<OccurrenceConstraint> ParseOccurrence(const XmlNode& node,
                                             const std::string& what) {
  if (node.has_attr("fixed")) {
    GMARK_ASSIGN_OR_RETURN(int64_t v, ParseInt(node.attr("fixed")));
    return OccurrenceConstraint::Fixed(v);
  }
  if (node.has_attr("proportion")) {
    GMARK_ASSIGN_OR_RETURN(double p, ParseDouble(node.attr("proportion")));
    return OccurrenceConstraint::Proportion(p);
  }
  return Status::InvalidArgument(what +
                                 " needs a 'fixed' or 'proportion' attribute");
}

Result<DistributionSpec> ParseDistribution(const XmlNode* node) {
  if (node == nullptr) return DistributionSpec::NonSpecified();
  GMARK_ASSIGN_OR_RETURN(DistributionType type,
                         ParseDistributionType(node->attr("type")));
  switch (type) {
    case DistributionType::kNonSpecified:
      return DistributionSpec::NonSpecified();
    case DistributionType::kUniform: {
      GMARK_ASSIGN_OR_RETURN(int64_t lo, ParseInt(node->attr("min")));
      GMARK_ASSIGN_OR_RETURN(int64_t hi, ParseInt(node->attr("max")));
      return DistributionSpec::Uniform(lo, hi);
    }
    case DistributionType::kGaussian: {
      GMARK_ASSIGN_OR_RETURN(double mu, ParseDouble(node->attr("mu")));
      GMARK_ASSIGN_OR_RETURN(double sigma, ParseDouble(node->attr("sigma")));
      return DistributionSpec::Gaussian(mu, sigma);
    }
    case DistributionType::kZipfian: {
      GMARK_ASSIGN_OR_RETURN(double s, ParseDouble(node->attr("s")));
      return DistributionSpec::Zipfian(s);
    }
  }
  return Status::Internal("unreachable distribution type");
}

// The writers below spell each element's attributes in key order and
// close an element with neither text nor children as `<tag/>`.

void AppendDistribution(std::string* out, std::string_view tag,
                        const DistributionSpec& dist) {
  StrAppend(out, "        <", tag, ' ');
  switch (dist.type) {
    case DistributionType::kNonSpecified:
      break;
    case DistributionType::kUniform:
      StrAppend(out, "max=\"", static_cast<int64_t>(dist.param2),
                "\" min=\"", static_cast<int64_t>(dist.param1), "\" ");
      break;
    case DistributionType::kGaussian:
      StrAppend(out, "mu=\"", FormatDouble(dist.param1), "\" sigma=\"",
                FormatDouble(dist.param2), "\" ");
      break;
    case DistributionType::kZipfian:
      StrAppend(out, "s=\"", FormatDouble(dist.param1), "\" ");
      break;
  }
  StrAppend(out, "type=\"", DistributionTypeName(dist.type), "\"/>\n");
}

// `<tag fixed="n" name="..."/>` or `<tag name="..." proportion="p"/>`,
// or only the name when there is no occurrence constraint.
void AppendNamed(std::string* out, std::string_view tag,
                 const std::string& name,
                 const OccurrenceConstraint* occ) {
  StrAppend(out, "      <", tag, ' ');
  if (occ != nullptr && occ->is_fixed) {
    StrAppend(out, "fixed=\"", occ->fixed_count, "\" ");
  }
  out->append("name=\"");
  AppendXmlEscaped(out, name);
  out->push_back('"');
  if (occ != nullptr && !occ->is_fixed) {
    StrAppend(out, " proportion=\"", FormatDouble(occ->proportion), '"');
  }
  out->append("/>\n");
}

// `<list>`, one child per item, `</list>` inside <graph>, or `<list/>`.
template <typename Items, typename AppendItem>
void AppendSection(std::string* out, std::string_view list,
                   const Items& items, AppendItem append_item) {
  if (items.empty()) {
    StrAppend(out, "    <", list, "/>\n");
    return;
  }
  StrAppend(out, "    <", list, ">\n");
  for (const auto& item : items) append_item(item);
  StrAppend(out, "    </", list, ">\n");
}

}  // namespace

Result<GraphConfiguration> ParseGraphConfigElement(const XmlNode& graph) {
  GraphConfiguration config;
  if (graph.has_attr("name")) config.name = graph.attr("name");
  if (!graph.has_attr("nodes")) {
    return Status::InvalidArgument("<graph> needs a 'nodes' attribute");
  }
  GMARK_ASSIGN_OR_RETURN(config.num_nodes, ParseInt(graph.attr("nodes")));
  if (graph.has_attr("seed")) {
    GMARK_ASSIGN_OR_RETURN(int64_t seed, ParseInt(graph.attr("seed")));
    config.seed = static_cast<uint64_t>(seed);
  }

  const XmlNode* types = graph.FindChild("types");
  if (types == nullptr) {
    return Status::InvalidArgument("<graph> needs a <types> section");
  }
  for (const XmlNode* t : types->FindChildren("type")) {
    GMARK_ASSIGN_OR_RETURN(OccurrenceConstraint occ,
                           ParseOccurrence(*t, "<type>"));
    auto added = config.schema.AddType(t->attr("name"), occ);
    GMARK_RETURN_NOT_OK(added.status());
  }

  if (const XmlNode* preds = graph.FindChild("predicates")) {
    for (const XmlNode* p : preds->FindChildren("predicate")) {
      std::optional<OccurrenceConstraint> occ;
      if (p->has_attr("fixed") || p->has_attr("proportion")) {
        GMARK_ASSIGN_OR_RETURN(OccurrenceConstraint parsed,
                               ParseOccurrence(*p, "<predicate>"));
        occ = parsed;
      }
      auto added = config.schema.AddPredicate(p->attr("name"), occ);
      GMARK_RETURN_NOT_OK(added.status());
    }
  }

  if (const XmlNode* constraints = graph.FindChild("constraints")) {
    for (const XmlNode* c : constraints->FindChildren("constraint")) {
      // Predicates may be declared implicitly by first use.
      const std::string pred = c->attr("predicate");
      if (!config.schema.PredicateIdOf(pred).ok()) {
        auto added = config.schema.AddPredicate(pred);
        GMARK_RETURN_NOT_OK(added.status());
      }
      GMARK_ASSIGN_OR_RETURN(
          DistributionSpec in,
          ParseDistribution(c->FindChild("inDistribution")));
      GMARK_ASSIGN_OR_RETURN(
          DistributionSpec out,
          ParseDistribution(c->FindChild("outDistribution")));
      GMARK_RETURN_NOT_OK(config.schema.AddEdgeConstraintByName(
          c->attr("source"), pred, c->attr("target"), in, out));
    }
  }
  GMARK_RETURN_NOT_OK(config.Validate());
  return config;
}

Result<GraphConfiguration> ParseGraphConfigXml(const std::string& xml) {
  GMARK_ASSIGN_OR_RETURN(XmlNode root, ParseXml(xml));
  const XmlNode* graph = &root;
  if (root.name() != "graph") {
    graph = root.FindChild("graph");
    if (graph == nullptr) {
      return Status::InvalidArgument(
          "expected a <graph> element (directly or under the root)");
    }
  }
  return ParseGraphConfigElement(*graph);
}

std::string GraphConfigToXml(const GraphConfiguration& config) {
  const GraphSchema& schema = config.schema;
  std::string out = "<gmark>\n  <graph name=\"";
  AppendXmlEscaped(&out, config.name);
  StrAppend(&out, "\" nodes=\"", config.num_nodes, "\" seed=\"",
            config.seed, "\">\n");
  AppendSection(&out, "types", schema.types(), [&](const auto& t) {
    AppendNamed(&out, "type", t.name, &t.occurrence);
  });
  AppendSection(&out, "predicates", schema.predicates(), [&](const auto& p) {
    AppendNamed(&out, "predicate", p.name,
                p.occurrence.has_value() ? &*p.occurrence : nullptr);
  });
  AppendSection(&out, "constraints", schema.edge_constraints(),
                [&](const EdgeConstraint& c) {
    out.append("      <constraint predicate=\"");
    AppendXmlEscaped(&out, schema.PredicateName(c.predicate));
    out.append("\" source=\"");
    AppendXmlEscaped(&out, schema.TypeName(c.source_type));
    out.append("\" target=\"");
    AppendXmlEscaped(&out, schema.TypeName(c.target_type));
    out.append("\">\n");
    AppendDistribution(&out, "inDistribution", c.in_dist);
    AppendDistribution(&out, "outDistribution", c.out_dist);
    out.append("      </constraint>\n");
  });
  out.append("  </graph>\n</gmark>\n");
  return out;
}

Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open for reading: " + path);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

Status WriteStringToFile(const std::string& content, const std::string& path) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::IOError("cannot open for writing: " + path);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  if (!out) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<GraphConfiguration> LoadGraphConfig(const std::string& path) {
  GMARK_ASSIGN_OR_RETURN(std::string content, ReadFileToString(path));
  return ParseGraphConfigXml(content);
}

Status SaveGraphConfig(const GraphConfiguration& config,
                       const std::string& path) {
  return WriteStringToFile(GraphConfigToXml(config), path);
}

}  // namespace gmark
