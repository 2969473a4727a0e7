// SPARQL 1.1 translation: UCRPQs map directly onto property paths
// (regular path queries are exactly SPARQL property paths, paper §1).

#include "translate/translator_impl.h"
#include "util/string_util.h"

namespace gmark {

namespace {

Status AppendPropertyPath(std::string* out, const PathExpr& path,
                          const GraphSchema& schema) {
  if (path.empty()) {
    return Status::Unsupported("empty path (epsilon) in SPARQL translation");
  }
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out->push_back('/');
    if (path[i].inverse) out->push_back('^');
    StrAppend(out, "<http://gmark/p/", schema.PredicateName(path[i].predicate),
              '>');
  }
  return Status::OK();
}

Status AppendRegex(std::string* out, const RegularExpression& expr,
                   const GraphSchema& schema) {
  out->push_back('(');
  for (size_t d = 0; d < expr.disjuncts.size(); ++d) {
    if (d > 0) out->push_back('|');
    GMARK_RETURN_NOT_OK(AppendPropertyPath(out, expr.disjuncts[d], schema));
  }
  out->push_back(')');
  if (expr.star) out->push_back('*');
  return Status::OK();
}

}  // namespace

Result<std::string> SparqlTranslator::Translate(
    const Query& query, const GraphSchema& schema,
    const TranslateOptions& options) const {
  const size_t arity = query.arity();

  // Body (shared by the plain and count(distinct) forms).
  std::string body = "WHERE {\n";
  const bool need_union = query.rules.size() > 1;
  for (size_t r = 0; r < query.rules.size(); ++r) {
    if (r > 0) body += "  UNION\n";
    if (need_union) body += "  {\n";
    for (const Conjunct& c : query.rules[r].body) {
      StrAppend(&body, need_union ? "    " : "  ", '?',
                TranslateVarName(query.rules[r], r, c.source), ' ');
      GMARK_RETURN_NOT_OK(AppendRegex(&body, c.expr, schema));
      StrAppend(&body, " ?", TranslateVarName(query.rules[r], r, c.target),
                " .\n");
    }
    if (need_union) body += "  }\n";
  }
  body += '}';

  std::string head_vars;
  for (size_t i = 0; i < arity; ++i) {
    if (i > 0) head_vars += ' ';
    StrAppend(&head_vars, "?h", i);
  }

  if (arity == 0) return StrCat("ASK ", body, "\n");
  if (options.count_distinct) {
    // The paper's measurement aggregate: count(distinct <head vector>).
    return StrCat("SELECT (COUNT(*) AS ?cnt) WHERE {\n  SELECT DISTINCT ",
                  head_vars, " ", body, "\n}\n");
  }
  return StrCat("SELECT DISTINCT ", head_vars, " ", body, "\n");
}

}  // namespace gmark
