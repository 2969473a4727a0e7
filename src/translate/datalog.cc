// Datalog translation: UCRPQs are expressible as (linear) Datalog
// programs (paper §2). Base relations: one binary predicate per edge
// label, plus node(X) for the reflexive base of Kleene stars.

#include "translate/translator_impl.h"
#include "util/string_util.h"

namespace gmark {

namespace {

std::string DatalogVar(const QueryRule& rule, size_t rule_index, VarId v) {
  // Datalog variables must start with an uppercase letter.
  for (size_t i = 0; i < rule.head.size(); ++i) {
    if (rule.head[i] == v) return StrCat('H', i);
  }
  return StrCat('R', rule_index, 'X', v);
}

/// Body atoms for one disjunct path from X to Y, through T<d>_0, ...
Status AppendPathBody(std::string* out, const PathExpr& path,
                      const GraphSchema& schema, size_t d) {
  if (path.empty()) {
    return Status::Unsupported("epsilon path in Datalog translation");
  }
  std::string prev = "X";
  for (size_t i = 0; i < path.size(); ++i) {
    std::string next = i + 1 == path.size() ? "Y" : StrCat('T', d, '_', i);
    const bool inv = path[i].inverse;
    StrAppend(out, i > 0 ? ", " : "", schema.PredicateName(path[i].predicate),
              '(', inv ? next : prev, ", ", inv ? prev : next, ')');
    prev = std::move(next);
  }
  return Status::OK();
}

// `n` comma-separated head variables H0, H1, ...
void AppendHeadVars(std::string* out, size_t n) {
  for (size_t i = 0; i < n; ++i) StrAppend(out, i > 0 ? ", " : "", 'H', i);
}

}  // namespace

Result<std::string> DatalogTranslator::Translate(
    const Query& query, const GraphSchema& schema,
    const TranslateOptions& options) const {
  const std::string q = query.name.empty() ? "q" : query.name;
  std::string out = StrCat("% gMark Datalog program for ", q, "\n");

  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    // Helper predicates, one per conjunct.
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      const std::string pred = StrCat(q, "_r", r, "_c", ci);
      const std::string base = pred + "_base";
      for (size_t d = 0; d < c.expr.disjuncts.size(); ++d) {
        StrAppend(&out, base, "(X, Y) :- ");
        GMARK_RETURN_NOT_OK(
            AppendPathBody(&out, c.expr.disjuncts[d], schema, d));
        out += ".\n";
      }
      if (c.expr.star) {
        StrAppend(&out, pred, "(X, X) :- node(X).\n", pred, "(X, Y) :- ",
                  pred, "(X, Z), ", base, "(Z, Y).\n");
      } else {
        StrAppend(&out, pred, "(X, Y) :- ", base, "(X, Y).\n");
      }
    }
    // The rule itself.
    StrAppend(&out, q, '(');
    for (size_t i = 0; i < rule.head.size(); ++i) {
      StrAppend(&out, i > 0 ? ", " : "", DatalogVar(rule, r, rule.head[i]));
    }
    out += ") :- ";
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      StrAppend(&out, ci > 0 ? ", " : "", q, "_r", r, "_c", ci, '(',
                DatalogVar(rule, r, c.source), ", ",
                DatalogVar(rule, r, c.target), ')');
    }
    out += ".\n";
  }

  if (options.count_distinct && query.arity() > 0) {
    StrAppend(&out, "% measurement aggregate\n", q, "_count(count<");
    AppendHeadVars(&out, query.arity());
    StrAppend(&out, ">) :- ", q, '(');
    AppendHeadVars(&out, query.arity());
    out += ").\n";
  }
  return out;
}

}  // namespace gmark
