// openCypher translation. Dialect limits handled per paper §7.1:
// variable-length patterns support neither inverse nor concatenation,
// so starred disjuncts are reduced to their first non-inverse symbols;
// multi-symbol disjunctions outside stars are expanded into UNION
// branches (capped), since openCypher alternation `[:a|b]` only covers
// single relationships.

#include <vector>

#include "translate/translator_impl.h"
#include "util/string_util.h"

namespace gmark {

namespace {

constexpr size_t kMaxUnionBranches = 256;

/// One concrete MATCH pattern choice: for each conjunct, the index of
/// the disjunct used.
using BranchChoice = std::vector<size_t>;

std::string StarredRelationship(const RegularExpression& expr,
                                const GraphSchema& schema) {
  // Keep only the first symbol of each disjunct, dropping inverses
  // (paper §7.1: "the corresponding openCypher query has only the
  // non-inverse symbol and/or the first symbol in a concatenation").
  std::vector<std::string> labels;
  for (const PathExpr& path : expr.disjuncts) {
    for (const Symbol& s : path) {
      if (s.inverse) continue;  // dropped
      labels.push_back(schema.PredicateName(s.predicate));
      break;  // first symbol only
    }
  }
  // When nothing expressible survives, an impossible label keeps the
  // query parseable (the paper's G returns empty answers here).
  return StrCat("-[:",
                labels.empty() ? "__gmark_unsupported__" : Join(labels, "|"),
                "*0..]->");
}

}  // namespace

Result<std::string> CypherTranslator::Translate(
    const Query& query, const GraphSchema& schema,
    const TranslateOptions& options) const {
  std::vector<std::string> rule_queries;
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];

    // Enumerate disjunct choices (branches) for non-starred conjuncts.
    std::vector<size_t> branch_sizes;
    for (const Conjunct& c : rule.body) {
      branch_sizes.push_back(c.expr.star ? 1 : c.expr.disjuncts.size());
    }
    size_t total_branches = 1;
    for (size_t s : branch_sizes) {
      total_branches *= s;
      if (total_branches > kMaxUnionBranches) {
        return Status::Unsupported(
            "openCypher expansion exceeds the UNION branch cap");
      }
    }

    for (size_t branch = 0; branch < total_branches; ++branch) {
      BranchChoice choice(rule.body.size());
      size_t rem = branch;
      for (size_t i = 0; i < branch_sizes.size(); ++i) {
        choice[i] = rem % branch_sizes[i];
        rem /= branch_sizes[i];
      }

      std::string text = "MATCH ";
      int anon = 0;
      for (size_t ci = 0; ci < rule.body.size(); ++ci) {
        const Conjunct& c = rule.body[ci];
        if (ci > 0) text += ", ";
        StrAppend(&text, '(', TranslateVarName(rule, r, c.source), ')');
        if (c.expr.star) {
          text += StarredRelationship(c.expr, schema);
        } else {
          const PathExpr& path = c.expr.disjuncts[choice[ci]];
          if (path.empty()) {
            return Status::Unsupported("epsilon path in openCypher");
          }
          for (size_t si = 0; si < path.size(); ++si) {
            const Symbol& s = path[si];
            if (si > 0) StrAppend(&text, "(_a", anon++, ')');
            StrAppend(&text, s.inverse ? "<-[:" : "-[:",
                      schema.PredicateName(s.predicate),
                      s.inverse ? "]-" : "]->");
          }
        }
        StrAppend(&text, '(', TranslateVarName(rule, r, c.target), ')');
      }

      if (rule.head.empty()) {
        text += "\nRETURN count(*) > 0 AS nonempty";
      } else {
        text += "\nRETURN DISTINCT ";
        for (size_t i = 0; i < rule.head.size(); ++i) {
          if (i > 0) text += ", ";
          StrAppend(&text, TranslateVarName(rule, r, rule.head[i]), " AS h",
                    i);
        }
      }
      rule_queries.push_back(std::move(text));
    }
  }

  std::string out = Join(rule_queries, "\nUNION\n");
  out += '\n';
  if (options.count_distinct && query.arity() > 0) {
    // Wrap with the measurement aggregate via a CALL subquery.
    return StrCat("CALL {\n", out, "}\nRETURN count(*) AS cnt\n");
  }
  return out;
}

}  // namespace gmark
