// PostgreSQL translation: the standard encoding of UCRPQs into
// SQL:1999 recursive views (paper §7.1, footnote 4: linear recursion).
// Expected relations: edge(src BIGINT, label TEXT, trg BIGINT) and
// node(id BIGINT).

#include <map>
#include <vector>

#include "translate/translator_impl.h"
#include "util/string_util.h"

namespace gmark {

namespace {

/// SELECT producing one disjunct path as a (src, trg) relation.
Status AppendPathSelect(std::string* out, const PathExpr& path,
                        const GraphSchema& schema) {
  if (path.empty()) {
    return Status::Unsupported("epsilon path in SQL translation");
  }
  // Alias e<i> joins its start column to the previous alias's end column.
  auto start = [&path](size_t i) { return path[i].inverse ? ".trg" : ".src"; };
  auto end = [&path](size_t i) { return path[i].inverse ? ".src" : ".trg"; };
  const size_t last = path.size() - 1;
  StrAppend(out, "SELECT e0", start(0), " AS src, e", last, end(last),
            " AS trg FROM ");
  for (size_t i = 0; i < path.size(); ++i) {
    StrAppend(out, i > 0 ? ", " : "", "edge e", i);
  }
  out->append(" WHERE ");
  for (size_t i = 0; i < path.size(); ++i) {
    if (i > 0) out->append(" AND ");
    StrAppend(out, 'e', i, ".label = '",
              schema.PredicateName(path[i].predicate), '\'');
    if (i > 0) {
      StrAppend(out, " AND e", i - 1, end(i - 1), " = e", i, start(i));
    }
  }
  return Status::OK();
}

std::string CteName(size_t rule, size_t conj, const char* kind) {
  return StrCat("q_r", rule, "_c", conj, '_', kind);
}

}  // namespace

Result<std::string> SqlTranslator::Translate(
    const Query& query, const GraphSchema& schema,
    const TranslateOptions& options) const {
  std::string out;
  // One base CTE (disjunct union) per conjunct; a closure CTE on top of
  // it when the conjunct is starred.
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      StrAppend(&out, out.empty() ? "WITH RECURSIVE\n  " : ",\n  ",
                CteName(r, ci, "base"), "(src, trg) AS (\n    ");
      for (size_t d = 0; d < c.expr.disjuncts.size(); ++d) {
        if (d > 0) out += "\n    UNION\n    ";
        GMARK_RETURN_NOT_OK(
            AppendPathSelect(&out, c.expr.disjuncts[d], schema));
      }
      out += "\n  )";
      if (c.expr.star) {
        // Linear recursion: the closure references itself exactly once.
        const std::string path = CteName(r, ci, "path");
        StrAppend(&out, ",\n  ", path,
                  "(src, trg) AS (\n"
                  "    SELECT id AS src, id AS trg FROM node\n"
                  "    UNION\n"
                  "    SELECT p.src, b.trg FROM ",
                  path, " p JOIN ", CteName(r, ci, "base"),
                  " b ON p.trg = b.src\n  )");
      }
    }
  }
  if (!out.empty()) out += '\n';

  const bool count = options.count_distinct && query.arity() > 0;
  if (count) out += "SELECT COUNT(*) AS cnt FROM (\n";
  // Rule bodies: join the conjunct relations on shared variables.
  for (size_t r = 0; r < query.rules.size(); ++r) {
    const QueryRule& rule = query.rules[r];
    if (r > 0) out += "\nUNION\n";
    // Column j<ci>.src / .trg first binding each variable.
    std::map<VarId, std::pair<size_t, const char*>> var_col;
    std::string where;
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      const Conjunct& c = rule.body[ci];
      for (auto [var, col] : {std::pair{c.source, ".src"},
                              std::pair{c.target, ".trg"}}) {
        auto [it, fresh] = var_col.try_emplace(var, ci, col);
        if (!fresh) {
          StrAppend(&where, where.empty() ? "" : " AND ", 'j',
                    it->second.first, it->second.second, " = j", ci, col);
        }
      }
    }
    if (rule.head.empty()) {
      out += "SELECT DISTINCT 1 AS nonempty";
    } else {
      out += "SELECT DISTINCT ";
      for (size_t i = 0; i < rule.head.size(); ++i) {
        if (i > 0) out += ", ";
        // A head variable unbound in the body (which Validate rejects)
        // renders without a column.
        if (auto it = var_col.find(rule.head[i]); it != var_col.end()) {
          StrAppend(&out, 'j', it->second.first, it->second.second);
        }
        StrAppend(&out, " AS h", i);
      }
    }
    out += " FROM ";
    for (size_t ci = 0; ci < rule.body.size(); ++ci) {
      StrAppend(&out, ci > 0 ? ", " : "",
                CteName(r, ci, rule.body[ci].expr.star ? "path" : "base"),
                " j", ci);
    }
    if (!where.empty()) StrAppend(&out, " WHERE ", where);
  }
  out += count ? "\n) q;\n" : ";\n";
  return out;
}

}  // namespace gmark
