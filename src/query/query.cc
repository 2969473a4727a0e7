#include "query/query.h"

#include <algorithm>
#include <set>

#include "util/string_util.h"

namespace gmark {

size_t RegularExpression::max_path_length() const {
  size_t len = 0;
  for (const auto& p : disjuncts) len = std::max(len, p.size());
  return len;
}

size_t RegularExpression::min_path_length() const {
  if (disjuncts.empty()) return 0;
  size_t len = disjuncts[0].size();
  for (const auto& p : disjuncts) len = std::min(len, p.size());
  return len;
}

std::string RegularExpression::ToString(const GraphSchema& schema) const {
  std::string out = "(";
  for (size_t d = 0; d < disjuncts.size(); ++d) {
    if (d > 0) out += " + ";
    if (disjuncts[d].empty()) out += "eps";
    for (size_t i = 0; i < disjuncts[d].size(); ++i) {
      const Symbol& s = disjuncts[d][i];
      StrAppend(&out, i > 0 ? " . " : "", schema.PredicateName(s.predicate),
                s.inverse ? "^-" : "");
    }
  }
  out += star ? ")*" : ")";
  return out;
}

RegularExpression ReverseRegex(const RegularExpression& expr) {
  RegularExpression rev;
  rev.star = expr.star;
  rev.disjuncts.reserve(expr.disjuncts.size());
  for (const PathExpr& path : expr.disjuncts) {
    PathExpr back;
    back.reserve(path.size());
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
      back.push_back(Symbol{it->predicate, !it->inverse});
    }
    rev.disjuncts.push_back(std::move(back));
  }
  return rev;
}

std::string Conjunct::ToString(const GraphSchema& schema) const {
  return StrCat("(?x", source, ", ", expr.ToString(schema), ", ?x", target,
                ")");
}

std::string QueryRule::ToString(const GraphSchema& schema) const {
  std::string out = "(";
  for (size_t i = 0; i < head.size(); ++i) {
    StrAppend(&out, i > 0 ? ", " : "", "?x", head[i]);
  }
  out += ") <- ";
  for (size_t i = 0; i < body.size(); ++i) {
    StrAppend(&out, i > 0 ? ", " : "", body[i].ToString(schema));
  }
  return out;
}

std::string Query::ToString(const GraphSchema& schema) const {
  std::string out;
  for (const auto& rule : rules) StrAppend(&out, rule.ToString(schema), "\n");
  return out;
}

Status Query::Validate(const GraphSchema& schema) const {
  if (rules.empty()) {
    return Status::InvalidArgument("query has no rules: " + name);
  }
  const size_t ar = rules[0].arity();
  for (const auto& rule : rules) {
    if (rule.arity() != ar) {
      return Status::InvalidArgument("rules of unequal arity in " + name);
    }
    if (rule.body.empty()) {
      return Status::InvalidArgument("rule with empty body in " + name);
    }
    std::set<VarId> bound;
    for (const auto& c : rule.body) {
      bound.insert(c.source);
      bound.insert(c.target);
      if (c.expr.disjuncts.empty()) {
        return Status::InvalidArgument("conjunct with no disjuncts in " +
                                       name);
      }
      for (const auto& path : c.expr.disjuncts) {
        for (const Symbol& s : path) {
          if (s.predicate >= schema.predicate_count()) {
            return Status::OutOfRange("predicate id out of schema range in " +
                                      name);
          }
        }
      }
    }
    for (VarId v : rule.head) {
      if (bound.count(v) == 0) {
        return Status::InvalidArgument(
            "head variable ?x" + std::to_string(v) + " unbound in " + name);
      }
    }
  }
  return Status::OK();
}

QuerySizeInfo MeasureQuery(const Query& query) {
  QuerySizeInfo info;
  info.rules = query.rules.size();
  bool first_conjunct = true;
  for (const auto& rule : query.rules) {
    info.min_conjuncts = first_conjunct
                             ? rule.body.size()
                             : std::min(info.min_conjuncts, rule.body.size());
    info.max_conjuncts = std::max(info.max_conjuncts, rule.body.size());
    first_conjunct = false;
    for (const auto& c : rule.body) {
      info.has_recursion = info.has_recursion || c.expr.star;
      size_t d = c.expr.disjunct_count();
      info.min_disjuncts = info.min_disjuncts == 0
                               ? d
                               : std::min(info.min_disjuncts, d);
      info.max_disjuncts = std::max(info.max_disjuncts, d);
      for (const auto& path : c.expr.disjuncts) {
        size_t len = path.size();
        info.min_path_length = info.min_path_length == 0
                                   ? len
                                   : std::min(info.min_path_length, len);
        info.max_path_length = std::max(info.max_path_length, len);
      }
    }
  }
  return info;
}

}  // namespace gmark
