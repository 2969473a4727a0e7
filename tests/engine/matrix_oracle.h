// A test-only UCRPQ oracle that shares no code with the engines.
//
// Every regular expression becomes a dense Boolean n x n matrix built
// straight from Graph::ForEachEdge: a symbol is its edge matrix (the
// transpose for an inverse symbol), union is OR, concatenation is the
// Boolean product, and star is Warshall's closure plus the identity.
// Each rule is then evaluated by backtracking over variable assignments
// into a std::set of head tuples, and a query's count is the size of
// the union of its rules' sets.
//
// It uses O(n^2) bits per conjunct and O(n^3 / 64) word operations per
// star, so it is meant for graphs of at most a few thousand nodes.

#ifndef GMARK_TESTS_ENGINE_MATRIX_ORACLE_H_
#define GMARK_TESTS_ENGINE_MATRIX_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <set>
#include <vector>

#include "graph/graph.h"
#include "query/query.h"

namespace gmark::testing_oracle {

/// \brief Dense n x n Boolean matrix, one row of 64-bit words per node.
class BoolMatrix {
 public:
  explicit BoolMatrix(size_t n) : n_(n), words_((n + 63) / 64),
                                  bits_(n * words_, 0) {}

  static BoolMatrix Identity(size_t n) {
    BoolMatrix m(n);
    for (size_t i = 0; i < n; ++i) m.Set(i, i);
    return m;
  }

  size_t size() const { return n_; }
  bool Get(size_t i, size_t j) const {
    return (Row(i)[j >> 6] >> (j & 63)) & 1;
  }
  void Set(size_t i, size_t j) { Row(i)[j >> 6] |= uint64_t{1} << (j & 63); }

  void OrWith(const BoolMatrix& other) {
    for (size_t k = 0; k < bits_.size(); ++k) bits_[k] |= other.bits_[k];
  }

  /// \brief Boolean product this * other.
  BoolMatrix Times(const BoolMatrix& other) const {
    BoolMatrix out(n_);
    for (size_t i = 0; i < n_; ++i) {
      uint64_t* dst = out.Row(i);
      for (size_t k = 0; k < n_; ++k) {
        if (!Get(i, k)) continue;
        const uint64_t* src = other.Row(k);
        for (size_t w = 0; w < words_; ++w) dst[w] |= src[w];
      }
    }
    return out;
  }

  /// \brief Reflexive-transitive closure: Warshall, then the identity.
  BoolMatrix Star() const {
    BoolMatrix out = *this;
    for (size_t k = 0; k < n_; ++k) {
      const uint64_t* via = out.Row(k);
      for (size_t i = 0; i < n_; ++i) {
        if (!out.Get(i, k)) continue;
        uint64_t* dst = out.Row(i);
        for (size_t w = 0; w < words_; ++w) dst[w] |= via[w];
      }
    }
    out.OrWith(Identity(n_));
    return out;
  }

  BoolMatrix Transpose() const {
    BoolMatrix out(n_);
    for (size_t i = 0; i < n_; ++i) {
      for (size_t j = 0; j < n_; ++j) {
        if (Get(i, j)) out.Set(j, i);
      }
    }
    return out;
  }

  /// \brief Column indices j with Get(i, j), ascending.
  std::vector<size_t> RowMembers(size_t i) const {
    std::vector<size_t> out;
    for (size_t j = 0; j < n_; ++j) {
      if (Get(i, j)) out.push_back(j);
    }
    return out;
  }

 private:
  uint64_t* Row(size_t i) { return bits_.data() + i * words_; }
  const uint64_t* Row(size_t i) const { return bits_.data() + i * words_; }

  size_t n_;
  size_t words_;
  std::vector<uint64_t> bits_;
};

/// \brief |Q(G)| under set semantics, computed by matrix algebra and
/// backtracking.
class MatrixOracle {
 public:
  explicit MatrixOracle(const Graph& graph)
      : graph_(graph), n_(static_cast<size_t>(graph.num_nodes())) {}

  BoolMatrix SymbolMatrix(const Symbol& symbol) const {
    BoolMatrix m(n_);
    graph_.ForEachEdge(symbol.predicate, [&](NodeId s, NodeId t) {
      if (symbol.inverse) {
        m.Set(static_cast<size_t>(t), static_cast<size_t>(s));
      } else {
        m.Set(static_cast<size_t>(s), static_cast<size_t>(t));
      }
    });
    return m;
  }

  BoolMatrix RegexMatrix(const RegularExpression& expr) const {
    BoolMatrix out(n_);
    for (const PathExpr& path : expr.disjuncts) {
      BoolMatrix p = BoolMatrix::Identity(n_);
      for (const Symbol& s : path) p = p.Times(SymbolMatrix(s));
      out.OrWith(p);
    }
    return expr.star ? out.Star() : out;
  }

  /// \brief Distinct head tuples of one rule.
  std::set<std::vector<NodeId>> RuleTuples(const QueryRule& rule) const {
    Search search{rule, {}, {}, {}, {}};
    VarId max_var = 0;
    for (VarId v : rule.head) max_var = std::max(max_var, v);
    for (const Conjunct& c : rule.body) {
      search.rows.push_back(RegexMatrix(c.expr));
      search.cols.push_back(search.rows.back().Transpose());
      max_var = std::max({max_var, c.source, c.target});
    }
    search.binding.assign(static_cast<size_t>(max_var) + 1, kUnbound);
    Backtrack(search, 0);
    return std::move(search.tuples);
  }

  uint64_t CountDistinct(const Query& query) const {
    std::set<std::vector<NodeId>> all;
    for (const QueryRule& rule : query.rules) {
      std::set<std::vector<NodeId>> part = RuleTuples(rule);
      all.insert(part.begin(), part.end());
    }
    return all.size();
  }

 private:
  static constexpr size_t kUnbound = static_cast<size_t>(-1);

  struct Search {
    const QueryRule& rule;
    std::vector<BoolMatrix> rows;  // conjunct i's relation
    std::vector<BoolMatrix> cols;  // its transpose, for a bound target
    std::vector<size_t> binding;   // by VarId; kUnbound when free
    std::set<std::vector<NodeId>> tuples;
  };

  /// Bind `var` to each candidate in turn (or check it when bound) and
  /// continue with conjunct `next`.
  void Extend(Search& s, VarId var, const std::vector<size_t>& candidates,
              size_t next) const {
    size_t& slot = s.binding[static_cast<size_t>(var)];
    if (slot != kUnbound) {
      for (size_t v : candidates) {
        if (v == slot) return Backtrack(s, next);
      }
      return;
    }
    for (size_t v : candidates) {
      slot = v;
      Backtrack(s, next);
    }
    slot = kUnbound;
  }

  void Backtrack(Search& s, size_t index) const {
    if (index == s.rule.body.size()) {
      std::vector<NodeId> tuple;
      for (VarId v : s.rule.head) {
        tuple.push_back(static_cast<NodeId>(s.binding[static_cast<size_t>(v)]));
      }
      s.tuples.insert(std::move(tuple));
      return;
    }
    const Conjunct& c = s.rule.body[index];
    const size_t src = s.binding[static_cast<size_t>(c.source)];
    const size_t dst = s.binding[static_cast<size_t>(c.target)];
    if (src != kUnbound) {
      Extend(s, c.target, s.rows[index].RowMembers(src), index + 1);
    } else if (dst != kUnbound) {
      Extend(s, c.source, s.cols[index].RowMembers(dst), index + 1);
    } else {
      for (size_t x = 0; x < n_; ++x) {
        s.binding[static_cast<size_t>(c.source)] = x;
        Extend(s, c.target, s.rows[index].RowMembers(x), index + 1);
      }
      s.binding[static_cast<size_t>(c.source)] = kUnbound;
    }
  }

  const Graph& graph_;
  size_t n_;
};

}  // namespace gmark::testing_oracle

#endif  // GMARK_TESTS_ENGINE_MATRIX_ORACLE_H_
