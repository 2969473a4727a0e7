#include "selectivity/estimator.h"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

namespace gmark {

namespace {

// ---------------------------------------------------------------------------
// Numeric cardinality model (planner cost inputs).
//
// Everything below is derived from the schema's eta constraints and the
// realized node layout only — no graph instance is touched. Estimates
// are type-by-type matrices of expected (source, target) pair counts:
// composition divides by the shared middle type's node count (the
// independence assumption), disjunction adds, and the outermost Kleene
// star iterates closure over the reflexive diagonal. Every entry
// saturates at nodes(A) * nodes(B) so joins cannot run away.
// ---------------------------------------------------------------------------

// Global saturation for pair counts, well below double-precision loss.
constexpr double kCountCap = 1e15;

// Dense type-by-type matrix of expected pair counts.
struct TypeMatrix {
  size_t types = 0;
  std::vector<double> cell;  // row-major [from][to]

  explicit TypeMatrix(size_t t) : types(t), cell(t * t, 0.0) {}
  double& At(size_t a, size_t b) { return cell[a * types + b]; }
  double At(size_t a, size_t b) const { return cell[a * types + b]; }
  double Sum() const {
    double s = 0.0;
    for (double v : cell) s += v;
    return s;
  }
};

class CardinalityModel {
 public:
  CardinalityModel(const GraphSchema& schema, const NodeLayout& layout)
      : schema_(schema) {
    nodes_.resize(schema.type_count());
    for (TypeId t = 0; t < schema.type_count(); ++t) {
      nodes_[t] = static_cast<double>(layout.CountOf(t));
    }
    total_nodes_ = static_cast<double>(layout.total_nodes());
  }

  // Expected edge count of one eta constraint: the specified side's
  // mean degree times that side's node count, mirroring how the
  // generator resolves slot counts; when both sides are non-specified
  // the predicate's occurrence constraint drives the count.
  double EdgeEstimate(const EdgeConstraint& c) const {
    const double src = nodes_[c.source_type];
    const double tgt = nodes_[c.target_type];
    if (src <= 0.0 || tgt <= 0.0) return 0.0;
    if (c.out_dist.specified()) {
      return src * c.out_dist.Mean(static_cast<int64_t>(tgt));
    }
    if (c.in_dist.specified()) {
      return tgt * c.in_dist.Mean(static_cast<int64_t>(src));
    }
    const auto& occ = schema_.predicates()[c.predicate].occurrence;
    if (occ.has_value()) {
      return occ->is_fixed ? static_cast<double>(occ->fixed_count)
                           : occ->proportion * total_nodes_;
    }
    return src;
  }

  TypeMatrix SymbolMatrix(const Symbol& s) const {
    TypeMatrix m(nodes_.size());
    for (const EdgeConstraint& c : schema_.edge_constraints()) {
      if (c.predicate != s.predicate) continue;
      const double edges = EdgeEstimate(c);
      if (s.inverse) {
        m.At(c.target_type, c.source_type) += edges;
      } else {
        m.At(c.source_type, c.target_type) += edges;
      }
    }
    Saturate(&m);
    return m;
  }

  TypeMatrix Compose(const TypeMatrix& a, const TypeMatrix& b) const {
    TypeMatrix out(nodes_.size());
    for (size_t x = 0; x < nodes_.size(); ++x) {
      for (size_t mid = 0; mid < nodes_.size(); ++mid) {
        const double left = a.At(x, mid);
        if (left <= 0.0) continue;
        for (size_t y = 0; y < nodes_.size(); ++y) {
          const double right = b.At(mid, y);
          if (right <= 0.0) continue;
          out.At(x, y) += left * right / std::max(1.0, nodes_[mid]);
        }
      }
    }
    Saturate(&out);
    return out;
  }

  // Expected pairs of one disjunct path; `cost` accumulates every
  // intermediate frontier size (the direction-sensitive part).
  TypeMatrix PathMatrix(const PathExpr& path, double* cost) const {
    if (path.empty()) return IdentityMatrix();  // epsilon
    TypeMatrix m = SymbolMatrix(path[0]);
    *cost += m.Sum();
    for (size_t i = 1; i < path.size(); ++i) {
      m = Compose(m, SymbolMatrix(path[i]));
      *cost += m.Sum();
    }
    return m;
  }

  TypeMatrix RegexMatrix(const RegularExpression& expr, double* cost) const {
    TypeMatrix m(nodes_.size());
    for (const PathExpr& p : expr.disjuncts) {
      const TypeMatrix pm = PathMatrix(p, cost);
      for (size_t i = 0; i < m.cell.size(); ++i) m.cell[i] += pm.cell[i];
    }
    Saturate(&m);
    if (!expr.star) return m;
    // Kleene closure: S <- I + S . M until the saturated mass stops
    // growing. Saturation makes the iteration monotone and bounded.
    TypeMatrix closure = IdentityMatrix();
    double prev = closure.Sum();
    for (int round = 0; round < 32; ++round) {
      TypeMatrix next = Compose(closure, m);
      for (size_t t = 0; t < nodes_.size(); ++t) next.At(t, t) += nodes_[t];
      Saturate(&next);
      const double total = next.Sum();
      closure = std::move(next);
      if (total <= prev * 1.000001 + 1.0) break;
      prev = total;
    }
    *cost += closure.Sum();
    return closure;
  }

  // Expected number of nodes with at least one matching first edge —
  // the seed set of a fixpoint anchored at the expression's entry side
  // (`backward` anchors at the exit side of each disjunct instead).
  double RegexSeeds(const RegularExpression& expr, bool backward) const {
    double seeds = 0.0;
    for (const PathExpr& p : expr.disjuncts) {
      if (p.empty()) return total_nodes_;  // epsilon seeds every node
      const Symbol s = backward
                           ? Symbol{p.back().predicate, !p.back().inverse}
                           : p.front();
      seeds += SymbolSeeds(s);
    }
    return std::min(seeds, total_nodes_);
  }

 private:
  TypeMatrix IdentityMatrix() const {
    TypeMatrix m(nodes_.size());
    for (size_t t = 0; t < nodes_.size(); ++t) m.At(t, t) = nodes_[t];
    return m;
  }

  void Saturate(TypeMatrix* m) const {
    for (size_t a = 0; a < nodes_.size(); ++a) {
      for (size_t b = 0; b < nodes_.size(); ++b) {
        const double cap = std::min(kCountCap, nodes_[a] * nodes_[b]);
        m->At(a, b) = std::min(m->At(a, b), cap);
      }
    }
  }

  // Expected nodes with >= 1 edge matching `s` leaving them.
  double SymbolSeeds(const Symbol& s) const {
    double seeds = 0.0;
    for (const EdgeConstraint& c : schema_.edge_constraints()) {
      if (c.predicate != s.predicate) continue;
      const TypeId side = s.inverse ? c.target_type : c.source_type;
      const DistributionSpec& dist = s.inverse ? c.in_dist : c.out_dist;
      const double side_nodes = nodes_[side];
      if (side_nodes <= 0.0) continue;
      const double mean = EdgeEstimate(c) / side_nodes;
      seeds += side_nodes * NonzeroFraction(dist, mean);
    }
    return std::min(seeds, total_nodes_);
  }

  // P(degree >= 1); `mean` backs the families whose draws can be zero
  // and the non-specified slot-assigned case.
  static double NonzeroFraction(const DistributionSpec& d, double mean) {
    switch (d.type) {
      case DistributionType::kUniform: {
        const double lo = d.param1;
        const double hi = d.param2;
        if (lo >= 1.0) return 1.0;
        if (hi < 1.0) return 0.0;
        return hi / (hi - lo + 1.0);
      }
      case DistributionType::kZipfian:
        return 1.0;  // support is [1, max]: every draw is positive
      case DistributionType::kGaussian:
      case DistributionType::kNonSpecified:
        return std::clamp(mean, 0.0, 1.0);
    }
    return std::clamp(mean, 0.0, 1.0);
  }

  const GraphSchema& schema_;
  std::vector<double> nodes_;
  double total_nodes_ = 0.0;
};

}  // namespace

SelectivityEstimator::SelectivityEstimator(const GraphSchema* schema)
    : schema_(schema), graph_(SchemaGraph::Build(*schema)) {}

std::vector<SchemaNodeId> SelectivityEstimator::WalkPath(
    const std::vector<SchemaNodeId>& from, const PathExpr& path) const {
  std::vector<SchemaNodeId> states = from;
  for (const Symbol& sym : path) {
    std::set<SchemaNodeId> next;
    for (SchemaNodeId s : states) {
      for (const auto& e : graph_.OutEdges(s)) {
        if (e.symbol == sym) next.insert(e.to);
      }
    }
    states.assign(next.begin(), next.end());
    if (states.empty()) break;
  }
  return states;
}

std::map<TypeId, SelTriple> SelectivityEstimator::EstimateRegex(
    TypeId source, const RegularExpression& expr) const {
  std::map<TypeId, SelTriple> result;
  const std::vector<SchemaNodeId> base{graph_.StartNode(source)};
  for (const PathExpr& path : expr.disjuncts) {
    for (SchemaNodeId end : WalkPath(base, path)) {
      const SchemaGraphNode& node = graph_.nodes()[end];
      auto it = result.find(node.type);
      if (it == result.end()) {
        result.emplace(node.type, node.triple);
      } else {
        it->second = Disjoin(it->second, node.triple);
      }
    }
  }
  if (!expr.star) return result;
  // Paper §5.2.2: sel_{A,A}(p*) = sel_{A,A}(p) . sel_{A,A}(p), defined
  // only when the expression loops back to its input type.
  std::map<TypeId, SelTriple> starred;
  auto loop = result.find(source);
  if (loop != result.end()) {
    starred.emplace(source, Star(loop->second));
  }
  return starred;
}

Result<std::vector<Conjunct>> AsChain(const QueryRule& rule) {
  if (rule.body.empty()) return Status::NotFound("empty body");
  if (rule.body.size() == 1) return rule.body;

  // Map each source variable to its conjunct; a chain uses each variable
  // as a source at most once.
  std::map<VarId, size_t> by_source;
  std::set<VarId> targets;
  for (size_t i = 0; i < rule.body.size(); ++i) {
    if (!by_source.emplace(rule.body[i].source, i).second) {
      return Status::NotFound("variable is the source of two conjuncts");
    }
    targets.insert(rule.body[i].target);
  }
  // The chain head is the source variable that is nobody's target.
  size_t start = rule.body.size();
  for (const auto& [var, idx] : by_source) {
    if (targets.count(var) == 0) {
      if (start != rule.body.size()) {
        return Status::NotFound("multiple chain heads (star-shaped body)");
      }
      start = idx;
    }
  }
  if (start == rule.body.size()) {
    return Status::NotFound("no chain head (cyclic body)");
  }
  std::vector<Conjunct> chain;
  chain.push_back(rule.body[start]);
  while (chain.size() < rule.body.size()) {
    auto it = by_source.find(chain.back().target);
    if (it == by_source.end()) {
      return Status::NotFound("disconnected body; not a chain");
    }
    chain.push_back(rule.body[it->second]);
  }
  return chain;
}

Result<int> SelectivityEstimator::EstimateAlpha(const Query& query) const {
  int best = -1;
  for (const QueryRule& rule : query.rules) {
    auto chain_result = AsChain(rule);
    if (!chain_result.ok()) {
      return Status::Unsupported(
          "selectivity estimation is defined for chain bodies (binary "
          "queries): " +
          chain_result.status().message());
    }
    const std::vector<Conjunct>& chain = chain_result.ValueOrDie();
    for (TypeId a = 0; a < schema_->type_count(); ++a) {
      SelType category =
          schema_->IsFixedType(a) ? SelType::kOne : SelType::kN;
      std::map<TypeId, SelTriple> states{{a, IdentityTriple(category)}};
      for (const Conjunct& c : chain) {
        std::map<TypeId, SelTriple> next;
        for (const auto& [type, acc] : states) {
          for (const auto& [type2, step] : EstimateRegex(type, c.expr)) {
            SelTriple combined = Compose(acc, step);
            auto it = next.find(type2);
            if (it == next.end()) {
              next.emplace(type2, combined);
            } else {
              it->second = Disjoin(it->second, combined);
            }
          }
        }
        states.swap(next);
        if (states.empty()) break;
      }
      for (const auto& [type, triple] : states) {
        (void)type;
        best = std::max(best, AlphaOf(triple));
      }
    }
  }
  if (best < 0) {
    return Status::NotFound(
        "query cannot match any path allowed by the schema");
  }
  return best;
}

Result<QuerySelectivity> SelectivityEstimator::EstimateClass(
    const Query& query) const {
  GMARK_ASSIGN_OR_RETURN(int alpha, EstimateAlpha(query));
  switch (alpha) {
    case 0: return QuerySelectivity::kConstant;
    case 2: return QuerySelectivity::kQuadratic;
    default: return QuerySelectivity::kLinear;
  }
}

CardinalityEstimate SelectivityEstimator::EstimateCardinality(
    const Conjunct& conjunct, const NodeLayout& layout) const {
  const CardinalityModel model(*schema_, layout);
  CardinalityEstimate est;
  double fwd_cost = 0.0;
  double bwd_cost = 0.0;
  const TypeMatrix m = model.RegexMatrix(conjunct.expr, &fwd_cost);
  (void)model.RegexMatrix(ReverseRegex(conjunct.expr), &bwd_cost);
  est.rows = m.Sum();
  est.forward_seeds = model.RegexSeeds(conjunct.expr, /*backward=*/false);
  est.backward_seeds = model.RegexSeeds(conjunct.expr, /*backward=*/true);
  est.forward_cost = fwd_cost + est.forward_seeds;
  est.backward_cost = bwd_cost + est.backward_seeds;
  return est;
}

double SelectivityEstimator::EstimateChainCost(
    const std::vector<Conjunct>& chain, const NodeLayout& layout,
    bool backward) const {
  const CardinalityModel model(*schema_, layout);
  std::vector<RegularExpression> exprs;
  exprs.reserve(chain.size());
  if (backward) {
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      exprs.push_back(ReverseRegex(it->expr));
    }
  } else {
    for (const Conjunct& c : chain) exprs.push_back(c.expr);
  }
  if (exprs.empty()) return 0.0;
  double cost = model.RegexSeeds(exprs.front(), /*backward=*/false);
  TypeMatrix acc = model.RegexMatrix(exprs[0], &cost);
  for (size_t i = 1; i < exprs.size(); ++i) {
    double internal = 0.0;
    const TypeMatrix step = model.RegexMatrix(exprs[i], &internal);
    acc = model.Compose(acc, step);
    cost += acc.Sum();
  }
  return cost;
}

}  // namespace gmark
