#include "workload/query_generator.h"

#include <algorithm>
#include <cassert>
#include <map>
#include <set>

#include "query/query_xml.h"
#include "util/string_util.h"
#include "util/xml.h"
#include "workload/parallel_workload.h"

namespace gmark {

namespace {

constexpr int kMaxRuleAttempts = 25;

int DrawInRange(const IntRange& r, RandomEngine* rng) {
  // IntRange carries int bounds, so the int64 draw always fits an int;
  // assert that instead of narrowing silently, so a future widening of
  // IntRange cannot truncate here. Inverted ranges trip the assert
  // inside UniformInt itself.
  const int64_t v = rng->UniformInt(r.min, r.max);
  assert(v >= r.min && v <= r.max && "UniformInt draw escaped its range");
  return static_cast<int>(v);
}

/// Star mask for `k` conjuncts: each carries a Kleene star with
/// probability pr, but at least one stays plain — starred conjuncts
/// are selectivity-neutral loops (§5.2.4) and cannot anchor the class.
std::vector<bool> DrawStarMask(int k, double pr, RandomEngine* rng) {
  std::vector<bool> starred(static_cast<size_t>(k), false);
  for (int i = 0; i < k; ++i) {
    starred[static_cast<size_t>(i)] = rng->Bernoulli(pr);
  }
  if (std::count(starred.begin(), starred.end(), false) == 0) {
    starred[static_cast<size_t>(rng->UniformInt(0, k - 1))] = false;
  }
  return starred;
}

/// Un-star one uniformly chosen starred conjunct. Pre: the mask has at
/// least one star.
void UnstarOne(std::vector<bool>* mask, RandomEngine* rng) {
  std::vector<int> starred_at;
  for (int i = 0; i < static_cast<int>(mask->size()); ++i) {
    if ((*mask)[static_cast<size_t>(i)]) starred_at.push_back(i);
  }
  const size_t pick = static_cast<size_t>(rng->UniformInt(
      0, static_cast<int64_t>(starred_at.size()) - 1));
  (*mask)[static_cast<size_t>(starred_at[pick])] = false;
}

/// Append distinct disjuncts from `draw` to `expr` until it holds
/// `want` of them, `attempts` draws are spent, or a draw fails.
/// Duplicates are semantically void, so they are dropped rather than
/// emitted.
template <typename Draw>
void AddDistinctDisjuncts(int want, int attempts, const Draw& draw,
                          RegularExpression* expr) {
  std::set<PathExpr> seen(expr->disjuncts.begin(), expr->disjuncts.end());
  while (static_cast<int>(expr->disjuncts.size()) < want && attempts-- > 0) {
    Result<PathExpr> path = draw();
    if (!path.ok()) break;
    if (seen.insert(path.ValueOrDie()).second) {
      expr->disjuncts.push_back(std::move(path).ValueOrDie());
    }
  }
}

/// Variable-level query skeleton (Fig. 6 line 2): conjuncts as
/// (source var, target var) pairs.
struct Skeleton {
  std::vector<std::pair<VarId, VarId>> conjuncts;
  VarId var_count = 0;
};

Skeleton BuildSkeleton(QueryShape shape, int c, RandomEngine* rng) {
  Skeleton s;
  switch (shape) {
    case QueryShape::kChain: {
      for (int i = 0; i < c; ++i) s.conjuncts.emplace_back(i, i + 1);
      s.var_count = c + 1;
      return s;
    }
    case QueryShape::kStar: {
      // All conjuncts share the starting variable (paper §5.1).
      for (int i = 1; i <= c; ++i) s.conjuncts.emplace_back(0, i);
      s.var_count = c + 1;
      return s;
    }
    case QueryShape::kCycle: {
      if (c < 2) return BuildSkeleton(QueryShape::kChain, c, rng);
      // Two chains sharing both endpoint variables x0 and xh.
      int h = c / 2;
      for (int i = 0; i < h; ++i) s.conjuncts.emplace_back(i, i + 1);
      int rest = c - h;
      VarId prev = 0;
      for (int i = 0; i < rest - 1; ++i) {
        VarId fresh = h + 1 + i;
        s.conjuncts.emplace_back(prev, fresh);
        prev = fresh;
      }
      s.conjuncts.emplace_back(prev, h);
      s.var_count = h + rest;
      return s;
    }
    case QueryShape::kStarChain: {
      // A chain backbone with star legs hanging off random chain vars.
      int backbone = (c + 1) / 2;
      for (int i = 0; i < backbone; ++i) s.conjuncts.emplace_back(i, i + 1);
      VarId next_var = backbone + 1;
      for (int i = backbone; i < c; ++i) {
        VarId attach =
            static_cast<VarId>(rng->UniformInt(0, backbone));
        s.conjuncts.emplace_back(attach, next_var++);
      }
      s.var_count = next_var;
      return s;
    }
  }
  return s;
}

/// Pick projection variables (Fig. 6 line 3). Chain endpoints come
/// first so binary selectivity-controlled queries project the pair the
/// class was computed for.
std::vector<VarId> PickHead(int arity, VarId var_count, VarId first,
                            VarId last, RandomEngine* rng) {
  std::vector<VarId> head;
  if (arity <= 0) return head;
  head.push_back(first);
  if (arity >= 2 && last != first) head.push_back(last);
  std::vector<VarId> rest;
  for (VarId v = 0; v < var_count; ++v) {
    if (v != first && v != last) rest.push_back(v);
  }
  rng->Shuffle(&rest);
  for (VarId v : rest) {
    if (static_cast<int>(head.size()) >= arity) break;
    head.push_back(v);
  }
  return head;
}

}  // namespace

std::vector<Query> Workload::RawQueries() const {
  std::vector<Query> out;
  out.reserve(queries.size());
  for (const auto& gq : queries) out.push_back(gq.query);
  return out;
}

std::string Workload::ToXml(const GraphSchema& schema) const {
  std::string out = "<workload name=\"";
  AppendXmlEscaped(&out, name);
  if (queries.empty() && skipped.empty()) {
    out.append("\"/>\n");
    return out;
  }
  out.append("\">\n");
  for (const GeneratedQuery& gq : queries) {
    AppendQueryXml(&out, gq.query, schema);
  }
  for (const std::string& record : skipped) {
    const std::string text = Trim(record);
    if (text.empty()) {
      out.append("  <skipped/>\n");
      continue;
    }
    out.append("  <skipped>");
    AppendXmlEscaped(&out, text);
    out.append("</skipped>\n");
  }
  out.append("</workload>\n");
  return out;
}

QueryGenerator::QueryGenerator(const GraphSchema* schema)
    : schema_(schema), graph_(SchemaGraph::Build(*schema)) {}

Result<WorkloadTables> QueryGenerator::BuildTables(
    const WorkloadConfiguration& config) const {
  GMARK_RETURN_NOT_OK(config.Validate());
  WorkloadTables tables;
  tables.walks_to.reserve(graph_.node_count());
  for (SchemaNodeId t = 0; t < graph_.node_count(); ++t) {
    tables.walks_to.push_back(
        graph_.CountWalksTo(t, config.size.path_length.max));
  }
  // Only controlled queries consult G_sel: selectivity control on and
  // at least one chain in the shape rotation.
  if (config.selectivity_control &&
      std::find(config.shapes.begin(), config.shapes.end(),
                QueryShape::kChain) != config.shapes.end()) {
    tables.gsel.emplace(
        SelectivityGraph::Build(&graph_, config.size.path_length));
    for (QuerySelectivity c : {QuerySelectivity::kConstant,
                               QuerySelectivity::kLinear,
                               QuerySelectivity::kQuadratic}) {
      tables.chains.push_back(
          tables.gsel->CountChains(c, config.size.conjuncts.max));
    }
  }
  return tables;
}

Result<std::pair<PathExpr, SchemaNodeId>> QueryGenerator::RandomWalk(
    SchemaNodeId from, IntRange length, RandomEngine* rng) const {
  int target_len = DrawInRange(length, rng);
  PathExpr path;
  SchemaNodeId current = from;
  for (int step = 0; step < target_len; ++step) {
    auto edges = graph_.OutEdges(current);
    if (edges.empty()) {
      if (step >= length.min) break;  // Length already admissible.
      return Status::NotFound("random walk hit a dead end");
    }
    const auto& e = edges[static_cast<size_t>(
        rng->UniformInt(0, static_cast<int64_t>(edges.size()) - 1))];
    path.push_back(e.symbol);
    current = e.to;
  }
  if (static_cast<int>(path.size()) < length.min) {
    return Status::NotFound("random walk shorter than the minimum length");
  }
  return std::make_pair(std::move(path), current);
}

Result<std::pair<PathExpr, SchemaNodeId>> QueryGenerator::SamplePathToType(
    SchemaNodeId from, TypeId target_type, IntRange length,
    const WorkloadTables& tables, RandomEngine* rng) const {
  std::vector<SchemaNodeId> candidates;
  std::vector<double> weights;
  for (SchemaNodeId v = 0; v < graph_.node_count(); ++v) {
    if (graph_.nodes()[v].type != target_type) continue;
    double total = tables.walks_to[v].InRange(from, length);
    if (total > 0.0) {
      candidates.push_back(v);
      weights.push_back(total);
    }
  }
  size_t pick = rng->WeightedIndex(weights);
  if (pick == weights.size()) {
    return Status::NotFound("no schema path of length " + length.ToString() +
                            " reaching type " +
                            schema_->TypeName(target_type));
  }
  GMARK_ASSIGN_OR_RETURN(
      PathExpr path,
      graph_.SamplePath(from, candidates[pick], length,
                        tables.walks_to[candidates[pick]], rng));
  return std::make_pair(std::move(path), candidates[pick]);
}

Result<PathExpr> QueryGenerator::SampleLoopPath(TypeId type, IntRange length,
                                                const WorkloadTables& tables,
                                                RandomEngine* rng) const {
  GMARK_ASSIGN_OR_RETURN(
      auto path_and_node,
      SamplePathToType(graph_.StartNode(type), type, length, tables, rng));
  return path_and_node.first;
}

Result<RegularExpression> QueryGenerator::BuildRegex(
    SchemaNodeId from, SchemaNodeId to, int num_disjuncts, IntRange length,
    const WorkloadTables& tables, RandomEngine* rng) const {
  RegularExpression expr;
  // A few extra attempts to find distinct disjuncts.
  AddDistinctDisjuncts(
      num_disjuncts, num_disjuncts * 3,
      [&] {
        return graph_.SamplePath(from, to, length, tables.walks_to[to], rng);
      },
      &expr);
  if (expr.disjuncts.empty()) {
    return Status::NotFound("no disjunct path available between the "
                            "requested schema-graph nodes");
  }
  return expr;
}

Result<QueryRule> QueryGenerator::GenerateControlledChainRule(
    const WorkloadConfiguration& config, QuerySelectivity target,
    const WorkloadTables& tables, RandomEngine* rng) const {
  const IntRange len = config.size.path_length;
  const SelectivityGraph& gsel = *tables.gsel;
  const WalkCounts& chains = tables.chains[static_cast<size_t>(target)];
  int c = DrawInRange(config.size.conjuncts, rng);

  // Decide which conjuncts carry a Kleene star (probability pr).
  std::vector<bool> starred =
      DrawStarMask(c, config.recursion_probability, rng);
  const int non_star = static_cast<int>(
      std::count(starred.begin(), starred.end(), false));

  // The conjunct-level walk in G_sel: relax within the conjunct range
  // when the drawn count is infeasible for this class. For each
  // candidate count the star mask is redrawn (never wiped: wiping
  // silently stripped recursion from every relaxed query, regardless
  // of pr), and stars are then removed one at a time until the
  // non-star count admits a walk — so pr = 0 still relaxes to the
  // all-plain chains it always produced, while pr > 0 keeps as much of
  // its drawn recursion as the class allows.
  Result<std::vector<SchemaNodeId>> walk =
      gsel.SampleConjunctChain(target, chains, non_star, rng);
  if (!walk.ok()) {
    for (int k = config.size.conjuncts.min;
         k <= config.size.conjuncts.max && !walk.ok(); ++k) {
      std::vector<bool> mask =
          DrawStarMask(k, config.recursion_probability, rng);
      int ns =
          static_cast<int>(std::count(mask.begin(), mask.end(), false));
      while (true) {
        walk = gsel.SampleConjunctChain(target, chains, ns, rng);
        if (walk.ok() || ns == k) break;
        UnstarOne(&mask, rng);
        ++ns;
      }
      if (walk.ok()) {
        c = k;
        starred = std::move(mask);
      }
    }
  }
  GMARK_RETURN_NOT_OK(walk.status());
  const std::vector<SchemaNodeId>& nodes = walk.ValueOrDie();

  QueryRule rule;
  VarId var = 0;
  size_t wpos = 0;
  for (int i = 0; i < c; ++i) {
    Conjunct conj;
    conj.source = var;
    conj.target = var + 1;
    if (starred[static_cast<size_t>(i)]) {
      // Starred conjuncts inherit the neighbouring type and keep the
      // accumulated class unchanged (operator '=', §5.2.4).
      TypeId t = graph_.nodes()[nodes[wpos]].type;
      RegularExpression expr;
      const int want = DrawInRange(config.size.disjuncts, rng);
      AddDistinctDisjuncts(
          want, want * 3,
          [&] { return SampleLoopPath(t, len, tables, rng); }, &expr);
      if (expr.disjuncts.empty()) {
        return Status::NotFound("no loop path for a starred conjunct at " +
                                schema_->TypeName(t));
      }
      expr.star = true;
      conj.expr = std::move(expr);
    } else {
      int d = DrawInRange(config.size.disjuncts, rng);
      GMARK_ASSIGN_OR_RETURN(conj.expr, BuildRegex(nodes[wpos], nodes[wpos + 1],
                                                   d, len, tables, rng));
      ++wpos;
    }
    rule.body.push_back(std::move(conj));
    ++var;
  }
  return rule;
}

Result<QueryRule> QueryGenerator::GenerateFreeRule(
    const WorkloadConfiguration& config, QueryShape shape,
    const WorkloadTables& tables, RandomEngine* rng) const {
  const IntRange len = config.size.path_length;
  int c = DrawInRange(config.size.conjuncts, rng);
  Skeleton skeleton = BuildSkeleton(shape, c, rng);

  // Identity nodes with outgoing edges are valid anchors for fresh
  // variables.
  std::vector<SchemaNodeId> roots;
  for (TypeId t = 0; t < schema_->type_count(); ++t) {
    SchemaNodeId n = graph_.StartNode(t);
    if (!graph_.OutEdges(n).empty()) roots.push_back(n);
  }
  if (roots.empty()) {
    return Status::NotFound("schema admits no paths at all");
  }

  std::map<VarId, SchemaNodeId> anchor;
  QueryRule rule;
  for (const auto& [u, w] : skeleton.conjuncts) {
    if (anchor.find(u) == anchor.end()) {
      anchor[u] = roots[static_cast<size_t>(
          rng->UniformInt(0, static_cast<int64_t>(roots.size()) - 1))];
    }
    SchemaNodeId from = anchor[u];
    Conjunct conj;
    conj.source = u;
    conj.target = w;
    bool starred = rng->Bernoulli(config.recursion_probability);
    int d = DrawInRange(config.size.disjuncts, rng);

    if (starred) {
      TypeId t = graph_.nodes()[from].type;
      auto loop = SampleLoopPath(t, len, tables, rng);
      if (loop.ok()) {
        RegularExpression expr;
        expr.star = true;
        expr.disjuncts.push_back(std::move(loop).ValueOrDie());
        AddDistinctDisjuncts(
            d, d * 3 - 1,
            [&] { return SampleLoopPath(t, len, tables, rng); }, &expr);
        conj.expr = std::move(expr);
        // A starred conjunct loops on its own type.
        if (anchor.find(w) == anchor.end()) {
          anchor[w] = graph_.StartNode(t);
        }
        rule.body.push_back(std::move(conj));
        continue;
      }
      // No loop exists here: fall through to a plain conjunct.
    }

    // A plain conjunct: its first path closes the pattern when both
    // endpoints are typed already, or walks out to type a fresh target;
    // further disjuncts reach the same target type.
    TypeId trg_type;
    if (anchor.find(w) != anchor.end()) {
      trg_type = graph_.nodes()[anchor[w]].type;
      GMARK_ASSIGN_OR_RETURN(auto first,
                             SamplePathToType(from, trg_type, len, tables,
                                              rng));
      conj.expr.disjuncts.push_back(std::move(first.first));
    } else {
      GMARK_ASSIGN_OR_RETURN(auto walk, RandomWalk(from, len, rng));
      trg_type = graph_.nodes()[walk.second].type;
      anchor[w] = graph_.StartNode(trg_type);
      conj.expr.disjuncts.push_back(std::move(walk.first));
    }
    AddDistinctDisjuncts(
        d, d * 3 - 1,
        [&]() -> Result<PathExpr> {
          GMARK_ASSIGN_OR_RETURN(
              auto extra, SamplePathToType(from, trg_type, len, tables, rng));
          return std::move(extra.first);
        },
        &conj.expr);
    rule.body.push_back(std::move(conj));
  }
  return rule;
}

Result<GeneratedQuery> QueryGenerator::GenerateOne(
    const WorkloadConfiguration& config, QueryShape shape,
    std::optional<QuerySelectivity> target, const WorkloadTables& tables,
    RandomEngine* rng) const {
  const bool controlled =
      target.has_value() && shape == QueryShape::kChain;
  // G_sel depends only on the per-conjunct path length range, so the
  // caller builds it once per workload and shares it; only controlled
  // queries consult it.
  if (controlled && !tables.gsel.has_value()) {
    return Status::InvalidArgument(
        "selectivity-controlled query needs a G_sel");
  }

  Status last_error = Status::OK();
  for (int attempt = 0; attempt < kMaxRuleAttempts; ++attempt) {
    int num_rules = DrawInRange(config.size.rules, rng);
    int arity = DrawInRange(config.arity, rng);
    GeneratedQuery gq;
    gq.shape = shape;
    gq.target_class = controlled ? target : std::nullopt;
    bool failed = false;
    for (int r = 0; r < num_rules; ++r) {
      Result<QueryRule> rule =
          controlled
              ? GenerateControlledChainRule(config, *target, tables, rng)
              : GenerateFreeRule(config, shape, tables, rng);
      if (!rule.ok()) {
        last_error = rule.status();
        failed = true;
        break;
      }
      QueryRule qr = std::move(rule).ValueOrDie();
      VarId max_var = 0;
      for (const auto& conj : qr.body) {
        max_var = std::max({max_var, conj.source, conj.target});
      }
      qr.head = PickHead(arity, max_var + 1, 0, max_var, rng);
      gq.query.rules.push_back(std::move(qr));
    }
    if (failed) continue;
    GMARK_RETURN_NOT_OK(gq.query.Validate(*schema_));
    return gq;
  }
  if (last_error.ok()) {
    last_error = Status::Internal("query generation exhausted attempts");
  }
  return last_error;
}

Result<Workload> QueryGenerator::Generate(
    const WorkloadConfiguration& config) const {
  // The serial path IS the parallel algorithm run inline: every query
  // index derives its own RNG stream, so this is byte-identical to
  // ParallelGenerateWorkload at any thread count.
  ParallelWorkloadOptions options;
  options.num_threads = 1;
  return ParallelGenerateWorkload(*this, config, options);
}

}  // namespace gmark
