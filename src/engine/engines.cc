#include "engine/engines.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "engine/engine_common.h"
#include "engine/evaluator.h"
#include "engine/flat_table.h"

namespace gmark {

const char* EngineKindCode(EngineKind kind) {
  switch (kind) {
    case EngineKind::kRelational: return "P";
    case EngineKind::kSparql: return "S";
    case EngineKind::kCypher: return "G";
    case EngineKind::kDatalog: return "D";
  }
  return "?";
}

std::vector<EngineKind> AllEngineKinds() {
  return {EngineKind::kRelational, EngineKind::kCypher, EngineKind::kSparql,
          EngineKind::kDatalog};
}

namespace {

/// The plan executor over an engine-specific conjunct strategy.
class MaterializingEngine : public QueryEngine {
 public:
  explicit MaterializingEngine(EvalOptions opts) : opts_(opts) {}

  Result<uint64_t> Evaluate(const Graph& graph, const Query& query,
                            const ResourceBudget& budget_spec,
                            EvalContext* ctx = nullptr) const override {
    BudgetTracker budget(budget_spec);
    EvalProfile* profile = ctx != nullptr ? ctx->profile : nullptr;
    BudgetProfileScope budget_scope(profile, &budget);
    // The plan is recorded before any step runs, so a budget-killed
    // evaluation still reports the order/direction it was executing.
    const QueryPlan plan = PlanOrIdentity(options(), graph, query);
    RecordPlan(plan, profile);
    return ExecutePlan(
        query, plan,
        [&](const Conjunct& c, size_t conjunct_index) {
          return ConjunctPairs(graph, c, &budget, profile, conjunct_index);
        },
        &budget, profile);
  }

 protected:
  /// Engine-specific evaluation of one conjunct into a charged pair
  /// relation. `profile` may be null; `conjunct_index` is the
  /// conjunct's global position for per-conjunct statistics (fixpoint
  /// rounds).
  virtual Result<ChargedPairs> ConjunctPairs(const Graph& graph,
                                             const Conjunct& conjunct,
                                             BudgetTracker* budget,
                                             EvalProfile* profile,
                                             size_t conjunct_index) const = 0;

  /// Intra-query parallelism knobs; strategies that can fan out
  /// (the S engine's per-source BFS) pass them to their evaluator.
  const EvalOptions& options() const { return opts_; }

 private:
  EvalOptions opts_;
};

/// P: hash joins with bag-semantics intermediates; naive recursion.
class RelationalEngine : public MaterializingEngine {
 public:
  using MaterializingEngine::MaterializingEngine;

  EngineKind kind() const override { return EngineKind::kRelational; }
  std::string description() const override {
    return "relational engine: SQL:1999 linear-recursive views, full "
           "materialization, naive fixpoint";
  }

 protected:
  Result<ChargedPairs> ConjunctPairs(const Graph& graph, const Conjunct& c,
                                     BudgetTracker* budget,
                                     EvalProfile* profile,
                                     size_t conjunct_index) const override {
    return EvaluateConjunctPairs(graph, c, /*set_semantics=*/false,
                                 ClosureKind::kNaive, budget, profile,
                                 conjunct_index);
  }
};

/// D: set-semantics relations everywhere; semi-naive recursion.
class DatalogEngine : public MaterializingEngine {
 public:
  using MaterializingEngine::MaterializingEngine;

  EngineKind kind() const override { return EngineKind::kDatalog; }
  std::string description() const override {
    return "Datalog engine: bottom-up semi-naive evaluation with delta "
           "relations";
  }

 protected:
  Result<ChargedPairs> ConjunctPairs(const Graph& graph, const Conjunct& c,
                                     BudgetTracker* budget,
                                     EvalProfile* profile,
                                     size_t conjunct_index) const override {
    return EvaluateConjunctPairs(graph, c, /*set_semantics=*/true,
                                 ClosureKind::kSemiNaive, budget, profile,
                                 conjunct_index);
  }
};

/// S: W3C ALP property-path evaluation (per-source BFS) per conjunct.
class SparqlEngine : public MaterializingEngine {
 public:
  using MaterializingEngine::MaterializingEngine;

  EngineKind kind() const override { return EngineKind::kSparql; }
  std::string description() const override {
    return "SPARQL engine: property paths via the ALP procedure "
           "(per-source BFS), triple-pattern hash joins";
  }

 protected:
  Result<ChargedPairs> ConjunctPairs(const Graph& graph, const Conjunct& c,
                                     BudgetTracker* budget,
                                     EvalProfile* profile,
                                     size_t /*conjunct_index*/) const override {
    // The ALP per-source BFS is the one strategy with an embarrassing
    // source loop — it chunks over the executor; results stay
    // byte-identical (see evaluator.h).
    return RpqEvaluator(&graph, options()).ConjunctPairs(c, budget, profile);
  }
};

/// G: openCypher-style DFS pattern enumeration with relationship
/// isomorphism; variable-length patterns lose inverse/concatenation.
class CypherEngine : public QueryEngine {
 public:
  /// The DFS enumeration shares bindings and the used-edge set across
  /// the whole match tree, so it is inherently sequential; only the
  /// planner option applies, the parallelism knobs are ignored.
  explicit CypherEngine(EvalOptions opts) : opts_(opts) {}

  EngineKind kind() const override { return EngineKind::kCypher; }
  std::string description() const override {
    return "openCypher engine: DFS enumeration, relationship-isomorphic "
           "semantics, restricted variable-length patterns";
  }

  Result<uint64_t> Evaluate(const Graph& graph, const Query& query,
                            const ResourceBudget& budget_spec,
                            EvalContext* ctx = nullptr) const override {
    BudgetTracker budget(budget_spec);
    EvalProfile* profile = ctx != nullptr ? ctx->profile : nullptr;
    BudgetProfileScope budget_scope(profile, &budget);
    // Variable-length patterns keep their written direction: StarLabels
    // keeps only non-inverse symbols, so reversing a star conjunct
    // would change which labels survive the openCypher restriction —
    // and therefore the result set. The plan's ORDER still applies to
    // every conjunct; the recorded plan reflects what actually runs.
    QueryPlan plan = PlanOrIdentity(opts_, graph, query);
    for (size_t ri = 0; ri < query.rules.size(); ++ri) {
      for (PlanStep& step : plan.rules[ri].steps) {
        if (query.rules[ri].body[step.conjunct].expr.star) {
          step.backward = false;
        }
      }
    }
    RecordPlan(plan, profile);
    // One guard for the whole enumeration: the DFS's edge-visit and
    // result charges share the lifetime of the result set, releasing
    // when evaluation ends (before the profile snapshot, which records
    // the peak, not the balance).
    TupleCharge charge(&budget);
    // The distinct head tuples of every rule, with the table holding
    // their row ids.
    VarRelation results(query.rules.empty() ? std::vector<VarId>{}
                                            : query.rules[0].head);
    FlatRowTable result_ids;
    size_t conjunct_offset = 0;
    size_t step_offset = 0;
    for (size_t ri = 0; ri < query.rules.size(); ++ri) {
      const QueryRule& rule = query.rules[ri];
      // The body the DFS walks: effective conjuncts in plan order, plus
      // the map from execution position back to written index (profile
      // conjunct numbering stays in written order).
      std::vector<Conjunct> body;
      std::vector<size_t> written;
      for (const PlanStep& step : plan.rules[ri].steps) {
        body.push_back(EffectiveConjunct(rule.body[step.conjunct], step));
        written.push_back(step.conjunct);
      }
      if (rule.head.size() != results.width()) {
        return Status::InvalidArgument("rules of unequal arity");
      }
      GMARK_ASSIGN_OR_RETURN(size_t var_slots, VarSlots(rule));
      MatchState state{graph,   rule,     body,        written,
                       &budget, &charge,  &results,    &result_ids,
                       std::vector<std::optional<NodeId>>(var_slots),
                       std::vector<NodeId>(rule.head.size()),
                       {},      profile,  conjunct_offset, step_offset};
      GMARK_RETURN_NOT_OK(MatchConjunct(state, 0));
      conjunct_offset += rule.body.size();
      step_offset += plan.rules[ri].steps.size();
    }
    return static_cast<uint64_t>(results.row_count());
  }

 private:
  struct MatchState {
    const Graph& graph;
    const QueryRule& rule;               // head projection only
    const std::vector<Conjunct>& body;   // effective conjuncts, plan order
    const std::vector<size_t>& written;  // body[i] -> written conjunct index
    BudgetTracker* budget;
    TupleCharge* charge;
    VarRelation* results;      // distinct head tuples, all rules
    FlatRowTable* result_ids;  // ids of rows in *results
    std::vector<std::optional<NodeId>> bindings;  // by VarId
    std::vector<NodeId> head;  // the head tuple being recorded
    std::unordered_set<uint64_t> used_edges;  // relationship isomorphism
    EvalProfile* profile;     // may be null
    size_t conjunct_offset;   // this rule's first global conjunct index
    size_t step_offset;       // this rule's first global plan-step index
  };

  /// Size of a binding vector indexed by `rule`'s variable ids.
  static Result<size_t> VarSlots(const QueryRule& rule) {
    std::vector<VarId> vars = rule.head;
    for (const Conjunct& c : rule.body) {
      vars.push_back(c.source);
      vars.push_back(c.target);
    }
    if (vars.empty()) return size_t{0};
    const auto [lo, hi] = std::ranges::minmax(vars);
    if (lo < 0) return Status::InvalidArgument("negative variable id");
    return static_cast<size_t>(hi) + 1;
  }

  static uint64_t EdgeId(const Graph& graph, PredicateId p, NodeId s,
                         NodeId t) {
    uint64_t n = static_cast<uint64_t>(graph.num_nodes());
    return (static_cast<uint64_t>(p) * n + s) * n + t;
  }

  /// Add the current head tuple to the result set unless present.
  static Status RecordHead(MatchState& state) {
    for (size_t k = 0; k < state.head.size(); ++k) {
      state.head[k] = Bound(state, state.rule.head[k]).value();
    }
    return AppendDistinctRow(state.head, state.results, state.result_ids)
        .status();
  }

  static std::optional<NodeId>& Bound(MatchState& state, VarId var) {
    return state.bindings[static_cast<size_t>(var)];
  }

  /// Variable-length pattern labels: first non-inverse symbol of each
  /// disjunct (paper §7.1's openCypher restriction).
  static std::vector<PredicateId> StarLabels(const RegularExpression& expr) {
    std::vector<PredicateId> labels;
    for (const PathExpr& path : expr.disjuncts) {
      for (const Symbol& s : path) {
        if (s.inverse) continue;
        if (std::find(labels.begin(), labels.end(), s.predicate) ==
            labels.end()) {
          labels.push_back(s.predicate);
        }
        break;
      }
    }
    return labels;
  }

  Status RecordOrBindTarget(MatchState& state, VarId var, NodeId node,
                            size_t conjunct_index) const {
    std::optional<NodeId>& binding = Bound(state, var);
    if (binding.has_value()) {
      if (*binding != node) return Status::OK();  // binding conflict
      return MatchConjunct(state, conjunct_index + 1);
    }
    binding = node;
    Status st = MatchConjunct(state, conjunct_index + 1);
    binding.reset();
    return st;
  }

  /// Enumerate matches of path[pos...] starting at `node`.
  Status MatchPath(MatchState& state, const PathExpr& path, size_t pos,
                   NodeId node, VarId target_var,
                   size_t conjunct_index) const {
    GMARK_RETURN_NOT_OK(state.budget->CheckTime());
    if (pos == path.size()) {
      return RecordOrBindTarget(state, target_var, node, conjunct_index);
    }
    const Symbol& sym = path[pos];
    auto neighbors = sym.inverse
                         ? state.graph.InNeighbors(sym.predicate, node)
                         : state.graph.OutNeighbors(sym.predicate, node);
    for (NodeId w : neighbors) {
      GMARK_RETURN_NOT_OK(state.charge->Charge(1));
      uint64_t edge = sym.inverse
                          ? EdgeId(state.graph, sym.predicate, w, node)
                          : EdgeId(state.graph, sym.predicate, node, w);
      if (state.used_edges.count(edge) > 0) continue;  // isomorphism
      state.used_edges.insert(edge);
      Status st = MatchPath(state, path, pos + 1, w, target_var,
                            conjunct_index);
      state.used_edges.erase(edge);
      GMARK_RETURN_NOT_OK(st);
    }
    return Status::OK();
  }

  /// Enumerate matches of a variable-length pattern from `node`.
  Status MatchVarLength(MatchState& state,
                        const std::vector<PredicateId>& labels, NodeId node,
                        VarId target_var, size_t conjunct_index) const {
    GMARK_RETURN_NOT_OK(state.budget->CheckTime());
    // Zero-length match first (*0..).
    GMARK_RETURN_NOT_OK(
        RecordOrBindTarget(state, target_var, node, conjunct_index));
    for (PredicateId label : labels) {
      for (NodeId w : state.graph.OutNeighbors(label, node)) {
        GMARK_RETURN_NOT_OK(state.charge->Charge(1));
        uint64_t edge = EdgeId(state.graph, label, node, w);
        if (state.used_edges.count(edge) > 0) continue;
        state.used_edges.insert(edge);
        Status st =
            MatchVarLength(state, labels, w, target_var, conjunct_index);
        state.used_edges.erase(edge);
        GMARK_RETURN_NOT_OK(st);
      }
    }
    return Status::OK();
  }

  Status MatchConjunct(MatchState& state, size_t index) const {
    if (state.profile != nullptr && index > 0) {
      // Entering depth `index` means the step at position index-1 just
      // matched once: the DFS engine's "row", since it materializes no
      // relations. Rows file under the step's WRITTEN conjunct index.
      ++state.profile
           ->Conjunct(state.conjunct_offset + state.written[index - 1])
           .rows;
      state.profile->RecordPlanStepRows(state.step_offset + index - 1, 1);
    }
    if (index == state.body.size()) {
      GMARK_RETURN_NOT_OK(state.charge->Charge(1));
      return RecordHead(state);
    }
    if (state.profile == nullptr) return DoMatchConjunct(state, index);
    // Inclusive seconds: the DFS interleaves conjuncts, so conjunct i's
    // time contains conjuncts i+1.. (documented in ConjunctProfile).
    WallTimer timer;
    Status st = DoMatchConjunct(state, index);
    state.profile->Conjunct(state.conjunct_offset + state.written[index])
        .seconds += timer.ElapsedSeconds();
    return st;
  }

  Status DoMatchConjunct(MatchState& state, size_t index) const {
    const Conjunct& c = state.body[index];

    auto try_from = [&](NodeId source) -> Status {
      const bool fresh = !Bound(state, c.source).has_value();
      if (fresh) Bound(state, c.source) = source;
      Status st;
      if (c.expr.star) {
        st = MatchVarLength(state, StarLabels(c.expr), source, c.target,
                            index);
      } else {
        for (const PathExpr& path : c.expr.disjuncts) {
          st = MatchPath(state, path, 0, source, c.target, index);
          if (!st.ok()) break;
        }
      }
      if (fresh) Bound(state, c.source).reset();
      return st;
    };

    if (const std::optional<NodeId> bound = Bound(state, c.source)) {
      return try_from(*bound);
    }
    for (NodeId v = 0; v < static_cast<NodeId>(state.graph.num_nodes());
         ++v) {
      GMARK_RETURN_NOT_OK(try_from(v));
    }
    return Status::OK();
  }

  EvalOptions opts_;
};

}  // namespace

std::unique_ptr<QueryEngine> MakeEngine(EngineKind kind) {
  return MakeEngine(kind, EvalOptions{});
}

std::unique_ptr<QueryEngine> MakeEngine(EngineKind kind,
                                        const EvalOptions& opts) {
  switch (kind) {
    case EngineKind::kRelational:
      return std::make_unique<RelationalEngine>(opts);
    case EngineKind::kSparql:
      return std::make_unique<SparqlEngine>(opts);
    case EngineKind::kCypher:
      return std::make_unique<CypherEngine>(opts);
    case EngineKind::kDatalog:
      return std::make_unique<DatalogEngine>(opts);
  }
  return nullptr;
}

}  // namespace gmark
