#include "engine/engine_common.h"

#include <algorithm>
#include <limits>
#include <span>

#include "engine/eval_scratch.h"
#include "engine/flat_table.h"
#include "obs/eval_profile.h"
#include "plan/planner.h"
#include "util/timer.h"

namespace gmark {

namespace {

/// The union walk reads a source's targets back from its dedup bitset,
/// ascending, when their words span fewer than this many words per
/// target; sparser runs are sorted instead. Draining costs one visit per
/// spanned word, sorting ~log2(targets) branchy comparisons per target.
/// At 16, Bib's runs at 5k–20k nodes (a few to a few dozen targets over
/// the paper range) drain, and most runs at 200k nodes sort.
constexpr size_t kDrainWordsPerTarget = 16;

uint64_t PairHash(const std::pair<NodeId, NodeId>& p) {
  return HashColumn(HashColumn(kRowHashSeed, p.first), p.second);
}

/// The neighbors of `v` along `symbol`: its out-neighbors, or its
/// in-neighbors for an inverse symbol.
std::span<const uint32_t> Neighbors(const Graph& graph, const Symbol& symbol,
                                    NodeId v) {
  return symbol.inverse ? graph.InNeighbors(symbol.predicate, v)
                        : graph.OutNeighbors(symbol.predicate, v);
}

/// The relation a closure accumulates, in discovery order: every
/// reflexive pair, then what the rounds append. Both closure strategies
/// run their rounds over it; they differ only in which rows a round
/// rescans.
class ClosureBuilder {
 public:
  /// Index `base` by source (a stable counting sort, so the targets of
  /// a source keep base order) and seed the reflexive pairs, charged at
  /// once.
  static Result<ClosureBuilder> Start(const Graph& graph,
                                      const NodePairs& base,
                                      BudgetTracker* budget) {
    const NodeId n = static_cast<NodeId>(graph.num_nodes());
    GMARK_RETURN_NOT_OK(CheckRowLimit(static_cast<size_t>(n)));
    ClosureBuilder c(budget);
    c.offsets_.assign(static_cast<size_t>(n) + 1, 0);
    for (const auto& [s, t] : base) {
      if (s >= n || t >= n) {
        return Status::InvalidArgument("closure base pair outside the graph");
      }
      ++c.offsets_[s + 1];
    }
    for (size_t v = 1; v < c.offsets_.size(); ++v) {
      c.offsets_[v] += c.offsets_[v - 1];
    }
    c.targets_.resize(base.size());
    std::vector<size_t> next(c.offsets_.begin(), c.offsets_.end() - 1);
    for (const auto& [s, t] : base) c.targets_[next[s]++] = t;

    c.pairs_.reserve(static_cast<size_t>(n) + base.size());
    for (NodeId v = 0; v < n; ++v) {
      c.known_.FindOrInsert(
          PairHash({v, v}), static_cast<uint32_t>(v),
          [](uint32_t) { return false; },  // reflexive pairs are distinct
          [&](uint32_t r) { return PairHash(c.pairs_[r]); });
      c.pairs_.emplace_back(v, v);
    }
    GMARK_RETURN_NOT_OK(c.charge_.Charge(c.pairs_.size()));
    return c;
  }

  size_t size() const { return pairs_.size(); }

  /// Append (and charge) (x, y) unless already present.
  Status Add(NodeId x, NodeId y) {
    GMARK_RETURN_NOT_OK(CheckRowLimit(pairs_.size()));
    const std::pair<NodeId, NodeId> pair{x, y};
    const uint32_t found = known_.FindOrInsert(
        PairHash(pair), static_cast<uint32_t>(pairs_.size()),
        [&](uint32_t r) { return pairs_[r] == pair; },
        [&](uint32_t r) { return PairHash(pairs_[r]); });
    if (found != FlatRowTable::kNone) return Status::OK();
    GMARK_RETURN_NOT_OK(charge_.Charge(1));
    pairs_.push_back(pair);
    return Status::OK();
  }

  /// One round: join rows [begin, end) with the base, appending every
  /// new pair behind them.
  Status JoinBase(size_t begin, size_t end) {
    for (size_t i = begin; i < end; ++i) {
      const auto [x, mid] = pairs_[i];
      for (size_t k = offsets_[mid]; k < offsets_[mid + 1]; ++k) {
        GMARK_RETURN_NOT_OK(clock_.Check());
        GMARK_RETURN_NOT_OK(Add(x, targets_[k]));
      }
    }
    return Status::OK();
  }

  ChargedPairs Finish() && {
    return ChargedPairs(std::move(pairs_), std::move(charge_));
  }

 private:
  explicit ClosureBuilder(BudgetTracker* budget)
      : charge_(budget), clock_(budget) {}

  // Base targets of source s: targets_[offsets_[s], offsets_[s + 1]).
  std::vector<size_t> offsets_;
  std::vector<NodeId> targets_;
  NodePairs pairs_;
  FlatRowTable known_;  // ids of rows in pairs_
  TupleCharge charge_;
  PeriodicTimeCheck clock_;
};

/// Adds the wall time of its scope to one conjunct's profile seconds
/// on every exit path (a no-op without a profile).
class ConjunctSecondsGuard {
 public:
  ConjunctSecondsGuard(EvalProfile* profile, size_t conjunct_index)
      : profile_(profile), conjunct_index_(conjunct_index) {}
  ConjunctSecondsGuard(const ConjunctSecondsGuard&) = delete;
  ConjunctSecondsGuard& operator=(const ConjunctSecondsGuard&) = delete;
  ~ConjunctSecondsGuard() {
    if (profile_ == nullptr) return;
    profile_->Conjunct(conjunct_index_).seconds += timer_.ElapsedSeconds();
  }

 private:
  EvalProfile* profile_;
  size_t conjunct_index_;
  WallTimer timer_;
};

}  // namespace

NodePairs SymbolPairs(const Graph& graph, const Symbol& symbol) {
  // Scan the CSR of the symbol's own direction in place, source by
  // source: no intermediate edge vector, and an inverse symbol comes out
  // grouped by its own source like a forward one.
  NodePairs pairs;
  pairs.reserve(graph.EdgeCount(symbol.predicate));
  const NodeId n = static_cast<NodeId>(graph.num_nodes());
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId w : Neighbors(graph, symbol, v)) pairs.emplace_back(v, w);
  }
  return pairs;
}

Result<ChargedPairs> ComposePathPairs(const Graph& graph,
                                      const PathExpr& path,
                                      bool set_semantics,
                                      BudgetTracker* budget) {
  if (path.empty()) {
    return Status::InvalidArgument("cannot compose an empty path");
  }
  NodePairs current = SymbolPairs(graph, path[0]);
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(current.size()));
  PeriodicTimeCheck clock(budget);
  // Targets already produced for the current source (set semantics).
  ResettableBitset seen;
  if (set_semantics) seen.EnsureBits(static_cast<size_t>(graph.num_nodes()));
  for (size_t i = 1; i < path.size(); ++i) {
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    const Symbol& sym = path[i];
    NodePairs next;
    TupleCharge next_charge(budget);
    if (set_semantics) {
      // `current` is grouped by source, so each group's targets are
      // deduplicated on their own and the bitset resets between groups.
      for (size_t row = 0; row < current.size();) {
        const NodeId x = current[row].first;
        for (; row < current.size() && current[row].first == x; ++row) {
          for (NodeId w : Neighbors(graph, sym, current[row].second)) {
            GMARK_RETURN_NOT_OK(clock.Check());
            if (seen.TestAndSet(w)) continue;
            GMARK_RETURN_NOT_OK(next_charge.Charge(1));
            next.emplace_back(x, w);
          }
        }
        seen.Reset();
      }
    } else {
      for (const auto& [x, mid] : current) {
        for (NodeId w : Neighbors(graph, sym, mid)) {
          GMARK_RETURN_NOT_OK(clock.Check());
          GMARK_RETURN_NOT_OK(next_charge.Charge(1));
          next.emplace_back(x, w);
        }
      }
    }
    // Both step relations are live until here; the move-assign below
    // releases the step we just consumed only after its successor was
    // fully charged (the PR 5 lifetime rule).
    current = std::move(next);
    charge = std::move(next_charge);
  }
  return ChargedPairs(std::move(current), std::move(charge));
}

Result<ChargedPairs> RegexBasePairs(const Graph& graph,
                                    const RegularExpression& expr,
                                    bool set_semantics,
                                    BudgetTracker* budget) {
  std::vector<NodePairs> parts;
  parts.reserve(expr.disjuncts.size());
  size_t rows = 0;
  for (const PathExpr& path : expr.disjuncts) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedPairs part,
        ComposePathPairs(graph, path, set_semantics, budget));
    rows += part.value.size();
    parts.push_back(std::move(part.value));
    // part's guard releases its charge here; the union is charged once
    // below, after deduplication.
  }
  // UNION (not UNION ALL): disjunction is set-oriented in every dialect.
  // Every part is grouped by source, ascending, so one walk over the
  // sources merges them: per source, the distinct targets of all parts,
  // ascending. The bitset that deduplicates a source's targets also
  // orders them when they lie close together: draining its words reads
  // them back ascending and leaves it reset. A sparse run is sorted.
  NodePairs base;
  base.reserve(rows);
  std::vector<size_t> cursor(parts.size(), 0);
  ResettableBitset seen(static_cast<size_t>(graph.num_nodes()));
  std::vector<NodeId> targets;
  for (;;) {
    bool more = false;
    NodeId x = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      if (cursor[p] == parts[p].size()) continue;
      const NodeId s = parts[p][cursor[p]].first;
      if (!more || s < x) x = s;
      more = true;
    }
    if (!more) break;
    targets.clear();
    NodeId lo = std::numeric_limits<NodeId>::max();
    NodeId hi = 0;
    for (size_t p = 0; p < parts.size(); ++p) {
      const NodePairs& part = parts[p];
      size_t& row = cursor[p];
      for (; row < part.size() && part[row].first == x; ++row) {
        const NodeId t = part[row].second;
        if (seen.TestAndSet(t)) continue;
        targets.push_back(t);
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
    }
    const size_t span_words = (hi >> 6) - (lo >> 6) + 1;
    if (span_words < kDrainWordsPerTarget * targets.size()) {
      seen.Drain(lo >> 6, hi >> 6, [&](size_t t) {
        base.emplace_back(x, static_cast<NodeId>(t));
      });
    } else {
      seen.Reset();
      std::sort(targets.begin(), targets.end());
      for (NodeId t : targets) base.emplace_back(x, t);
    }
  }
  TupleCharge charge(budget);
  GMARK_RETURN_NOT_OK(charge.Charge(base.size()));
  return ChargedPairs(std::move(base), std::move(charge));
}

Result<ChargedPairs> ClosureNaive(const Graph& graph, const NodePairs& base,
                                  BudgetTracker* budget, uint64_t* rounds) {
  GMARK_ASSIGN_OR_RETURN(ClosureBuilder closure,
                         ClosureBuilder::Start(graph, base, budget));
  for (bool grew = true; grew;) {
    if (rounds != nullptr) ++*rounds;
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    // Naive: rescan the ENTIRE accumulated relation every round.
    const size_t end = closure.size();
    budget->ChargeScan(end);
    GMARK_RETURN_NOT_OK(closure.JoinBase(0, end));
    grew = closure.size() > end;
  }
  return std::move(closure).Finish();
}

Result<ChargedPairs> ClosureSemiNaive(const Graph& graph,
                                      const NodePairs& base,
                                      BudgetTracker* budget,
                                      uint64_t* rounds) {
  GMARK_ASSIGN_OR_RETURN(ClosureBuilder closure,
                         ClosureBuilder::Start(graph, base, budget));
  // Seed the delta with the base (paths of length exactly 1). Each
  // round's delta is the run of pairs the previous round appended.
  size_t delta_begin = closure.size();
  for (const auto& [s, t] : base) GMARK_RETURN_NOT_OK(closure.Add(s, t));
  while (delta_begin < closure.size()) {
    if (rounds != nullptr) ++*rounds;
    GMARK_RETURN_NOT_OK(budget->CheckTime());
    // Semi-naive: only the delta is extended.
    const size_t delta_end = closure.size();
    budget->ChargeScan(delta_end - delta_begin);
    GMARK_RETURN_NOT_OK(closure.JoinBase(delta_begin, delta_end));
    delta_begin = delta_end;
  }
  return std::move(closure).Finish();
}

Result<ChargedPairs> EvaluateConjunctPairs(const Graph& graph,
                                           const Conjunct& conjunct,
                                           bool set_semantics,
                                           ClosureKind closure,
                                           BudgetTracker* budget,
                                           EvalProfile* profile,
                                           size_t conjunct_index) {
  GMARK_ASSIGN_OR_RETURN(
      ChargedPairs base,
      RegexBasePairs(graph, conjunct.expr, set_semantics, budget));
  if (!conjunct.expr.star) return base;
  // The base relation stays charged until the closure exists, then
  // releases with `base` on return (hand-paired code used to leak it).
  uint64_t rounds = 0;
  Result<ChargedPairs> closed =
      closure == ClosureKind::kSemiNaive
          ? ClosureSemiNaive(graph, base.value, budget, &rounds)
          : ClosureNaive(graph, base.value, budget, &rounds);
  if (profile != nullptr) {
    profile->Conjunct(conjunct_index).fixpoint_rounds += rounds;
    profile->fixpoint_rounds += rounds;
  }
  return closed;
}

Result<ChargedRelation> ExecuteRulePlan(const QueryRule& rule,
                                        const RulePlan& plan,
                                        const ConjunctStrategy& strategy,
                                        BudgetTracker* budget,
                                        EvalProfile* profile,
                                        size_t conjunct_offset,
                                        size_t step_offset) {
  ChargedRelation acc;
  for (size_t pos = 0; pos < plan.steps.size(); ++pos) {
    const PlanStep& step = plan.steps[pos];
    // Direction resolves here, once, for every engine: a backward step
    // hands the strategy the endpoint-swapped, regex-reversed conjunct.
    // Var labels travel with the endpoints, so the joins and head
    // projection below never care about direction.
    const Conjunct c = EffectiveConjunct(rule.body[step.conjunct], step);
    const size_t conjunct_index = conjunct_offset + step.conjunct;
    ChargedRelation rel;
    {
      // The step's time ends once its relation is charged, before the
      // join, and is booked on the error path too: a killed step's
      // seconds are step time, not join time.
      ConjunctSecondsGuard step_time(profile, conjunct_index);
      GMARK_ASSIGN_OR_RETURN(ChargedPairs pairs, strategy(c, conjunct_index));
      // The relation copy lives alongside the pair vector until the
      // scope closes: ChargeRelation charges it for its lifetime, and
      // the pair vector's share releases only when `pairs` dies at the
      // end of this scope. Releasing before the copy was charged
      // under-counted the live peak ~2x, so the §7 memory-blowup budget
      // under-fired.
      GMARK_ASSIGN_OR_RETURN(
          rel, ChargeRelation(
                   VarRelation::FromPairs(c.source, c.target, pairs.value),
                   budget));
    }
    const size_t conjunct_rows = rel.value.row_count();
    if (pos == 0) {
      acc = std::move(rel);
    } else {
      // Both join inputs stay charged until the join output exists; the
      // move-assign releases the replaced acc, and rel releases at the
      // end of the iteration.
      GMARK_ASSIGN_OR_RETURN(ChargedRelation joined,
                             HashJoin(acc.value, rel.value, budget));
      acc = std::move(joined);
    }
    if (profile != nullptr) {
      profile->Conjunct(conjunct_index).rows += conjunct_rows;
      profile->RecordPlanStepRows(step_offset + pos, conjunct_rows);
    }
    GMARK_RETURN_NOT_OK(budget->CheckTime());
  }
  // acc releases after the projection is built.
  return ProjectDistinct(acc.value, rule.head, budget);
}

Result<uint64_t> ExecutePlan(const Query& query, const QueryPlan& plan,
                             const ConjunctStrategy& strategy,
                             BudgetTracker* budget, EvalProfile* profile) {
  // Relations and their charges live in parallel vectors until the
  // union is counted; the guards release on return, before the
  // caller's profile snapshot (which records the peak, not the
  // balance).
  std::vector<VarRelation> per_rule;
  std::vector<TupleCharge> per_rule_charges;
  // Profile conjunct numbering is global across rules in WRITTEN
  // order; plan steps map execution position back to it.
  size_t conjunct_offset = 0;
  size_t step_offset = 0;
  for (size_t ri = 0; ri < query.rules.size(); ++ri) {
    GMARK_ASSIGN_OR_RETURN(
        ChargedRelation rel,
        ExecuteRulePlan(query.rules[ri], plan.rules[ri], strategy, budget,
                        profile, conjunct_offset, step_offset));
    per_rule.push_back(std::move(rel.value));
    per_rule_charges.push_back(std::move(rel.charge));
    conjunct_offset += query.rules[ri].body.size();
    step_offset += plan.rules[ri].steps.size();
  }
  // A rule's relation is ProjectDistinct output, so one rule's union is
  // that relation: counted, not hashed again.
  if (per_rule.size() == 1) return CountDistinctRows(per_rule[0], budget);
  return CountDistinctUnion(per_rule, budget);
}

QueryPlan PlanOrIdentity(const EvalOptions& opts, const Graph& graph,
                         const Query& query) {
  if (opts.planner != nullptr) {
    return opts.planner->PlanQuery(query, graph.layout());
  }
  return QueryPlan::Identity(query);
}

}  // namespace gmark
