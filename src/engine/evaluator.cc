#include "engine/evaluator.h"

#include <algorithm>
#include <utility>

#include "engine/engine_common.h"
#include "engine/eval_scratch.h"
#include "obs/metrics.h"
#include "parallel/executor.h"
#include "parallel/thread_pool.h"
#include "selectivity/estimator.h"  // AsChain

namespace gmark {

namespace {

/// Flushes a chunk's locally accumulated BFS statistics into its
/// private stats shard (merged into the profile later, in chunk order)
/// on every exit path — a query killed by its budget mid-traversal is
/// exactly the one whose statistics must survive to explain the kill.
struct BfsShardFlush {
  BfsStatsShard* shard;
  const uint64_t* pops;
  const uint64_t* peak_frontier;

  ~BfsShardFlush() {
    shard->pops += *pops;
    if (*peak_frontier > shard->peak_frontier) {
      shard->peak_frontier = *peak_frontier;
    }
  }
};

/// One chunk's private output: its sources' accepted-pair count (and
/// the pairs themselves when materializing) and its BFS statistics.
/// Written by exactly one task; read by the merging thread after
/// Executor::Wait().
struct SourceChunk {
  uint64_t count = 0;
  NodePairs pairs;
  BfsStatsShard stats;
};

/// Evaluates sources [begin, end) against `nfa`, charging each source's
/// accepted targets on `charge` (a guard over the chunk's tracker,
/// `budget`), which the caller keeps or releases. `section`, when
/// given, is polled before every source: once it has failed the chunk
/// stops and returns OK, as the failed section discards its result.
/// Statistics reach out->stats on every exit path.
Status RunSourceChunk(const Graph& graph, const Nfa& nfa,
                      const std::vector<NfaTransition>& start_transitions,
                      size_t begin, size_t end, bool materialize,
                      const ConcurrentBudgetScope* section,
                      EvalScratch& scratch, BudgetTracker* budget,
                      TupleCharge* charge, SourceChunk* out) {
  const size_t n = static_cast<size_t>(graph.num_nodes());
  const size_t k = nfa.state_count();
  const uint32_t accept = nfa.accept();
  const bool epsilon = nfa.AcceptsEpsilon();
  scratch.Prepare(n, k);
  ResettableBitset& visited = scratch.visited;
  ResettableBitset& accepted_set = scratch.accepted;
  std::vector<uint64_t>& stack = scratch.stack;
  std::vector<NodeId>& targets = scratch.targets;

  // A node can begin a non-empty match only if it has at least one edge
  // matching a transition out of the start state (hoisted list — built
  // once per query, not re-walked per source).
  auto has_start_edge = [&](NodeId v) {
    for (const NfaTransition& t : start_transitions) {
      size_t deg = t.symbol.inverse
                       ? graph.InNeighbors(t.symbol.predicate, v).size()
                       : graph.OutNeighbors(t.symbol.predicate, v).size();
      if (deg > 0) return true;
    }
    return false;
  };

  // Amortized wall-clock enforcement inside the per-source BFS: the
  // per-source check alone would let one dense source overshoot the
  // timeout unboundedly (its whole product-graph traversal runs
  // between two checks). One checker per chunk — time checkers are
  // single-owner like the trackers they wrap.
  PeriodicTimeCheck time_check(budget);
  // Profile statistics accumulate in locals (registers) and flush once
  // on scope exit, so a null or live profile costs the BFS loop nothing.
  uint64_t pops = 0;
  uint64_t peak_frontier = 0;
  BfsShardFlush flush{&out->stats, &pops, &peak_frontier};

  for (size_t si = begin; si < end; ++si) {
    if (section != nullptr && section->failed()) return Status::OK();
    const NodeId source = static_cast<NodeId>(si);
    const bool starts = has_start_edge(source);
    if (!starts && !epsilon) continue;
    GMARK_RETURN_NOT_OK(budget->CheckTime());

    targets.clear();
    visited.Reset();
    accepted_set.Reset();
    if (epsilon) {
      // The empty word matches every node with itself (W3C ALP
      // zero-length path semantics).
      accepted_set.TestAndSet(source);
      targets.push_back(source);
    }
    if (starts) {
      stack.clear();
      uint64_t init = static_cast<uint64_t>(source) * k + nfa.start();
      visited.TestAndSet(init);
      stack.push_back(init);
      if (stack.size() > peak_frontier) peak_frontier = stack.size();
      while (!stack.empty()) {
        GMARK_RETURN_NOT_OK(time_check.Check());
        uint64_t packed = stack.back();
        stack.pop_back();
        ++pops;
        NodeId u = static_cast<NodeId>(packed / k);
        uint32_t q = static_cast<uint32_t>(packed % k);
        if (q == accept && !accepted_set.TestAndSet(u)) {
          targets.push_back(u);
        }
        for (const NfaTransition& t : nfa.TransitionsFrom(q)) {
          auto neighbors =
              t.symbol.inverse
                  ? graph.InNeighbors(t.symbol.predicate, u)
                  : graph.OutNeighbors(t.symbol.predicate, u);
          for (NodeId w : neighbors) {
            uint64_t next = static_cast<uint64_t>(w) * k + t.to;
            if (!visited.TestAndSet(next)) stack.push_back(next);
          }
        }
        if (stack.size() > peak_frontier) peak_frontier = stack.size();
      }
    }
    out->count += targets.size();
    GMARK_RETURN_NOT_OK(charge->Charge(targets.size()));
    if (materialize) {
      for (NodeId t : targets) out->pairs.emplace_back(source, t);
    }
  }
  return Status::OK();
}

/// Post-merge metric update, main thread only — the hot loops touch no
/// registry; four locked name lookups per query are noise.
void RecordEvalMetrics(uint64_t sources, size_t chunks,
                       const BfsStatsShard& stats) {
  MetricRegistry* metrics = GlobalMetrics();
  if (metrics == nullptr) return;
  metrics->Add("eval.sources", sources);
  metrics->Add("eval.chunks", chunks);
  metrics->Add("eval.bfs_pops", stats.pops);
  metrics->GaugeMax("eval.peak_frontier", stats.peak_frontier);
}

/// Merged result of the per-source driver: the total accepted-pair
/// count, the pairs in source order (when materializing), and the guard
/// over every tuple still charged on the caller's tracker.
struct MergedSources {
  uint64_t count = 0;
  NodePairs pairs;
  TupleCharge charge;
};

/// Shared driver behind CountPairs/MaterializePairs: runs every source
/// through the product-graph BFS, serially or chunked over
/// opts.executor. Chunk results merge in source order and per-worker
/// budget charges fold deterministically, so the returned value — and
/// the tracker/profile accounting on the success path — is identical at
/// any thread or chunk count.
Result<MergedSources> ForEachSource(const Graph& graph, const Nfa& nfa,
                                    const EvalOptions& opts, bool materialize,
                                    BudgetTracker* budget,
                                    EvalProfile* profile) {
  const size_t n = static_cast<size_t>(graph.num_nodes());
  const auto start_span = nfa.TransitionsFrom(nfa.start());
  const std::vector<NfaTransition> start_transitions(start_span.begin(),
                                                     start_span.end());

  const int workers = opts.executor != nullptr ? opts.executor->workers() : 1;
  size_t chunk = opts.chunk_sources;
  if (chunk == 0) {
    // Several chunks per worker so one dense chunk cannot serialize the
    // tail; floor of 16 keeps tiny graphs from drowning in task
    // overhead. Chunking never affects results, only load balance.
    chunk = std::max<size_t>(16, n / (8 * static_cast<size_t>(workers)));
  }
  const size_t num_chunks = n == 0 ? 0 : (n + chunk - 1) / chunk;

  MergedSources merged;
  if (workers <= 1 || num_chunks <= 1) {
    EvalScratch scratch;
    SourceChunk out;
    TupleCharge charge(budget);
    Status st = RunSourceChunk(graph, nfa, start_transitions, 0, n,
                               materialize, /*section=*/nullptr, scratch,
                               budget, &charge, &out);
    if (profile != nullptr) profile->AddBfs(out.stats);
    // The serial branch runs every source as one chunk, whatever the
    // planned chunking.
    RecordEvalMetrics(n, n == 0 ? 0 : 1, out.stats);
    GMARK_RETURN_NOT_OK(st);
    merged.count = out.count;
    merged.pairs = std::move(out.pairs);
    merged.charge = std::move(charge);
    return merged;
  }

  // Parallel: one task per chunk; each task charges the tracker of the
  // worker it lands on (ThreadPool::CurrentWorkerId(): pool workers are
  // 1..workers, so the scope holds workers+1 trackers) and reuses that
  // worker's scratch. Chunks are independent, so results depend only on
  // the [begin, end) partition — never on scheduling. A chunk that
  // returns OK disarms its charge onto its worker tracker, so the
  // cross-chunk peak reproduces the serial evaluator's; the fold below
  // re-guards it.
  //
  // Once any chunk fails the section's result is decided, so chunks
  // that have not started skip their sources and running ones stop
  // before their next source, reporting nothing: no chunk climbs back
  // to the ceiling a failing chunk just hit. Their parked charges
  // release with the section's. Success paths never see the flag.
  ConcurrentBudgetScope scope(budget, workers + 1);
  std::vector<SourceChunk> chunks(num_chunks);
  std::vector<EvalScratch> scratch(static_cast<size_t>(workers) + 1);
  for (size_t ci = 0; ci < num_chunks; ++ci) {
    opts.executor->Submit([&, ci, chunk] {
      if (scope.failed()) return;
      const int wid = ThreadPool::CurrentWorkerId();
      const size_t begin = ci * chunk;
      const size_t end = std::min(n, begin + chunk);
      BudgetTracker* tracker = &scope.worker(wid);
      TupleCharge charge(tracker);
      Status st = RunSourceChunk(graph, nfa, start_transitions, begin, end,
                                 materialize, &scope,
                                 scratch[static_cast<size_t>(wid)], tracker,
                                 &charge, &chunks[ci]);
      // Report before `charge` releases, so the headroom the release
      // frees is not taken by a chunk that has not seen the failure.
      if (!st.ok()) {
        scope.ReportFailure(ci, std::move(st));
      } else {
        charge.Disarm();
      }
    });
  }
  opts.executor->Wait();

  // Fold the per-worker accounting into the base tracker and re-guard
  // the surviving charges there; if the section failed, destroying the
  // guard on return releases them, restoring the pre-call balance
  // exactly as the serial unwind does.
  const size_t outstanding = scope.Fold();
  merged.charge = TupleCharge::Assume(budget, outstanding);

  BfsStatsShard stats;
  for (const SourceChunk& c : chunks) stats.Merge(c.stats);
  if (profile != nullptr) profile->AddBfs(stats);
  RecordEvalMetrics(n, num_chunks, stats);
  GMARK_RETURN_NOT_OK(scope.first_failure());

  if (materialize) {
    size_t total = 0;
    for (const SourceChunk& c : chunks) total += c.pairs.size();
    merged.pairs.reserve(total);
  }
  for (SourceChunk& c : chunks) {
    merged.count += c.count;
    if (materialize) {
      merged.pairs.insert(merged.pairs.end(), c.pairs.begin(), c.pairs.end());
      // Free each chunk's copy as it merges: the charged tuple count
      // covers one live copy, and bounding the transient duplication to
      // a single chunk keeps the physical footprint honest to it.
      NodePairs().swap(c.pairs);
    }
  }
  return merged;
}

}  // namespace

Result<uint64_t> RpqEvaluator::CountPairs(const Nfa& nfa,
                                          BudgetTracker* budget,
                                          EvalProfile* profile) const {
  // Counting still holds every accepted pair against the budget (the
  // paper's engines would); only the count survives the function, so
  // the merged guard releases the whole charge on return.
  GMARK_ASSIGN_OR_RETURN(
      MergedSources merged,
      ForEachSource(*graph_, nfa, opts_, /*materialize=*/false, budget,
                    profile));
  return merged.count;
}

Result<ChargedPairs> RpqEvaluator::MaterializePairs(
    const Nfa& nfa, BudgetTracker* budget, EvalProfile* profile) const {
  GMARK_ASSIGN_OR_RETURN(
      MergedSources merged,
      ForEachSource(*graph_, nfa, opts_, /*materialize=*/true, budget,
                    profile));
  return ChargedPairs(std::move(merged.pairs), std::move(merged.charge));
}

Result<ChargedPairs> RpqEvaluator::ConjunctPairs(const Conjunct& conjunct,
                                                BudgetTracker* budget,
                                                EvalProfile* profile) const {
  GMARK_ASSIGN_OR_RETURN(Nfa nfa, Nfa::FromRegex(conjunct.expr));
  return MaterializePairs(nfa, budget, profile);
}

Result<ChargedRelation> ReferenceEvaluator::EvaluateRuleJoin(
    const QueryRule& rule, BudgetTracker* budget, EvalContext* ctx,
    const RulePlan* plan, size_t conjunct_offset, size_t step_offset) const {
  EvalProfile* profile = ctx != nullptr ? ctx->profile : nullptr;
  // Callers without a plan (tests using this as an oracle) execute the
  // identity plan — the same code path, written order, forward.
  const RulePlan identity = RulePlan::Identity(rule);
  return ExecuteRulePlan(
      rule, plan != nullptr ? *plan : identity,
      [&](const Conjunct& c, size_t) {
        return rpq_.ConjunctPairs(c, budget, profile);
      },
      budget, profile, conjunct_offset, step_offset);
}

Result<uint64_t> ReferenceEvaluator::CountDistinct(
    const Query& query, const ResourceBudget& budget_spec,
    EvalContext* ctx) const {
  BudgetTracker budget(budget_spec);
  EvalProfile* profile = ctx != nullptr ? ctx->profile : nullptr;
  BudgetProfileScope budget_scope(profile, &budget);
  const QueryPlan plan = PlanOrIdentity(rpq_.options(), rpq_.graph(), query);
  RecordPlan(plan, profile);

  // Fast path: a single rule whose body is a chain and whose head is the
  // chain's endpoints — exactly the binary queries of the paper's
  // selectivity experiments. The chain composes into one RPQ. The
  // single automaton fixes conjunct order, but the whole chain can run
  // right-to-left when the plan estimates the reversed seed/frontier
  // side cheaper; the reversed chain accepts exactly the transposed
  // pair set, so distinct counts are unchanged.
  if (query.rules.size() == 1) {
    const QueryRule& rule = query.rules[0];
    auto chain = AsChain(rule);
    if (chain.ok()) {
      std::vector<Conjunct> conjuncts = chain.ValueOrDie();
      if (plan.rules[0].chain_backward) {
        std::vector<Conjunct> reversed;
        reversed.reserve(conjuncts.size());
        for (auto it = conjuncts.rbegin(); it != conjuncts.rend(); ++it) {
          Conjunct rc;
          rc.source = it->target;
          rc.target = it->source;
          rc.expr = ReverseRegex(it->expr);
          reversed.push_back(std::move(rc));
        }
        conjuncts = std::move(reversed);
      }
      VarId first_var = conjuncts.front().source;
      VarId last_var = conjuncts.back().target;
      const auto& head = rule.head;
      const bool endpoints_pair =
          head.size() == 2 &&
          ((head[0] == first_var && head[1] == last_var) ||
           (head[0] == last_var && head[1] == first_var)) &&
          first_var != last_var;
      if (endpoints_pair) {
        GMARK_ASSIGN_OR_RETURN(Nfa nfa, Nfa::FromConjunctChain(conjuncts));
        return rpq_.CountPairs(nfa, &budget, profile);
      }
      if (head.empty()) {
        // Boolean chain: any accepted pair suffices.
        GMARK_ASSIGN_OR_RETURN(Nfa nfa, Nfa::FromConjunctChain(conjuncts));
        GMARK_ASSIGN_OR_RETURN(uint64_t pairs,
                               rpq_.CountPairs(nfa, &budget, profile));
        return static_cast<uint64_t>(pairs > 0 ? 1 : 0);
      }
    }
  }

  // General path: the plan executor, one BFS per conjunct.
  return ExecutePlan(
      query, plan,
      [&](const Conjunct& c, size_t) {
        return rpq_.ConjunctPairs(c, &budget, profile);
      },
      &budget, profile);
}

}  // namespace gmark
