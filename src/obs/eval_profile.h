// Per-query evaluation profiles: where a query's time and memory went.
//
// An EvalContext rides through QueryEngine::Evaluate (and the reference
// evaluator) as an optional pointer. It carries one EvalProfile, which
// engines fill with per-conjunct rows/seconds, BFS pop and frontier
// statistics, fixpoint round counts, and the BudgetTracker's
// peak/scanned/headroom numbers. A null context or profile costs the
// engines one pointer test per recording site — evaluation output never
// depends on whether a profile is attached.

#ifndef GMARK_OBS_EVAL_PROFILE_H_
#define GMARK_OBS_EVAL_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

namespace gmark {

class BudgetTracker;
struct ResourceBudget;

/// \brief Observed cost of one body conjunct.
struct ConjunctProfile {
  /// Result rows the conjunct materialized (match count for the DFS
  /// engine, which never materializes a conjunct relation).
  uint64_t rows = 0;
  /// Wall seconds spent producing the conjunct. Inclusive of deeper
  /// conjuncts for the DFS engine (its recursion interleaves them);
  /// exclusive for the materializing engines: the conjunct relation up
  /// to its charge, not the join it feeds, and also when the budget
  /// kills the step.
  double seconds = 0.0;
  /// Fixpoint rounds this conjunct's Kleene closure ran (0 if no star).
  uint64_t fixpoint_rounds = 0;
};

/// \brief BFS statistics accumulated privately by one worker's chunk of
/// sources (or by the whole serial pass), merged into an EvalProfile in
/// chunk order after the parallel section quiesces. Pops add and peaks
/// max, so the merged totals equal the serial pass's numbers exactly —
/// the obs identity tests pin this.
struct BfsStatsShard {
  uint64_t pops = 0;           ///< Product-graph states popped.
  uint64_t peak_frontier = 0;  ///< Max pending-stack size in the shard.

  void Merge(const BfsStatsShard& other) {
    pops += other.pops;
    if (other.peak_frontier > peak_frontier) {
      peak_frontier = other.peak_frontier;
    }
  }
};

/// \brief One executed plan step: which conjunct ran at which position,
/// in which direction, and how the planner's estimate compared to the
/// rows the step actually produced. Engines record the whole plan
/// before evaluating, so budget-killed queries keep their plan (steps
/// that never ran report actual_rows = 0).
struct PlanStepProfile {
  uint32_t conjunct = 0;      ///< Index into the rule body as written.
  uint32_t position = 0;      ///< Execution position within the rule.
  bool backward = false;      ///< Step ran over the backward CSR.
  bool seed_backward = false; ///< Kleene fixpoint seeded from the target side.
  double est_rows = -1.0;     ///< Planner's row estimate (-1 = identity plan).
  uint64_t actual_rows = 0;   ///< Rows the executed step produced.

  bool operator==(const PlanStepProfile&) const = default;
};

/// \brief Everything observed about one evaluation.
struct EvalProfile {
  /// One entry per body conjunct, concatenated across rules in rule
  /// order (the paper's workloads are single-rule).
  std::vector<ConjunctProfile> conjuncts;

  /// Executed plan: rule order, each rule's steps in execution order.
  std::vector<PlanStepProfile> plan_steps;
  bool planned = false;         ///< Plan came from the Planner (not identity).
  bool chain_backward = false;  ///< Chain fast path ran right-to-left.

  // BFS evaluator statistics (S engine and the reference evaluator).
  uint64_t bfs_pops = 0;           ///< Product-graph states popped.
  uint64_t bfs_peak_frontier = 0;  ///< Max pending-stack size.

  uint64_t fixpoint_rounds = 0;  ///< Total across conjuncts.

  // BudgetTracker tuple accounting at evaluation end.
  uint64_t peak_tuples = 0;     ///< High-water mark of charged tuples.
  uint64_t tuples_scanned = 0;  ///< Observational scan charge.
  uint64_t tuple_headroom = 0;  ///< max_tuples - peak (saturating).
  uint64_t over_releases = 0;   ///< ReleaseTuples calls exceeding charge.

  /// \brief Grow-on-demand access to conjuncts[i].
  ConjunctProfile& Conjunct(size_t i) {
    if (conjuncts.size() <= i) conjuncts.resize(i + 1);
    return conjuncts[i];
  }

  /// \brief Add rows actually produced by the plan step at global
  /// execution index `step` (no-op when no plan was recorded).
  void RecordPlanStepRows(size_t step, uint64_t rows) {
    if (step < plan_steps.size()) plan_steps[step].actual_rows += rows;
  }

  /// \brief Fold one worker's BFS statistics in (call in chunk order).
  void AddBfs(const BfsStatsShard& shard) {
    bfs_pops += shard.pops;
    if (shard.peak_frontier > bfs_peak_frontier) {
      bfs_peak_frontier = shard.peak_frontier;
    }
  }

  /// \brief Copy the tracker's final accounting (and the budget's
  /// headroom) into this profile. Engines call it on every exit path.
  void RecordBudget(const BudgetTracker& tracker);

  /// \brief Deterministic JSON object (schema documented in README).
  std::string ToJson() const;
  /// \brief One compact human-readable line, e.g. for failure tables.
  std::string ToString() const;
};

/// \brief Optional observability context threaded through evaluation.
/// The profile may be null; engines must work identically without one.
struct EvalContext {
  EvalProfile* profile = nullptr;
};

/// \brief RAII: snapshots a BudgetTracker into a profile on scope exit,
/// success and failure alike — a budget-killed query is exactly the one
/// whose accounting must survive to classify the failure.
class BudgetProfileScope {
 public:
  BudgetProfileScope(EvalProfile* profile, const BudgetTracker* tracker)
      : profile_(profile), tracker_(tracker) {}
  BudgetProfileScope(const BudgetProfileScope&) = delete;
  BudgetProfileScope& operator=(const BudgetProfileScope&) = delete;
  ~BudgetProfileScope() {
    if (profile_ != nullptr) profile_->RecordBudget(*tracker_);
  }

 private:
  EvalProfile* profile_;
  const BudgetTracker* tracker_;
};

}  // namespace gmark

#endif  // GMARK_OBS_EVAL_PROFILE_H_
