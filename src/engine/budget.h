// Resource budgets for query evaluation. The paper's §7 experiments
// observe engines failing on queries (timeouts, memory blowups); our
// simulated engines reproduce those outcomes honestly by charging their
// real work against a budget instead of hard-coding failures.
//
// A BudgetTracker is a plain single-threaded counter. The one parallel
// section that charges tuples, the source fan-out of the RPQ evaluator
// (evaluator.cc), does not share a tracker: it reads the tracker's
// headroom before the fan-out, counts into one atomic of its own, and
// charges the tracker once after Executor::Wait().

#ifndef GMARK_ENGINE_BUDGET_H_
#define GMARK_ENGINE_BUDGET_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>

#include "util/status.h"
#include "util/timer.h"

namespace gmark {

/// \brief Limits for one query evaluation.
struct ResourceBudget {
  /// Wall-clock limit in seconds.
  double timeout_seconds = std::numeric_limits<double>::infinity();
  /// Maximum number of materialized tuples (working memory proxy).
  size_t max_tuples = std::numeric_limits<size_t>::max();

  static ResourceBudget Unlimited() { return ResourceBudget{}; }
  static ResourceBudget Limited(double seconds, size_t tuples) {
    return ResourceBudget{seconds, tuples};
  }
};

/// \brief Tracks consumption against a budget during one evaluation.
///
/// SAFETY: single-writer — a tracker belongs to the one thread that
/// runs the evaluation and never crosses threads. A parallel section's
/// tasks may only read its deadline, through the const CheckTime(),
/// while the owner is blocked in Executor::Wait(); the owner charges it
/// after Wait() returns. Handing one tracker to two writing threads is
/// the contract violation the TSan job catches.
class BudgetTracker {
 public:
  explicit BudgetTracker(const ResourceBudget& budget) : budget_(budget) {}

  /// \brief Account for newly materialized tuples. Tuples must stay
  /// charged for as long as the materialization is live — a relation
  /// built from a pair vector holds a second copy, so both are charged
  /// until one is actually freed — otherwise the peak under-counts and
  /// the §7 memory-blowup reproduction under-fires. The attempted
  /// charge is recorded before rejection, so the unwind releases
  /// exactly what was counted.
  Status ChargeTuples(size_t count) {
    tuples_ += count;
    if (tuples_ > peak_tuples_) peak_tuples_ = tuples_;
    if (tuples_ > budget_.max_tuples) return TupleBudgetExceeded();
    return Status::OK();
  }

  /// \brief Release tuples freed by the operator pipeline. Releasing
  /// more than is charged is a lifetime-accounting bug in the caller
  /// (exactly the class of bug the lifetime-charging fixes addressed):
  /// debug builds assert, release builds clamp to 0 but count the event
  /// so it surfaces in EvalProfile / the metric registry instead of
  /// being silently masked.
  void ReleaseTuples(size_t count) {
    if (count > tuples_) {
      ++over_releases_;
      assert(count <= tuples_ && "BudgetTracker over-release");
      tuples_ = 0;
    } else {
      tuples_ -= count;
    }
  }

  /// \brief Account for tuples *scanned* (not materialized), e.g. the
  /// per-round rescans of fixpoint iteration. Monotone and purely
  /// observational: it never trips the budget, it exists so cost
  /// asymmetries between strategies (naive vs semi-naive, Table 4) are
  /// measurable deterministically.
  void ChargeScan(size_t count) { scanned_ += count; }

  /// \brief Check the wall-clock limit (call periodically). Const
  /// throughout (an immutable budget and a monotonic clock read), so a
  /// parallel section's tasks may call it while the owner waits.
  Status CheckTime() const {
    if (timer_.ElapsedSeconds() > budget_.timeout_seconds) {
      return Status::ResourceExhausted("evaluation timed out");
    }
    return Status::OK();
  }

  size_t tuples_used() const { return tuples_; }
  /// \brief High-water mark of simultaneously charged tuples — the
  /// working-memory peak the max_tuples budget is enforced against.
  size_t peak_tuples() const { return peak_tuples_; }
  size_t tuples_scanned() const { return scanned_; }
  /// \brief ReleaseTuples calls that exceeded the outstanding charge.
  size_t over_releases() const { return over_releases_; }
  double elapsed_seconds() const { return timer_.ElapsedSeconds(); }
  const ResourceBudget& budget() const { return budget_; }

 private:
  Status TupleBudgetExceeded() const {
    return Status::ResourceExhausted(
        "tuple budget exceeded (" + std::to_string(tuples_) + " > " +
        std::to_string(budget_.max_tuples) + ")");
  }

  ResourceBudget budget_;
  WallTimer timer_;
  size_t tuples_ = 0;
  size_t peak_tuples_ = 0;
  size_t scanned_ = 0;
  size_t over_releases_ = 0;
};

/// \brief Amortizes BudgetTracker::CheckTime over hot per-element
/// loops: one real clock read every `period` Check() calls. The
/// evaluator's BFS loops pop millions of product states per second — a
/// clock syscall per pop would dominate the traversal, while checking
/// only between sources lets one dense source overshoot the timeout
/// unboundedly. Every ~4096 pops is the middle ground: overshoot is
/// bounded by ~4096 pops of work, and the clock cost is amortized to
/// noise.
class PeriodicTimeCheck {
 public:
  static constexpr uint32_t kDefaultPeriod = 4096;

  explicit PeriodicTimeCheck(const BudgetTracker* budget,
                             uint32_t period = kDefaultPeriod)
      : budget_(budget),
        period_(period == 0 ? 1 : period),
        countdown_(period_) {}

  /// \brief Cheap on all but every period-th call.
  Status Check() {
    if (--countdown_ > 0) return Status::OK();
    countdown_ = period_;
    return budget_->CheckTime();
  }

 private:
  // SAFETY: single-writer — a checker's countdown belongs to one task
  // and is never shared across tasks or threads. The tracker is only
  // read, through the const CheckTime(), so the evaluator's parallel
  // chunks each own a checker over the same (waiting) tracker.
  const BudgetTracker* budget_;
  uint32_t period_;
  uint32_t countdown_;
};

}  // namespace gmark

#endif  // GMARK_ENGINE_BUDGET_H_
