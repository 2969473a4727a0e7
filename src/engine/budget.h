// Resource budgets for query evaluation. The paper's §7 experiments
// observe engines failing on queries (timeouts, memory blowups); our
// simulated engines reproduce those outcomes honestly by charging their
// real work against a budget instead of hard-coding failures.
//
// Since the frontier-parallel evaluator landed, one query evaluation
// may charge from many pool workers at once. The multi-writer design is
// the long-planned per-worker fold, NOT atomics sprinkled on the plain
// tracker: each worker owns a private BudgetTracker whose charges also
// flow into one shared atomic balance (SharedBudgetState) that enforces
// the ceiling across workers, and a ConcurrentBudgetScope folds the
// per-worker counters back into the base tracker — in worker order, so
// the folded statistics are deterministic — when the parallel section
// ends.

#ifndef GMARK_ENGINE_BUDGET_H_
#define GMARK_ENGINE_BUDGET_H_

#include <atomic>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "util/mutex.h"
#include "util/status.h"
#include "util/thread_annotations.h"
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

/// \brief The fold point of one parallel section: a single atomic tuple
/// balance (plus its high-water mark) that every worker tracker's
/// charges and releases flow through, so the max_tuples ceiling is
/// enforced against the SUM of all workers' live tuples, not against
/// any one worker's share. Owned by a ConcurrentBudgetScope.
struct SharedBudgetState {
  // SAFETY: tuples/peak are the designed multi-writer cells — relaxed
  // RMW from every worker tracker in the scope (fetch_add/fetch_sub
  // and a CAS-max). No ordering is needed between workers: enforcement
  // only compares the running sum against an immutable ceiling, and
  // the deterministic statistics are folded single-threaded after
  // Executor::Wait() quiesces the workers.
  std::atomic<size_t> tuples{0};
  std::atomic<size_t> peak{0};
};

/// \brief Tracks consumption against a budget during one evaluation.
///
/// SAFETY: single-writer per tracker — every BudgetTracker instance
/// has exactly one writing owner at any time. A *base* tracker belongs
/// to the evaluating (main) thread; a *worker* tracker (created by
/// ConcurrentBudgetScope) belongs to exactly one pool worker for the
/// lifetime of the parallel section. The base tracker's plain fields
/// are never written while a scope over it is live (the main thread is
/// blocked in Executor::Wait()); workers observe the shared ceiling
/// only through SharedBudgetState's atomics and read the base's
/// deadline through the const CheckTime() path (an immutable budget
/// plus a monotonic clock read). Handing one tracker to two threads
/// remains the contract violation the TSan job catches — cross-worker
/// accounting goes through ConcurrentBudgetScope, never through a
/// shared tracker.
class BudgetTracker {
 public:
  explicit BudgetTracker(const ResourceBudget& budget) : budget_(budget) {}

  /// \brief Account for newly materialized tuples. Tuples must stay
  /// charged for as long as the materialization is live — a relation
  /// built from a pair vector holds a second copy, so both are charged
  /// until one is actually freed — otherwise the peak under-counts and
  /// the §7 memory-blowup reproduction under-fires.
  ///
  /// Worker trackers additionally push the charge into the scope's
  /// shared balance and enforce the ceiling against the cross-worker
  /// total; the attempted charge is recorded (locally and shared)
  /// before rejection, mirroring the serial tracker, so the unwind
  /// releases exactly what was counted.
  Status ChargeTuples(size_t count) {
    tuples_ += count;
    if (tuples_ > peak_tuples_) peak_tuples_ = tuples_;
    if (shared_ == nullptr) {
      if (tuples_ > budget_.max_tuples) return TupleBudgetExceeded(tuples_);
      return Status::OK();
    }
    const size_t total =
        shared_->tuples.fetch_add(count, std::memory_order_relaxed) + count;
    size_t peak = shared_->peak.load(std::memory_order_relaxed);
    while (total > peak &&
           !shared_->peak.compare_exchange_weak(peak, total,
                                                std::memory_order_relaxed)) {
    }
    if (total > budget_.max_tuples) return TupleBudgetExceeded(total);
    return Status::OK();
  }

  /// \brief Release tuples freed by the operator pipeline. Releasing
  /// more than is charged is a lifetime-accounting bug in the caller
  /// (exactly the class of bug the lifetime-charging fixes addressed):
  /// debug builds assert, release builds clamp to 0 but count the event
  /// so it surfaces in EvalProfile / the metric registry instead of
  /// being silently masked. Worker trackers mirror the (clamped)
  /// release into the shared balance so the cross-worker total stays
  /// exact.
  void ReleaseTuples(size_t count) {
    size_t released = count;
    if (count > tuples_) {
      ++over_releases_;
      assert(count <= tuples_ && "BudgetTracker over-release");
      released = tuples_;
      tuples_ = 0;
    } else {
      tuples_ -= count;
    }
    if (shared_ != nullptr && released != 0) {
      shared_->tuples.fetch_sub(released, std::memory_order_relaxed);
    }
  }

  /// \brief Account for tuples *scanned* (not materialized), e.g. the
  /// per-round rescans of fixpoint iteration. Monotone and purely
  /// observational: it never trips the budget, it exists so cost
  /// asymmetries between strategies (naive vs semi-naive, Table 4) are
  /// measurable deterministically.
  void ChargeScan(size_t count) { scanned_ += count; }

  /// \brief Check the wall-clock limit (call periodically). Worker
  /// trackers check against the BASE tracker's deadline — the query's
  /// clock started when the base tracker was constructed, not when the
  /// parallel section began. Const throughout (an immutable budget and
  /// a monotonic clock read), so it is safe from any worker.
  Status CheckTime() const {
    if (time_base_ != nullptr) return time_base_->CheckTime();
    if (timer_.ElapsedSeconds() > budget_.timeout_seconds) {
      return Status::ResourceExhausted("evaluation timed out");
    }
    return Status::OK();
  }

  size_t tuples_used() const { return tuples_; }
  /// \brief Whether this is a ConcurrentBudgetScope worker tracker,
  /// whose own balance is only its share of the enforced total.
  bool is_worker() const { return shared_ != nullptr; }
  /// \brief High-water mark of simultaneously charged tuples — the
  /// working-memory peak the max_tuples budget is enforced against.
  /// For a base tracker that hosted a parallel section this includes
  /// the folded cross-worker peak.
  size_t peak_tuples() const { return peak_tuples_; }
  size_t tuples_scanned() const { return scanned_; }
  /// \brief ReleaseTuples calls that exceeded the outstanding charge.
  size_t over_releases() const { return over_releases_; }
  double elapsed_seconds() const { return timer_.ElapsedSeconds(); }
  const ResourceBudget& budget() const { return budget_; }

 private:
  friend class ConcurrentBudgetScope;

  /// Worker-mode tracker: shares `shared`'s atomic balance and
  /// `time_base`'s deadline. Only ConcurrentBudgetScope constructs
  /// these.
  BudgetTracker(const ResourceBudget& budget, SharedBudgetState* shared,
                const BudgetTracker* time_base)
      : budget_(budget), shared_(shared), time_base_(time_base) {}

  Status TupleBudgetExceeded(size_t total) const {
    return Status::ResourceExhausted(
        "tuple budget exceeded (" + std::to_string(total) + " > " +
        std::to_string(budget_.max_tuples) + ")");
  }

  ResourceBudget budget_;
  WallTimer timer_;
  // SAFETY: plain counters under the single-writer-per-tracker
  // contract above; cross-worker totals live in *shared_, never here.
  size_t tuples_ = 0;
  size_t peak_tuples_ = 0;
  size_t scanned_ = 0;
  size_t over_releases_ = 0;
  // SAFETY: set once at construction, immutable afterwards — worker
  // trackers point into their owning ConcurrentBudgetScope (shared_)
  // and at the base tracker's const deadline (time_base_); base
  // trackers leave both null.
  SharedBudgetState* shared_ = nullptr;
  const BudgetTracker* time_base_ = nullptr;
};

/// \brief One parallel section's budget enforcement: per-worker
/// trackers over one shared atomic balance, folded back into the base
/// tracker deterministically when the section ends.
///
/// Protocol (see CONTRIBUTING.md, "Concurrency rules"):
///   1. Construct over the base tracker with the worker count; the
///      shared balance is seeded with the base's outstanding tuples so
///      earlier (serial) charges count against the ceiling.
///   2. Each task charges/releases ONLY through worker(w) for the
///      worker id it runs on (ThreadPool::CurrentWorkerId()), via
///      TupleCharge guards as everywhere else. Charges a task wants to
///      survive the section are Disarm()ed onto the worker tracker.
///   3. A failing task calls ReportFailure(task_index, status); the
///      lowest task index wins, so the reported error is deterministic
///      even though which tasks observe the shared ceiling first is
///      not. From then on failed() reads true: tasks poll it to skip
///      or stop work whose result the failed section discards.
///   4. After Executor::Wait(), the owner calls Fold() exactly once:
///      per-worker scanned/over-release counters and the outstanding
///      tuple balances are folded into the base IN WORKER ORDER, the
///      shared peak is folded into the base peak, and the outstanding
///      total is returned for the caller to re-guard via
///      TupleCharge::Assume (releasing that guard on the failure path
///      restores the base balance exactly).
///
/// Determinism: on success every charge is matched by a worker-order
/// fold, so the base tracker's balance, peak, and scan counts are
/// functions of the work alone. On a budget-killed run the fold is
/// still exact, but the peak depends on how far other workers got
/// before observing the failure; the documented bound is
///   ceiling < peak_tuples <= peak of an unlimited serial run
/// for tuple kills (every recorded charge is one the unlimited serial
/// run records too), and peak <= the unlimited serial peak for time
/// kills.
class ConcurrentBudgetScope {
 public:
  /// \brief `workers` is the number of per-worker trackers, typically
  /// Executor::workers() + 1 so ThreadPool::CurrentWorkerId() (0 for
  /// the calling thread, 1..N for pool workers) indexes directly.
  ConcurrentBudgetScope(BudgetTracker* base, int workers) : base_(base) {
    shared_.tuples.store(base->tuples_, std::memory_order_relaxed);
    shared_.peak.store(base->peak_tuples_, std::memory_order_relaxed);
    workers_.reserve(static_cast<size_t>(workers < 1 ? 1 : workers));
    for (int w = 0; w < (workers < 1 ? 1 : workers); ++w) {
      workers_.emplace_back(std::unique_ptr<BudgetTracker>(
          new BudgetTracker(base->budget_, &shared_, base)));
    }
  }

  ConcurrentBudgetScope(const ConcurrentBudgetScope&) = delete;
  ConcurrentBudgetScope& operator=(const ConcurrentBudgetScope&) = delete;

  ~ConcurrentBudgetScope() {
    const size_t leaked = Fold();
    (void)leaked;
    assert(leaked == 0 &&
           "outstanding worker charges at scope destruction — call Fold() "
           "and guard the returned total with TupleCharge::Assume");
  }

  int worker_count() const { return static_cast<int>(workers_.size()); }

  /// \brief The tracker owned by worker `w` (0 <= w < worker_count()).
  /// Each tracker must only ever be used from the one thread that owns
  /// index `w` during the section.
  BudgetTracker& worker(int w) { return *workers_[static_cast<size_t>(w)]; }

  /// \brief Record a failed task. Thread-safe; the failure with the
  /// LOWEST task index is the one first_failure() reports, making the
  /// reported error independent of scheduling.
  void ReportFailure(size_t task_index, Status status) EXCLUDES(mu_) {
    failed_.store(true, std::memory_order_relaxed);
    MutexLock lock(mu_);
    if (task_index < failure_index_) {
      failure_index_ = task_index;
      failure_ = std::move(status);
    }
  }

  /// \brief Whether any task has reported a failure yet. Thread-safe
  /// and cheap enough to poll per unit of work.
  bool failed() const { return failed_.load(std::memory_order_relaxed); }

  /// \brief The winning failure (OK when every task succeeded). Call
  /// after the section quiesced (Executor::Wait()).
  Status first_failure() const EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return failure_;
  }

  /// \brief Fold per-worker counters into the base tracker (worker
  /// order) and return the outstanding tuple total now parked on the
  /// base — the caller must immediately re-guard it with
  /// TupleCharge::Assume(base, total). Idempotent; called by the
  /// destructor as a backstop (which asserts nothing was outstanding).
  size_t Fold() {
    if (folded_) return 0;
    folded_ = true;
    size_t outstanding = 0;
    for (std::unique_ptr<BudgetTracker>& w : workers_) {
      base_->scanned_ += w->scanned_;
      base_->over_releases_ += w->over_releases_;
      outstanding += w->tuples_;
      w->tuples_ = 0;
    }
    base_->tuples_ += outstanding;
    const size_t shared_peak = shared_.peak.load(std::memory_order_relaxed);
    if (shared_peak > base_->peak_tuples_) base_->peak_tuples_ = shared_peak;
    assert(base_->tuples_ == shared_.tuples.load(std::memory_order_relaxed) &&
           "shared balance and folded per-worker balances disagree");
    return outstanding;
  }

 private:
  // SAFETY: base_ and workers_ (the vector itself) are set in the
  // constructor and never reseated; workers only go through the
  // BudgetTracker references handed out by worker(w), one owner per
  // index. folded_ belongs to the owning (main) thread alone — Fold()
  // runs after Executor::Wait() has quiesced every worker.
  BudgetTracker* base_;
  SharedBudgetState shared_;
  std::vector<std::unique_ptr<BudgetTracker>> workers_;
  bool folded_ = false;
  // SAFETY: a relaxed multi-writer flag, set by ReportFailure and only
  // ever polled. It orders no other memory: the failure itself is
  // published under mu_, and the section's results and accounting are
  // read after Executor::Wait(). A task that reads it late merely does
  // work the failed section discards; it never decides a result.
  std::atomic<bool> failed_{false};
  mutable Mutex mu_;
  size_t failure_index_ GUARDED_BY(mu_) =
      std::numeric_limits<size_t>::max();
  Status failure_ GUARDED_BY(mu_);
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

  explicit PeriodicTimeCheck(BudgetTracker* budget,
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
  // SAFETY: single-writer, same contract as the tracker it wraps —
  // one PeriodicTimeCheck per tracker owner. The frontier-parallel
  // evaluator honors this by giving every chunk task its own checker
  // over that worker's tracker (whose CheckTime reads the base
  // deadline through the const path); a checker is never shared
  // across tasks or threads.
  BudgetTracker* budget_;
  uint32_t period_;
  uint32_t countdown_;
};

}  // namespace gmark

#endif  // GMARK_ENGINE_BUDGET_H_
