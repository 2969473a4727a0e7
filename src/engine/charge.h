// RAII tuple-charge guards over BudgetTracker.
//
// PR 5 fixed a ~2x peak-memory under-count caused by hand-paired
// ChargeTuples/ReleaseTuples calls releasing a pair vector's share
// while a relation copy built from it was still live and uncharged.
// Every such call pair is a latent copy of that bug, so the raw
// protocol is banned outside this header and budget.h (enforced by
// tools/analyze/, rule `raw-charge`): materializations hold a
// TupleCharge whose destructor releases exactly what was charged,
// making release-without-charge and charge-without-release
// structurally unwritable. See CONTRIBUTING.md, "Tuple-charge
// protocol".

#ifndef GMARK_ENGINE_CHARGE_H_
#define GMARK_ENGINE_CHARGE_H_

#include <cassert>
#include <cstddef>
#include <utility>

#include "engine/budget.h"
#include "util/status.h"

namespace gmark {

/// \brief Move-only guard owning the tuple charge of one
/// materialization (a pair vector, a relation, a DFS result set).
///
/// Charges accumulate through Charge() and are released exactly once,
/// by the destructor (or by a move-assignment over the guard). A failed
/// Charge() is still recorded — the tracker counts the tuples before
/// rejecting them, so the unwind must release them too or the tracker
/// would never return to zero.
///
/// The guard must not outlive the BudgetTracker it charges against;
/// use Disarm() when a charged value's ownership genuinely leaves the
/// tracker's scope.
///
/// SAFETY: same single-writer contract as the BudgetTracker it wraps —
/// guards belong to the one thread that owns their tracker. In the
/// frontier-parallel evaluator that means a guard over a
/// ConcurrentBudgetScope worker tracker lives and dies on that worker;
/// charges that outlive the parallel section are Disarm()ed onto the
/// worker tracker, folded into the base tracker by the scope, and
/// re-guarded on the base via Assume().
class TupleCharge {
 public:
  /// \brief Disarmed guard: holds no tracker and no charge.
  TupleCharge() = default;
  /// \brief Armed guard with zero charge against `budget`.
  explicit TupleCharge(BudgetTracker* budget) : budget_(budget) {}

  /// \brief Guard over `count` tuples ALREADY charged on `budget` —
  /// the inverse of Disarm(), and the only way charges cross a
  /// ConcurrentBudgetScope fold without leaking: the scope's Fold()
  /// moves the workers' outstanding balances onto the base tracker and
  /// returns the total, which the caller immediately re-guards here so
  /// the unwind path still releases exactly what is charged.
  static TupleCharge Assume(BudgetTracker* budget, size_t count) {
    TupleCharge charge(budget);
    charge.count_ = count;
    return charge;
  }

  TupleCharge(TupleCharge&& other) noexcept
      : budget_(other.budget_), count_(other.count_) {
    other.budget_ = nullptr;
    other.count_ = 0;
  }

  /// \brief Releases the charge currently held, then takes over
  /// `other`'s — the idiom for "this materialization replaces that
  /// one" (e.g. a join output replacing the accumulator it consumed).
  TupleCharge& operator=(TupleCharge&& other) noexcept {
    if (this != &other) {
      ReleaseAll();
      budget_ = other.budget_;
      count_ = other.count_;
      other.budget_ = nullptr;
      other.count_ = 0;
    }
    return *this;
  }

  TupleCharge(const TupleCharge&) = delete;
  TupleCharge& operator=(const TupleCharge&) = delete;

  ~TupleCharge() { ReleaseAll(); }

  /// \brief Charge `count` more tuples against the tracker. On failure
  /// the charge is still recorded here (mirroring the tracker, which
  /// counts before rejecting), so unwinding releases it and the
  /// tracker's balance — and its over_releases counter — stay exact.
  Status Charge(size_t count) {
    assert(budget_ != nullptr && "Charge() on a disarmed TupleCharge");
    count_ += count;
    return budget_->ChargeTuples(count);
  }

  /// \brief Forget the held charge without releasing it; returns the
  /// forgotten count. The tuples stay charged on the tracker — for
  /// values whose ownership leaves the tracker's scope, and for tests
  /// constructing precise accounting states. Not an error-path tool:
  /// failed charges should unwind through the destructor, which keeps
  /// the tracker's balance exact.
  size_t Disarm() {
    size_t forgotten = count_;
    count_ = 0;
    return forgotten;
  }

  /// \brief Tuples currently held by this guard.
  size_t count() const { return count_; }
  BudgetTracker* budget() const { return budget_; }

 private:
  void ReleaseAll() {
    if (budget_ != nullptr && count_ != 0) budget_->ReleaseTuples(count_);
    count_ = 0;
  }

  BudgetTracker* budget_ = nullptr;
  size_t count_ = 0;
};

/// \brief A value paired with the guard holding its tuple charge: the
/// return type of every materializing engine primitive. Destroying the
/// pair frees the value and releases its charge in one step, so the
/// "released while a copy was still live" bug class cannot be written.
/// Move-only (the guard is), so a second, uncharged copy of the value
/// cannot silently share the charge either.
template <typename T>
struct Charged {
  T value{};
  TupleCharge charge{};

  Charged() = default;
  Charged(T v, TupleCharge c)
      : value(std::move(v)), charge(std::move(c)) {}
};

}  // namespace gmark

#endif  // GMARK_ENGINE_CHARGE_H_
