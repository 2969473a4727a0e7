// Fixture: the plan-step executor shape (src/engine/engine_common.cc's
// ExecuteRulePlan) done right — steps iterate a vector in
// plan order (never an unordered container), every Status/Result is
// consumed, and tuples flow through the RAII charge layer only; the
// raw tracker protocol never appears outside engine/charge.h. Must
// produce zero findings.
#include "decls.h"
#include "engine/charge.h"

namespace gmark {

struct PlanStep {
  unsigned long conjunct;
  bool backward;
};

struct StepResult {
  unsigned long rows;
};

Result<StepResult> ExecuteStep(const PlanStep& step, ScopedCharge* charge);

Status ExecutePlan(const std::vector<PlanStep>& steps,
                   BudgetTracker* tracker) {
  // One scope per rule: the charge for every step's rows unwinds with
  // the scope on both the success and the budget-killed path.
  ScopedCharge charge(tracker);
  for (const PlanStep& step : steps) {
    Result<StepResult> result = ExecuteStep(step, &charge);
    if (!result.ok()) return result.status();
    Status charged = charge.Charge(result.ValueOrDie().rows);
    if (!charged.ok()) return charged;
  }
  return Status();
}

}  // namespace gmark
