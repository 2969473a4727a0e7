#include "obs/eval_profile.h"

#include "engine/budget.h"
#include "util/string_util.h"

namespace gmark {

void EvalProfile::RecordBudget(const BudgetTracker& tracker) {
  peak_tuples = tracker.peak_tuples();
  tuples_scanned = tracker.tuples_scanned();
  over_releases = tracker.over_releases();
  const size_t max_tuples = tracker.budget().max_tuples;
  tuple_headroom =
      max_tuples > peak_tuples ? max_tuples - peak_tuples : 0;
}

std::string EvalProfile::ToJson() const {
  auto flag = [](bool b) { return b ? "true" : "false"; };
  std::string out = "{\"conjuncts\": [";
  bool first = true;
  for (const ConjunctProfile& c : conjuncts) {
    StrAppend(&out, first ? "" : ", ", "{\"rows\": ", c.rows,
              ", \"seconds\": ", FormatFixed(c.seconds, 6),
              ", \"fixpoint_rounds\": ", c.fixpoint_rounds, '}');
    first = false;
  }
  StrAppend(&out, "], \"planned\": ", flag(planned),
            ", \"chain_backward\": ", flag(chain_backward),
            ", \"plan_steps\": [");
  first = true;
  for (const PlanStepProfile& s : plan_steps) {
    StrAppend(&out, first ? "" : ", ", "{\"conjunct\": ", s.conjunct,
              ", \"position\": ", s.position,
              ", \"backward\": ", flag(s.backward),
              ", \"seed_backward\": ", flag(s.seed_backward),
              ", \"est_rows\": ", FormatFixed(s.est_rows, 1),
              ", \"actual_rows\": ", s.actual_rows, '}');
    first = false;
  }
  StrAppend(&out, "], \"bfs_pops\": ", bfs_pops,
            ", \"bfs_peak_frontier\": ", bfs_peak_frontier,
            ", \"fixpoint_rounds\": ", fixpoint_rounds,
            ", \"peak_tuples\": ", peak_tuples,
            ", \"tuples_scanned\": ", tuples_scanned,
            ", \"tuple_headroom\": ", tuple_headroom,
            ", \"over_releases\": ", over_releases, '}');
  return out;
}

std::string EvalProfile::ToString() const {
  std::string out = StrCat("peak_tuples=", peak_tuples,
                           " scanned=", tuples_scanned,
                           " headroom=", tuple_headroom);
  if (bfs_pops > 0) {
    StrAppend(&out, " bfs_pops=", bfs_pops,
              " peak_frontier=", bfs_peak_frontier);
  }
  if (fixpoint_rounds > 0) {
    StrAppend(&out, " fixpoint_rounds=", fixpoint_rounds);
  }
  if (over_releases > 0) StrAppend(&out, " over_releases=", over_releases);
  out.append(" conjuncts=[");
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    StrAppend(&out, i == 0 ? "" : " ", conjuncts[i].rows, " rows/",
              FormatFixed(conjuncts[i].seconds, 3), 's');
  }
  out.push_back(']');
  if (planned) {
    out.append(" plan=[");
    for (size_t i = 0; i < plan_steps.size(); ++i) {
      const PlanStepProfile& s = plan_steps[i];
      StrAppend(&out, i == 0 ? "" : " ", '#', s.conjunct,
                s.backward ? "<" : ">", s.seed_backward ? "~" : "",
                " est=", FormatFixed(s.est_rows, 1), " act=", s.actual_rows);
    }
    out.push_back(']');
    if (chain_backward) out.append(" chain_backward");
  }
  return out;
}

}  // namespace gmark
