#include "plan/plan.h"

#include "obs/eval_profile.h"
#include "util/string_util.h"

namespace gmark {

RulePlan RulePlan::Identity(const QueryRule& rule) {
  RulePlan plan;
  plan.steps.resize(rule.body.size());
  for (size_t i = 0; i < plan.steps.size(); ++i) {
    plan.steps[i].conjunct = static_cast<uint32_t>(i);
  }
  return plan;
}

QueryPlan QueryPlan::Identity(const Query& query) {
  QueryPlan plan;
  for (const QueryRule& rule : query.rules) {
    plan.rules.push_back(RulePlan::Identity(rule));
  }
  return plan;
}

std::string QueryPlan::ToString() const {
  std::string out;
  for (size_t r = 0; r < rules.size(); ++r) {
    StrAppend(&out, r > 0 ? " r" : "r", r, '[');
    for (size_t i = 0; i < rules[r].steps.size(); ++i) {
      const PlanStep& s = rules[r].steps[i];
      StrAppend(&out, i > 0 ? " #" : "#", s.conjunct,
                s.backward ? "<~" : ">");
    }
    out += rules[r].chain_backward ? "]R" : "]";
  }
  return out;
}

Conjunct EffectiveConjunct(const Conjunct& conjunct, const PlanStep& step) {
  if (!step.backward) return conjunct;
  Conjunct rev;
  rev.source = conjunct.target;
  rev.target = conjunct.source;
  rev.expr = ReverseRegex(conjunct.expr);
  return rev;
}

void RecordPlan(const QueryPlan& plan, EvalProfile* profile) {
  if (profile == nullptr) return;
  profile->planned = plan.planned;
  profile->chain_backward =
      plan.rules.size() == 1 && plan.rules[0].chain_backward;
  profile->plan_steps.clear();
  for (const RulePlan& rule : plan.rules) {
    for (size_t pos = 0; pos < rule.steps.size(); ++pos) {
      const PlanStep& s = rule.steps[pos];
      PlanStepProfile out;
      out.conjunct = s.conjunct;
      out.position = static_cast<uint32_t>(pos);
      out.backward = s.backward;
      out.seed_backward = s.backward;
      out.est_rows = s.est_rows;
      profile->plan_steps.push_back(out);
    }
  }
}

}  // namespace gmark
