// Fixture: the concurrent-budget-scope shape with its protection
// stripped. The shared fold state's atomics carry no SAFETY comment,
// and the failure slot sits next to a Mutex with no GUARDED_BY — the
// exact mistakes the real SAFETY contracts exist to
// prevent. All three fields must be flagged.
#include "decls.h"

namespace gmark {

struct SharedFoldState {
  std::atomic<unsigned long> tuples;
  std::atomic<unsigned long> peak;
};

class BudgetScope {
 public:
  void ReportFailure(unsigned long task_index, Status status);
  Status first_failure() const;

 private:
  Mutex mu_;
  unsigned long failure_index_;
};

}  // namespace gmark
