// Fixture: the concurrent-budget-scope shape with its protection
// stated, in the style of the real SAFETY contracts — the shared fold
// counters sit under a `// SAFETY:` block naming the relaxed-RMW
// protocol, and the failure slot is GUARDED_BY the scope mutex.
#include "decls.h"

namespace gmark {

struct SharedFoldState {
  // SAFETY: multi-writer atomics — workers fetch_add(relaxed) into
  // tuples and CAS-max into peak during the fan-out; the owning scope
  // reads them exactly once, after the executor Wait() joins every
  // worker (a happens-before edge), in Fold().
  std::atomic<unsigned long> tuples;
  std::atomic<unsigned long> peak;
};

class BudgetScope {
 public:
  void ReportFailure(unsigned long task_index, Status status);
  Status first_failure() const;

 private:
  Mutex mu_;
  unsigned long failure_index_ GUARDED_BY(mu_);
};

}  // namespace gmark
