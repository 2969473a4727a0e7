// Clang thread-safety (capability) analysis macros.
//
// These expand to Clang's `capability` attributes when the compiler
// supports them (`-Wthread-safety`, promoted to an error in the CI
// static-analysis job) and to nothing everywhere else, so GCC/MSVC
// builds are unaffected. The vocabulary follows the upstream analysis
// documentation (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html)
// and the Abseil/Chromium macro sets, unprefixed because this repo has
// a single namespace of concurrency primitives.
//
// What to annotate, repo policy:
//   * Every field protected by a mutex gets GUARDED_BY(mu).
//   * Every function that must be called with a mutex held gets
//     REQUIRES(mu); helpers that must NOT hold it get EXCLUDES(mu).
//   * Lock-free invariants the capability system cannot express —
//     single-writer shard slots, relaxed-atomic counters, phase-based
//     hand-off ("set once in the constructor") — are documented at the
//     field or function with a `// SAFETY:` contract instead. A SAFETY
//     contract states WHO may touch the data WHEN, and which barrier
//     (task completion, Executor::Wait, Reset-before-tasks) publishes
//     it. The determinism lint does not parse these, but reviewers and
//     the TSan job hold code to them.
//
// Use the annotated wrappers in util/mutex.h (Mutex / MutexLock /
// CondVar) rather than raw std::mutex: libstdc++'s std::mutex carries
// no capability attributes, so the analysis cannot see raw lock_guard
// acquisitions.

#ifndef GMARK_UTIL_THREAD_ANNOTATIONS_H_
#define GMARK_UTIL_THREAD_ANNOTATIONS_H_

#if defined(__clang__)
#define GMARK_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define GMARK_THREAD_ANNOTATION(x)
#endif

/// Type is a lockable capability (apply to mutex wrapper classes).
#define CAPABILITY(x) GMARK_THREAD_ANNOTATION(capability(x))

/// Type is an RAII object that acquires a capability in its
/// constructor and releases it in its destructor.
#define SCOPED_CAPABILITY GMARK_THREAD_ANNOTATION(scoped_lockable)

/// Field is protected by the given capability.
#define GUARDED_BY(x) GMARK_THREAD_ANNOTATION(guarded_by(x))

/// Pointed-to data (not the pointer itself) is protected by the
/// capability.
#define PT_GUARDED_BY(x) GMARK_THREAD_ANNOTATION(pt_guarded_by(x))

/// Caller must hold the capability (exclusively).
#define REQUIRES(...) \
  GMARK_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/// Caller must hold the capability (shared).
#define REQUIRES_SHARED(...) \
  GMARK_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/// Function acquires the capability and holds it on return.
#define ACQUIRE(...) \
  GMARK_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/// Function releases the capability (which must be held on entry).
#define RELEASE(...) \
  GMARK_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/// Caller must NOT hold the capability (non-reentrancy guard).
#define EXCLUDES(...) GMARK_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/// Function returns a reference to the given capability.
#define RETURN_CAPABILITY(x) GMARK_THREAD_ANNOTATION(lock_returned(x))

/// Assert (at analysis level) that the capability is held.
#define ASSERT_CAPABILITY(x) GMARK_THREAD_ANNOTATION(assert_capability(x))

/// Escape hatch: disables the analysis for one function. Every use
/// must carry a comment explaining why the analysis cannot see the
/// invariant that makes the function safe.
#define NO_THREAD_SAFETY_ANALYSIS \
  GMARK_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif  // GMARK_UTIL_THREAD_ANNOTATIONS_H_
