// Fixed-size worker pool for the parallel graph generator.
//
// Deliberately minimal: a single FIFO queue, no work stealing, no task
// priorities. The generator's tasks are coarse (one slot-vector chunk
// or one edge-emission chunk each, ~chunk_size elements), so a shared
// queue is contended only at task granularity, never per element — the
// simplicity buys determinism-friendly reasoning at negligible cost.

#ifndef GMARK_PARALLEL_THREAD_POOL_H_
#define GMARK_PARALLEL_THREAD_POOL_H_

#include <cstddef>
#include <deque>
#include <functional>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gmark {

/// \brief A fixed set of workers draining one task queue.
///
/// Tasks must not Submit new tasks from within the pool (no nesting):
/// the generator's phase structure never needs it, and forbidding it
/// rules out the classic bounded-worker deadlock.
class ThreadPool {
 public:
  /// \brief Spawn `num_threads` workers (clamped to at least 1).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// \brief Enqueue a task. Thread-safe, but see the nesting caveat.
  void Submit(std::function<void()> task) EXCLUDES(mu_);

  /// \brief Block until every submitted task has finished running.
  void Wait() EXCLUDES(mu_);

  int size() const { return static_cast<int>(workers_.size()); }

  /// \brief std::thread::hardware_concurrency with a floor of 1.
  static int DefaultThreads();

  /// \brief Dense id of the calling thread: pool workers are numbered
  /// 1..size() for the lifetime of their pool; every other thread
  /// (including the main thread and inline executors) reads 0. The
  /// tracer keys its span shards on this, and the parallel evaluator
  /// its per-worker scratch, so no two threads write the same slot.
  static int CurrentWorkerId();

 private:
  void WorkerLoop(int worker_id) EXCLUDES(mu_);

  // SAFETY: workers_ is written only by the constructor (before any
  // worker can observe the pool) and read by the destructor after
  // stop_ is published under mu_ — never touched from worker threads,
  // so it needs no guard. size() reads only the vector's length, which
  // is immutable after construction.
  std::vector<std::thread> workers_;
  Mutex mu_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  CondVar work_cv_;  // signaled when work arrives / stop
  CondVar idle_cv_;  // signaled when in_flight_ hits 0
  /// Queued + currently running tasks.
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool stop_ GUARDED_BY(mu_) = false;
};

}  // namespace gmark

#endif  // GMARK_PARALLEL_THREAD_POOL_H_
