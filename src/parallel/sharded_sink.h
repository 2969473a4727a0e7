// In-memory edge collection for the parallel generator.
//
// Each emission task builds one shard — a private std::vector<Edge> it
// hands over with no synchronization. Shards are numbered in canonical
// (constraint, chunk) order as the generator grows the store one
// constraint at a time, so concatenating them by index reproduces one
// well-defined edge order regardless of which thread ran which task or
// in what order tasks finished. Determinism therefore costs nothing on
// the hot path: the only synchronization in the whole sink is the
// AddShards between barriers and the final replay/release, all outside
// the parallel emission region. VisitRange hands out spans over the
// shard buffers directly (zero-copy), and ReleaseRange frees individual
// shard buffers — distinct vector elements, so disjoint ranges release
// concurrently without locking.

#ifndef GMARK_PARALLEL_SHARDED_SINK_H_
#define GMARK_PARALLEL_SHARDED_SINK_H_

#include <atomic>
#include <cstddef>
#include <utility>
#include <vector>

#include "graph/generator.h"
#include "graph/graph.h"
#include "parallel/shard_store.h"

namespace gmark {

/// \brief Per-task edge buffers, replayed in canonical shard order.
class ShardedSink : public ShardStore {
 public:
  /// \brief Append `count` empty shards. Runs between barriers; never
  /// while tasks write.
  Status AddShards(size_t count) override {
    shards_.resize(shards_.size() + count);
    return Status::OK();
  }

  /// \brief Take ownership of shard `index`'s buffer. Distinct indices
  /// may be written concurrently; one index only by one task.
  ///
  /// SAFETY: lock-free single-writer. shards_ is grown by AddShards
  /// before the tasks that write the new indices run (the Submit that
  /// publishes the task is the release barrier), each index is written
  /// by exactly one task, and distinct indices are distinct vector
  /// elements — no two threads ever touch the same std::vector<Edge>.
  /// Readers (VisitRange) run only after Executor::Wait + Finish, which
  /// order every write before every read.
  void PutShard(size_t index, std::vector<Edge> edges) override {
    shards_[index] = std::move(edges);
  }

  /// \brief In-memory writes cannot fail.
  Status Finish() override { return Status::OK(); }

  size_t shard_count() const override { return shards_.size(); }

  /// \brief Total edges across all shards, including released ones.
  size_t TotalEdges() const override;

  /// \brief Buffer size of shard `index` (0 once released).
  size_t ShardEdgeCount(size_t index) const override {
    return shards_[index].size();
  }

  /// \brief Every handed-over shard stays resident until released, so
  /// the high-water mark is simply the running total.
  size_t PeakResidentEdgeBytes() const override {
    return TotalEdges() * sizeof(Edge);
  }

  /// \brief Spans straight over the shard buffers — no copy.
  Status VisitRange(size_t begin, size_t end,
                    const EdgeBlockVisitor& visit) const override;

  /// \brief Free the buffers of shards [begin, end); their edge count
  /// stays in TotalEdges.
  void ReleaseRange(size_t begin, size_t end) override;

 private:
  // SAFETY: the outer vector is resized only by AddShards (between
  // barriers); during emission each element has exactly one writing
  // task (see PutShard); during indexing ReleaseRange frees only
  // disjoint ranges. No mutex guards this on purpose — the phase discipline is
  // the synchronization, and the TSan job checks it.
  std::vector<std::vector<Edge>> shards_;
  // SAFETY: atomic because per-predicate build tasks release their
  // ranges concurrently (relaxed add); read only after Executor::Wait
  // joins those tasks.
  std::atomic<size_t> released_edges_{0};
};

}  // namespace gmark

#endif  // GMARK_PARALLEL_SHARDED_SINK_H_
