// Destination abstraction for the parallel generator's edge shards.
//
// The generator walks constraints in canonical order and, before a
// constraint's emission tasks run, grows the store by that constraint's
// chunks, so shards are numbered in canonical (constraint, chunk) order;
// a ShardStore receives each shard's finished edge buffer exactly once
// and replays them by ascending index, which is what makes the output
// independent of scheduling. Because shards are canonically numbered
// by constraint, the shard -> predicate mapping is static, and
// consumers (notably the shard-native Graph::Builder) can read one
// predicate's contiguous shard ranges concurrently with other
// predicates' via VisitRange, then free them with ReleaseRange as soon
// as that predicate is indexed.
// Two implementations exist: ShardedSink keeps every shard resident
// (fast, memory ~ total edges) and SpillSink writes each shard to its
// own temp file (memory ~ in-flight chunks, disk ~ total edges).

#ifndef GMARK_PARALLEL_SHARD_STORE_H_
#define GMARK_PARALLEL_SHARD_STORE_H_

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "graph/generator.h"
#include "graph/graph.h"

namespace gmark {

/// \brief Receives canonically numbered edge shards from concurrent
/// emission tasks and replays them in index order.
///
/// Contract: AddShards(n) runs on the coordinating thread between
/// barriers, never while tasks write; PutShard(i, edges) is called at
/// most once per index — distinct indices may be written
/// concurrently, so implementations must not share mutable state across
/// indices; Finish() runs on the coordinating thread after every task
/// has completed. PutShard never fails in-line: I/O errors are recorded
/// per shard and surfaced by Finish(). After Finish(), VisitRange is a
/// read-only replay and may run concurrently from several threads (any
/// ranges); ReleaseRange frees shard storage and may run concurrently
/// for DISJOINT ranges — no Visit of a released shard afterwards.
///
/// SAFETY: this phase discipline (AddShards → concurrent single-writer
/// PutShard → Wait, repeated per constraint → Finish → concurrent
/// read-only VisitRange / disjoint ReleaseRange) IS the synchronization
/// contract of every implementation; the happens-before edges come from
/// task publication (Executor::Submit) and completion (Executor::Wait),
/// never from locks inside the store. Capability annotations cannot
/// express "at most one writer per index, phase-ordered", so
/// implementations document it with SAFETY contracts at each member
/// and the CI TSan job enforces it dynamically.
class ShardStore {
 public:
  /// \brief Receives contiguous blocks of a shard's edges during a
  /// range visit.
  using EdgeBlockVisitor = std::function<Status(std::span<const Edge>)>;

  virtual ~ShardStore() = default;

  /// \brief Append `count` empty shards, numbered after the existing
  /// ones.
  virtual Status AddShards(size_t count) = 0;

  /// \brief Number of shards added so far.
  virtual size_t shard_count() const = 0;

  /// \brief Hand shard `index` its final edge buffer (moved in).
  virtual void PutShard(size_t index, std::vector<Edge> edges) = 0;

  /// \brief Barrier step after all PutShard calls: surfaces deferred
  /// per-shard errors.
  virtual Status Finish() = 0;

  /// \brief Total edges across all shards received so far (released
  /// shards stay counted).
  virtual size_t TotalEdges() const = 0;

  /// \brief Edges held by shard `index`. Valid after Finish() and
  /// before the shard is released — what lets consumers (notably the
  /// chunked Graph::Builder) balance sub-range work by edge count
  /// before replaying anything.
  virtual size_t ShardEdgeCount(size_t index) const = 0;

  /// \brief High-water mark of edge bytes simultaneously resident in
  /// memory (buffers owned by or in transit through the store).
  virtual size_t PeakResidentEdgeBytes() const = 0;

  /// \brief Replay shards [begin, end) in ascending index order through
  /// `visit`, block by block. Thread-safe after Finish() for concurrent
  /// calls on any ranges; a visitor error aborts the replay.
  virtual Status VisitRange(size_t begin, size_t end,
                            const EdgeBlockVisitor& visit) const = 0;

  /// \brief Free the storage backing shards [begin, end) (buffers or
  /// temp files). Thread-safe for concurrent calls on disjoint ranges;
  /// released shards must not be visited again.
  virtual void ReleaseRange(size_t begin, size_t end) = 0;

  /// \brief Stream every edge into `out` in canonical shard order.
  Status Drain(EdgeSink* out) const {
    return VisitRange(0, shard_count(),
                      [out](std::span<const Edge> block) -> Status {
                        for (const Edge& e : block) {
                          out->Append(e.source, e.predicate, e.target);
                        }
                        return Status::OK();
                      });
  }
};

}  // namespace gmark

#endif  // GMARK_PARALLEL_SHARD_STORE_H_
