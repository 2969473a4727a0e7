// Disk-backed edge collection for the parallel generator.
//
// Each canonical shard spills to its own temp file, written in one shot
// by the task that owns the shard — one file per shard means zero
// locking, and naming files by shard index means reading them back in
// ascending index order reproduces exactly the edge stream the
// in-memory ShardedSink would have produced. Peak edge memory is
// therefore the sum of the chunks currently in flight (~ num_threads *
// chunk_size edges) instead of the whole graph, which is what lets
// ParallelGenerateGraph index instances whose raw edge list exceeds
// RAM (its builder replays every shard twice, so the edges must be
// staged somewhere).
//
// Files hold raw Edge structs (host byte order): they never outlive the
// process that wrote them, so no portable encoding is needed.

#ifndef GMARK_PARALLEL_SPILL_SINK_H_
#define GMARK_PARALLEL_SPILL_SINK_H_

#include <atomic>
#include <cstddef>
#include <filesystem>
#include <string>
#include <vector>

#include "parallel/shard_store.h"

namespace gmark {

/// \brief ShardStore that writes each shard to its own file under a
/// per-run spill directory, removed when the sink is destroyed.
class SpillSink : public ShardStore {
 public:
  struct Options {
    /// Parent directory for the per-run spill directory; empty means
    /// std::filesystem::temp_directory_path().
    std::string dir;
    /// Edges read back per block while draining (bounds drain memory).
    size_t read_buffer_edges = 1 << 15;
  };

  // Two constructors instead of one defaulted argument: a default
  // argument would need Options' member initializers before the
  // enclosing class is complete, which gcc rejects.
  SpillSink() : SpillSink(Options()) {}
  explicit SpillSink(Options options);
  ~SpillSink() override;

  SpillSink(const SpillSink&) = delete;
  SpillSink& operator=(const SpillSink&) = delete;

  /// \brief Append `count` shards to the table; the first call creates
  /// the run directory and fails with IOError if it cannot.
  Status AddShards(size_t count) override;

  /// \brief Write shard `index` to its file and drop the buffer. Errors
  /// are recorded in the shard's slot and surfaced by Finish().
  void PutShard(size_t index, std::vector<Edge> edges) override;

  /// \brief First error recorded by any PutShard, if any.
  Status Finish() override;

  size_t shard_count() const override { return shards_.size(); }

  size_t TotalEdges() const override;

  /// \brief Edges written for shard `index` (the count survives a
  /// release; only the file is unlinked).
  size_t ShardEdgeCount(size_t index) const override {
    return shards_[index].edge_count;
  }

  /// \brief Largest number of edge bytes simultaneously in transit
  /// through the store: PutShard write buffers plus VisitRange read
  /// buffers (each freed as soon as its I/O completes).
  size_t PeakResidentEdgeBytes() const override {
    return peak_resident_bytes_.load(std::memory_order_relaxed);
  }

  /// \brief Read shard files [begin, end) back in canonical index order
  /// and replay their edges block by block (block size bounds the read
  /// memory). Each call opens its own streams and owns its own buffer,
  /// so concurrent visits of any ranges are safe after Finish().
  Status VisitRange(size_t begin, size_t end,
                    const EdgeBlockVisitor& visit) const override;

  /// \brief Unlink the files of shards [begin, end) (best effort; the
  /// run directory itself stays until destruction). Edge counts stay in
  /// TotalEdges. Distinct files, so disjoint ranges release
  /// concurrently.
  void ReleaseRange(size_t begin, size_t end) override;

  /// \brief The per-run spill directory (empty before AddShards).
  const std::filesystem::path& run_dir() const { return run_dir_; }

 private:
  // SAFETY: one Shard slot per canonical index, written only by that
  // shard's single PutShard task (count + deferred error status);
  // grown by AddShards between barriers, read after Finish. Same
  // phase-discipline contract as ShardedSink::shards_ — the file
  // system side is safe for the same reason (one file per shard,
  // named by index; ReleaseRange unlinks only disjoint ranges).
  struct Shard {
    size_t edge_count = 0;
    Status status;
  };

  std::filesystem::path ShardPath(size_t index) const;
  Status CreateRunDir();
  void RemoveRunDir();

  /// Add `bytes` to the resident counter and fold the result into the
  /// high-water mark (const: VisitRange is logically read-only but its
  /// buffers are still resident edge memory).
  void TrackResident(size_t bytes) const;

  Options options_;
  std::filesystem::path run_dir_;
  std::vector<Shard> shards_;
  // SAFETY: relaxed atomics — the resident/peak byte counters are
  // advisory accounting folded from concurrent PutShard/VisitRange
  // buffers; relaxed ordering is enough because no control flow
  // depends on them and the final values are read after quiescence.
  mutable std::atomic<size_t> resident_bytes_{0};
  mutable std::atomic<size_t> peak_resident_bytes_{0};
};

}  // namespace gmark

#endif  // GMARK_PARALLEL_SPILL_SINK_H_
