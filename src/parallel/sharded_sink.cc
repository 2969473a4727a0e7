#include "parallel/sharded_sink.h"

namespace gmark {

size_t ShardedSink::TotalEdges() const {
  size_t total = released_edges_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) total += shard.size();
  return total;
}

Status ShardedSink::VisitRange(size_t begin, size_t end,
                               const EdgeBlockVisitor& visit) const {
  for (size_t index = begin; index < end && index < shards_.size(); ++index) {
    if (shards_[index].empty()) continue;
    GMARK_RETURN_NOT_OK(visit({shards_[index].data(), shards_[index].size()}));
  }
  return Status::OK();
}

void ShardedSink::ReleaseRange(size_t begin, size_t end) {
  size_t freed = 0;
  for (size_t index = begin; index < end && index < shards_.size(); ++index) {
    freed += shards_[index].size();
    // Swap-with-empty actually returns the capacity; clear() would not.
    std::vector<Edge>().swap(shards_[index]);
  }
  released_edges_.fetch_add(freed, std::memory_order_relaxed);
}

}  // namespace gmark
