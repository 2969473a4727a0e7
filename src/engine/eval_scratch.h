// Reusable BFS working state for the RPQ evaluator.
//
// The product-graph BFS needs a visited set over n*k product states and
// an accepted set over n nodes. Allocating (and zeroing) those per
// source costs O(n*k) before the first state pops, and the
// frontier-parallel evaluator would pay it again per chunk. EvalScratch
// owns the buffers once; ResettableBitset resets in O(touched words),
// so reuse across sources and chunks is O(1) amortized.

#ifndef GMARK_ENGINE_EVAL_SCRATCH_H_
#define GMARK_ENGINE_EVAL_SCRATCH_H_

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace gmark {

/// \brief Dense bit set with O(touched) reset, for reuse across BFS
/// sources. Words are lazily grown; Reset() only clears words actually
/// touched since the last reset.
class ResettableBitset {
 public:
  ResettableBitset() = default;
  explicit ResettableBitset(size_t bits) : words_((bits + 63) / 64, 0) {}

  /// \brief Grow to cover `bits` (new words start zeroed). Existing
  /// set bits are preserved; callers reusing scratch across queries
  /// Reset() first.
  void EnsureBits(size_t bits) {
    size_t words = (bits + 63) / 64;
    if (words > words_.size()) words_.resize(words, 0);
  }

  bool TestAndSet(size_t i) {
    size_t w = i >> 6;
    uint64_t mask = uint64_t{1} << (i & 63);
    if (words_[w] & mask) return true;
    if (words_[w] == 0) touched_.push_back(w);
    words_[w] |= mask;
    return false;
  }

  void Reset() {
    for (size_t w : touched_) words_[w] = 0;
    touched_.clear();
  }

  /// \brief Calls `fn(i)` for every set bit `i` in words
  /// [first_word, last_word], ascending, clearing each word as it is
  /// read. The caller guarantees that no bit is set outside that range,
  /// so the bitset ends reset without a pass over the touched words.
  template <typename Fn>
  void Drain(size_t first_word, size_t last_word, Fn&& fn) {
    for (size_t w = first_word; w <= last_word; ++w) {
      for (uint64_t bits = words_[w]; bits != 0; bits &= bits - 1) {
        fn(w * 64 + static_cast<size_t>(std::countr_zero(bits)));
      }
      words_[w] = 0;
    }
    touched_.clear();
  }

 private:
  std::vector<uint64_t> words_;
  std::vector<size_t> touched_;
};

/// \brief One BFS worker's private working state: the visited/accepted
/// sets, the DFS-order frontier stack, and the per-source target
/// buffer. Owned by one thread at a time — the serial evaluator keeps
/// one, the frontier-parallel evaluator keeps one per pool worker
/// (indexed by ThreadPool::CurrentWorkerId()).
struct EvalScratch {
  ResettableBitset visited;
  ResettableBitset accepted;
  std::vector<uint64_t> stack;
  std::vector<NodeId> targets;

  /// \brief Size for a graph of `n` nodes and an NFA of `k` states and
  /// clear all previous marks. Idempotent and cheap when already sized.
  void Prepare(size_t n, size_t k) {
    visited.EnsureBits(n * k);
    accepted.EnsureBits(n);
    visited.Reset();
    accepted.Reset();
    stack.clear();
    targets.clear();
  }
};

}  // namespace gmark

#endif  // GMARK_ENGINE_EVAL_SCRATCH_H_
