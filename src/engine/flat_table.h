// The one hash table of the engines' materializing path: an
// open-addressing table of uint32_t row ids, behind hash join, distinct
// projection, distinct union, path composition, both closures and the
// G engine's result set.
//
// Keys are never copied into the table. They stay in the caller's own
// flat row buffer; the caller hashes a key's columns in place and
// decides equality by comparing columns against a stored row id. The
// table has no iteration API: rows live in the caller's vector in
// first-occurrence order, so no output order can depend on the hash
// layout (CONTRIBUTING.md, determinism invariant 4).

#ifndef GMARK_ENGINE_FLAT_TABLE_H_
#define GMARK_ENGINE_FLAT_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/status.h"

namespace gmark {

/// \brief Row hashes start here and fold one column at a time.
inline constexpr uint64_t kRowHashSeed = 0x243F6A8885A308D3ULL;

/// \brief Fold column value `v` into row hash `h`. The table probes
/// from the high bits, which the multiply mixes from every input bit.
inline uint64_t HashColumn(uint64_t h, uint64_t v) {
  h = (h ^ v) * 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

/// \brief Open-addressing (linear probing) set of row ids, keyed by the
/// rows they name. Load factor at most 1/2; grows by doubling.
class FlatRowTable {
 public:
  /// \brief Empty slot, and the "not found" answer.
  static constexpr uint32_t kNone = std::numeric_limits<uint32_t>::max();

  FlatRowTable() : slots_(kMinCapacity, kNone), shift_(64 - kMinBits) {}

  /// \brief The stored id whose row `eq(id)` accepts, among the ids
  /// stored under `hash`; kNone when there is none.
  template <typename Eq>
  uint32_t Find(uint64_t hash, const Eq& eq) const {
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const uint32_t id = slots_[i];
      if (id == kNone || eq(id)) return id;
    }
  }

  /// \brief Find(); on a miss, store `id` (< kNone) under `hash` and
  /// return kNone. `id`'s row need not exist yet: growth happens before
  /// the probe and rehashes only stored ids, through `hash_of(id)`.
  template <typename Eq, typename HashOf>
  uint32_t FindOrInsert(uint64_t hash, uint32_t id, const Eq& eq,
                        const HashOf& hash_of) {
    if (2 * (size_ + 1) > slots_.size()) Grow(hash_of);
    const size_t mask = slots_.size() - 1;
    for (size_t i = Home(hash);; i = (i + 1) & mask) {
      const uint32_t stored = slots_[i];
      if (stored == kNone) {
        slots_[i] = id;
        ++size_;
        return kNone;
      }
      if (eq(stored)) return stored;
    }
  }

 private:
  static constexpr int kMinBits = 4;
  static constexpr size_t kMinCapacity = size_t{1} << kMinBits;

  size_t Home(uint64_t hash) const {
    return static_cast<size_t>(hash >> shift_);
  }

  template <typename HashOf>
  void Grow(const HashOf& hash_of) {
    std::vector<uint32_t> old(2 * slots_.size(), kNone);
    old.swap(slots_);
    --shift_;
    const size_t mask = slots_.size() - 1;
    for (uint32_t id : old) {
      if (id == kNone) continue;
      size_t i = Home(hash_of(id));
      while (slots_[i] != kNone) i = (i + 1) & mask;
      slots_[i] = id;
    }
  }

  std::vector<uint32_t> slots_;
  int shift_;
  size_t size_ = 0;
};

/// \brief Row ids are uint32_t with kNone reserved, so a relation the
/// table indexes holds fewer than kNone rows: ResourceExhausted when a
/// relation of `rows` rows would take one more.
inline Status CheckRowLimit(size_t rows) {
  if (rows >= FlatRowTable::kNone) {
    return Status::ResourceExhausted(
        "relation reached the row-id limit of 2^32 - 1 rows");
  }
  return Status::OK();
}

}  // namespace gmark

#endif  // GMARK_ENGINE_FLAT_TABLE_H_
