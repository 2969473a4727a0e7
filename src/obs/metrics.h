// Metric registry: named counters, gauges, and log2-bucketed histograms
// behind one mutex.
//
// Design. Every update names its metric: the first update of a name
// registers it under that update's kind, and later updates find it in
// a name map. One lock guards the whole registry, which is cheap
// because updates are per run or per query, never per element: the
// instrumented code counts in its own locals (stats structs, profiles)
// and records the totals once, on the calling thread, after its
// parallel work has joined. There is no capacity: the registry grows
// with the names it is given. Snapshot() copies the values under the
// lock, so exports are exact whatever thread made the updates.
//
// Disabled path. Instrumented code reads the process-global registry
// pointer (GlobalMetrics(), default nullptr) and skips every update
// when it is null — the whole layer costs one relaxed pointer load and
// one branch per instrumentation site when off.
//
// Semantics per kind:
//   counter    — monotone sum.
//   gauge      — peak value; GaugeMax keeps the max of every value it
//                is given (the right fold for the peaks this repo
//                tracks: peak tuples, peak resident bytes). Not a
//                last-write-wins register.
//   histogram  — log2 buckets: bucket 0 counts zeros, bucket i>=1
//                counts values in [2^(i-1), 2^i); plus exact sum and
//                count.
// A name belongs to the kind that first updated it. Updating it as
// another kind is a programming error: it debug-asserts, and release
// builds drop the update.

#ifndef GMARK_OBS_METRICS_H_
#define GMARK_OBS_METRICS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace gmark {

/// \brief Immutable view of one histogram at snapshot time.
struct HistogramSnapshot {
  std::string name;
  uint64_t count = 0;
  uint64_t sum = 0;
  /// bucket[0] counts zeros; bucket[i>=1] counts values in
  /// [2^(i-1), 2^i).
  std::vector<uint64_t> buckets;

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }
  /// \brief Upper bound of the bucket holding quantile `q` in [0,1]
  /// (log2 resolution; 0 when empty).
  uint64_t QuantileBound(double q) const;
};

/// \brief Immutable view of a whole registry at snapshot time.
struct MetricsSnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;  // registration order
  std::vector<std::pair<std::string, uint64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  /// \brief Deterministic JSON (names sorted within each section) —
  /// the `--metrics-json` schema; golden-tested.
  std::string ToJson() const;
  /// \brief Human-readable aligned table (the `--stats` surface).
  std::string ToTable() const;
};

/// \brief Registry of named metrics, one lock for all of them.
class MetricRegistry {
 public:
  MetricRegistry() = default;
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;

  /// \brief Updates; each registers `name` under its kind on first use.
  void Add(const std::string& name, uint64_t delta = 1)
      EXCLUDES(mu_);  // counter += delta
  void GaugeMax(const std::string& name, uint64_t value)
      EXCLUDES(mu_);  // gauge = max(gauge, value)
  void Observe(const std::string& name, uint64_t value)
      EXCLUDES(mu_);  // histogram sample

  /// \brief Copy of every metric, each kind in registration order.
  MetricsSnapshot Snapshot() const EXCLUDES(mu_);

  /// \brief log2 bucket index of `value` (0 for 0; else bit_width).
  static size_t BucketIndex(uint64_t value);
  /// \brief Inclusive lower bound of bucket `i` (0, then 2^(i-1)).
  static uint64_t BucketLowerBound(size_t i);
  /// \brief Exclusive upper bound of bucket `i`.
  static uint64_t BucketUpperBound(size_t i);

  /// Histogram bucket count: zeros bucket + one per possible bit width.
  static constexpr size_t kHistogramBuckets = 65;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Slot {
    Kind kind;
    size_t index;  // into the matching section of values_
  };

  /// Index of `name` in the `kind` section of values_, appended there
  /// on first use; nullopt when the name belongs to another kind.
  std::optional<size_t> IndexOf(const std::string& name, Kind kind)
      REQUIRES(mu_);

  mutable Mutex mu_;
  MetricsSnapshot values_ GUARDED_BY(mu_);
  std::unordered_map<std::string, Slot> slots_ GUARDED_BY(mu_);
};

/// \brief Process-global registry used by instrumented code paths.
/// Defaults to nullptr = observability disabled (every instrumentation
/// site reduces to a relaxed load and a not-taken branch).
MetricRegistry* GlobalMetrics();
void SetGlobalMetrics(MetricRegistry* registry);

/// \brief RAII installer for GlobalMetrics (tests, CLI, benches).
class ScopedGlobalMetrics {
 public:
  explicit ScopedGlobalMetrics(MetricRegistry* registry)
      : previous_(GlobalMetrics()) {
    SetGlobalMetrics(registry);
  }
  ~ScopedGlobalMetrics() { SetGlobalMetrics(previous_); }
  ScopedGlobalMetrics(const ScopedGlobalMetrics&) = delete;
  ScopedGlobalMetrics& operator=(const ScopedGlobalMetrics&) = delete;

 private:
  MetricRegistry* previous_;
};

}  // namespace gmark

#endif  // GMARK_OBS_METRICS_H_
