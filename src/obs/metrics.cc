#include "obs/metrics.h"

#include <algorithm>
#include <bit>
#include <cassert>

#include "obs/json_util.h"
#include "parallel/thread_pool.h"
#include "util/string_util.h"

namespace gmark {

using obs_internal::JsonEscape;

namespace {

std::atomic<MetricRegistry*> g_metrics{nullptr};

/// Pretty seconds for *_nanos counters in the human table.
std::string HumanNanos(uint64_t nanos) {
  return FormatFixed(static_cast<double>(nanos) * 1e-9, 3) + "s";
}

bool EndsWith(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

}  // namespace

uint64_t HistogramSnapshot::QuantileBound(double q) const {
  if (count == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  const uint64_t rank =
      static_cast<uint64_t>(q * static_cast<double>(count - 1));
  uint64_t seen = 0;
  for (size_t i = 0; i < buckets.size(); ++i) {
    seen += buckets[i];
    if (seen > rank) return MetricRegistry::BucketUpperBound(i) - 1;
  }
  return MetricRegistry::BucketUpperBound(buckets.size() - 1) - 1;
}

std::string MetricsSnapshot::ToJson() const {
  // Sorted copies: registration order is deterministic per run, but the
  // export surface sorts by name so the JSON is stable across codepath
  // reorderings (and golden-testable).
  auto sorted = [](std::vector<std::pair<std::string, uint64_t>> v) {
    std::sort(v.begin(), v.end());
    return v;
  };
  std::string out = "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [name, value] : sorted(counters)) {
    StrAppend(&out, first ? "\n" : ",\n", "    \"", JsonEscape(name), "\": ",
              value);
    first = false;
  }
  StrAppend(&out, first ? "" : "\n  ", "},\n  \"gauges\": {");
  first = true;
  for (const auto& [name, value] : sorted(gauges)) {
    StrAppend(&out, first ? "\n" : ",\n", "    \"", JsonEscape(name), "\": ",
              value);
    first = false;
  }
  StrAppend(&out, first ? "" : "\n  ", "},\n  \"histograms\": {");
  std::vector<const HistogramSnapshot*> hs;
  hs.reserve(histograms.size());
  for (const HistogramSnapshot& h : histograms) hs.push_back(&h);
  std::sort(hs.begin(), hs.end(),
            [](const HistogramSnapshot* a, const HistogramSnapshot* b) {
              return a->name < b->name;
            });
  first = true;
  for (const HistogramSnapshot* h : hs) {
    StrAppend(&out, first ? "\n" : ",\n", "    \"", JsonEscape(h->name),
              "\": {\"count\": ", h->count, ", \"sum\": ", h->sum,
              ", \"buckets\": [");
    // Sparse bucket encoding: [bucket_index, count] pairs, non-empty
    // buckets only; bucket i>=1 covers [2^(i-1), 2^i), bucket 0 zeros.
    bool bfirst = true;
    for (size_t i = 0; i < h->buckets.size(); ++i) {
      if (h->buckets[i] == 0) continue;
      StrAppend(&out, bfirst ? "" : ", ", '[', i, ", ", h->buckets[i], ']');
      bfirst = false;
    }
    out.append("]}");
    first = false;
  }
  StrAppend(&out, first ? "" : "\n  ", "}\n}\n");
  return out;
}

std::string MetricsSnapshot::ToTable() const {
  size_t width = 8;
  for (const auto& [name, _] : counters) width = std::max(width, name.size());
  for (const auto& [name, _] : gauges) width = std::max(width, name.size());
  for (const HistogramSnapshot& h : histograms) {
    width = std::max(width, h.name.size());
  }
  std::string out;
  auto row = [&](const std::string& name, const std::string& value) {
    StrAppend(&out, "  ", name);
    out.append(width + 2 - name.size(), ' ');
    StrAppend(&out, value, "\n");
  };
  for (const auto& [name, value] : counters) {
    std::string cell = StrCat(value);
    if (EndsWith(name, "_nanos")) {
      StrAppend(&cell, "  (", HumanNanos(value), ')');
    }
    row(name, cell);
  }
  for (const auto& [name, value] : gauges) row(name, StrCat(value));
  for (const HistogramSnapshot& h : histograms) {
    row(h.name, StrCat("count=", h.count, " mean=", FormatFixed(h.Mean(), 1),
                       " p50<=", h.QuantileBound(0.5),
                       " p99<=", h.QuantileBound(0.99)));
  }
  return out;
}

MetricRegistry::MetricRegistry(size_t shard_count) {
  if (shard_count == 0) {
    shard_count = static_cast<size_t>(ThreadPool::DefaultThreads()) + 1;
  }
  shards_ = std::vector<Shard>(shard_count);
  for (Shard& shard : shards_) {
    shard.scalars = std::vector<std::atomic<uint64_t>>(kMaxScalars);
    shard.histograms = std::vector<HistogramCells>(kMaxHistograms);
  }
}

MetricRegistry::MetricId MetricRegistry::Register(const std::string& name,
                                                  Kind kind) {
  MutexLock lock(reg_mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    const Def& existing = defs_[it->second];
    assert(existing.kind == kind &&
           "metric re-registered under a different kind");
    return EncodeId(existing.kind, existing.slot);
  }
  Def def;
  def.name = name;
  def.kind = kind;
  if (kind == Kind::kHistogram) {
    assert(histogram_slots_ < kMaxHistograms && "histogram capacity");
    def.slot = std::min<uint32_t>(histogram_slots_, kMaxHistograms - 1);
    if (histogram_slots_ < kMaxHistograms) ++histogram_slots_;
  } else {
    assert(scalar_slots_ < kMaxScalars && "scalar metric capacity");
    def.slot = std::min<uint32_t>(scalar_slots_, kMaxScalars - 1);
    if (scalar_slots_ < kMaxScalars) ++scalar_slots_;
  }
  MetricId id = EncodeId(kind, def.slot);
  defs_.push_back(std::move(def));
  by_name_.emplace(name, defs_.size() - 1);
  return id;
}

MetricRegistry::MetricId MetricRegistry::Counter(const std::string& name) {
  return Register(name, Kind::kCounter);
}
MetricRegistry::MetricId MetricRegistry::Gauge(const std::string& name) {
  return Register(name, Kind::kGauge);
}
MetricRegistry::MetricId MetricRegistry::Histogram(const std::string& name) {
  return Register(name, Kind::kHistogram);
}

MetricRegistry::Shard& MetricRegistry::LocalShard() {
  const size_t id = static_cast<size_t>(ThreadPool::CurrentWorkerId());
  return shards_[id % shards_.size()];
}

void MetricRegistry::Add(MetricId id, uint64_t delta) {
  assert(KindOf(id) == Kind::kCounter);
  LocalShard().scalars[SlotOf(id)].fetch_add(delta,
                                             std::memory_order_relaxed);
}

void MetricRegistry::GaugeMax(MetricId id, uint64_t value) {
  assert(KindOf(id) == Kind::kGauge);
  std::atomic<uint64_t>& cell = LocalShard().scalars[SlotOf(id)];
  uint64_t current = cell.load(std::memory_order_relaxed);
  while (value > current &&
         !cell.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
  }
}

void MetricRegistry::Observe(MetricId id, uint64_t value) {
  assert(KindOf(id) == Kind::kHistogram);
  HistogramCells& h = LocalShard().histograms[SlotOf(id)];
  h.count.fetch_add(1, std::memory_order_relaxed);
  h.sum.fetch_add(value, std::memory_order_relaxed);
  h.buckets[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  std::vector<Def> defs;
  {
    MutexLock lock(reg_mu_);
    defs = defs_;
  }
  MetricsSnapshot snap;
  for (const Def& def : defs) {
    if (def.kind == Kind::kHistogram) {
      HistogramSnapshot h;
      h.name = def.name;
      h.buckets.assign(kHistogramBuckets, 0);
      // Worker order 0..N-1: bucket-wise integer merge, exact and
      // order-independent, but the fixed order is part of the contract.
      for (const Shard& shard : shards_) {
        const HistogramCells& cells = shard.histograms[def.slot];
        h.count += cells.count.load(std::memory_order_relaxed);
        h.sum += cells.sum.load(std::memory_order_relaxed);
        for (size_t i = 0; i < kHistogramBuckets; ++i) {
          h.buckets[i] += cells.buckets[i].load(std::memory_order_relaxed);
        }
      }
      snap.histograms.push_back(std::move(h));
    } else {
      uint64_t sum = 0;
      uint64_t max = 0;
      for (const Shard& shard : shards_) {
        const uint64_t v =
            shard.scalars[def.slot].load(std::memory_order_relaxed);
        sum += v;
        max = std::max(max, v);
      }
      if (def.kind == Kind::kCounter) {
        snap.counters.emplace_back(def.name, sum);
      } else {
        snap.gauges.emplace_back(def.name, max);
      }
    }
  }
  return snap;
}

size_t MetricRegistry::BucketIndex(uint64_t value) {
  return static_cast<size_t>(std::bit_width(value));
}

uint64_t MetricRegistry::BucketLowerBound(size_t i) {
  if (i == 0) return 0;
  // Clamp like BucketUpperBound: i beyond the last bucket would shift
  // by >= 64, which is UB — the UBSan job turns that into an abort.
  if (i >= kHistogramBuckets) i = kHistogramBuckets - 1;
  return i == 1 ? 1 : (uint64_t{1} << (i - 1));
}

uint64_t MetricRegistry::BucketUpperBound(size_t i) {
  if (i == 0) return 1;
  if (i >= 64) return ~uint64_t{0};
  return uint64_t{1} << i;
}

MetricRegistry* GlobalMetrics() {
  return g_metrics.load(std::memory_order_relaxed);
}

void SetGlobalMetrics(MetricRegistry* registry) {
  g_metrics.store(registry, std::memory_order_release);
}

}  // namespace gmark
