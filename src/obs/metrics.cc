#include "obs/metrics.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>

#include "obs/json_util.h"
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

std::optional<size_t> MetricRegistry::IndexOf(const std::string& name,
                                              Kind kind) {
  auto it = slots_.find(name);
  if (it != slots_.end()) {
    assert(it->second.kind == kind &&
           "metric updated under a different kind");
    if (it->second.kind != kind) return std::nullopt;
    return it->second.index;
  }
  size_t index = 0;
  switch (kind) {
    case Kind::kCounter:
      index = values_.counters.size();
      values_.counters.emplace_back(name, 0);
      break;
    case Kind::kGauge:
      index = values_.gauges.size();
      values_.gauges.emplace_back(name, 0);
      break;
    case Kind::kHistogram:
      index = values_.histograms.size();
      values_.histograms.emplace_back();
      values_.histograms.back().name = name;
      values_.histograms.back().buckets.assign(kHistogramBuckets, 0);
      break;
  }
  slots_.emplace(name, Slot{kind, index});
  return index;
}

void MetricRegistry::Add(const std::string& name, uint64_t delta) {
  MutexLock lock(mu_);
  if (auto i = IndexOf(name, Kind::kCounter)) {
    values_.counters[*i].second += delta;
  }
}

void MetricRegistry::GaugeMax(const std::string& name, uint64_t value) {
  MutexLock lock(mu_);
  if (auto i = IndexOf(name, Kind::kGauge)) {
    uint64_t& gauge = values_.gauges[*i].second;
    gauge = std::max(gauge, value);
  }
}

void MetricRegistry::Observe(const std::string& name, uint64_t value) {
  MutexLock lock(mu_);
  if (auto i = IndexOf(name, Kind::kHistogram)) {
    HistogramSnapshot& h = values_.histograms[*i];
    ++h.count;
    h.sum += value;
    ++h.buckets[BucketIndex(value)];
  }
}

MetricsSnapshot MetricRegistry::Snapshot() const {
  MutexLock lock(mu_);
  return values_;
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
