#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "parallel/thread_pool.h"
#include "util/string_util.h"

namespace gmark {
namespace {

std::string ReadGolden(const std::string& relative) {
  std::ifstream in(std::string(GMARK_TEST_SRCDIR) + "/" + relative);
  EXPECT_TRUE(in.good()) << "missing golden file " << relative;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

uint64_t CounterValue(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "counter " << name << " not in snapshot";
  return 0;
}

uint64_t GaugeValue(const MetricsSnapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.gauges) {
    if (n == name) return v;
  }
  ADD_FAILURE() << "gauge " << name << " not in snapshot";
  return 0;
}

const HistogramSnapshot* FindHistogram(const MetricsSnapshot& snap,
                                       const std::string& name) {
  for (const HistogramSnapshot& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  ADD_FAILURE() << "histogram " << name << " not in snapshot";
  return nullptr;
}

TEST(MetricsTest, BucketBoundaries) {
  // Bucket 0 holds only zeros; bucket i >= 1 covers [2^(i-1), 2^i).
  EXPECT_EQ(MetricRegistry::BucketIndex(0), 0u);
  EXPECT_EQ(MetricRegistry::BucketIndex(1), 1u);
  EXPECT_EQ(MetricRegistry::BucketIndex(2), 2u);
  EXPECT_EQ(MetricRegistry::BucketIndex(3), 2u);
  EXPECT_EQ(MetricRegistry::BucketIndex(4), 3u);
  EXPECT_EQ(MetricRegistry::BucketIndex(7), 3u);
  EXPECT_EQ(MetricRegistry::BucketIndex(8), 4u);
  EXPECT_EQ(MetricRegistry::BucketIndex(1023), 10u);
  EXPECT_EQ(MetricRegistry::BucketIndex(1024), 11u);
  EXPECT_EQ(MetricRegistry::BucketIndex(~uint64_t{0}), 64u);

  EXPECT_EQ(MetricRegistry::BucketLowerBound(0), 0u);
  EXPECT_EQ(MetricRegistry::BucketLowerBound(1), 1u);
  EXPECT_EQ(MetricRegistry::BucketUpperBound(0), 1u);
  EXPECT_EQ(MetricRegistry::BucketUpperBound(64), ~uint64_t{0});
  // Every representable value must land in the bucket whose bounds
  // bracket it, at both edges of every bucket.
  for (size_t i = 1; i < MetricRegistry::kHistogramBuckets - 1; ++i) {
    const uint64_t lo = MetricRegistry::BucketLowerBound(i);
    const uint64_t hi = MetricRegistry::BucketUpperBound(i);
    EXPECT_EQ(MetricRegistry::BucketIndex(lo), i) << "bucket " << i;
    EXPECT_EQ(MetricRegistry::BucketIndex(hi - 1), i) << "bucket " << i;
    EXPECT_EQ(MetricRegistry::BucketIndex(hi), i + 1) << "bucket " << i;
  }
}

TEST(MetricsTest, FirstUpdateRegistersInOrder) {
  MetricRegistry registry;
  registry.Add("misses");
  registry.Add("hits");
  registry.Add("misses");
  registry.GaugeMax("valley", 1);
  registry.GaugeMax("peak", 2);
  registry.Observe("lat", 3);
  registry.Observe("lat", 4);
  // One entry per name, each kind in first-update order.
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 2u);
  EXPECT_EQ(snap.counters[0].first, "misses");
  EXPECT_EQ(snap.counters[0].second, 2u);
  EXPECT_EQ(snap.counters[1].first, "hits");
  ASSERT_EQ(snap.gauges.size(), 2u);
  EXPECT_EQ(snap.gauges[0].first, "valley");
  EXPECT_EQ(snap.gauges[1].first, "peak");
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 2u);
}

TEST(MetricsTest, UpdateUnderAnotherKindIsDropped) {
  MetricRegistry registry;
  registry.Add("hits", 3);
  // A name belongs to the kind that first updated it: debug builds
  // assert on a second kind, release builds drop the update.
  EXPECT_DEBUG_DEATH(registry.GaugeMax("hits", 7), "different kind");
  EXPECT_DEBUG_DEATH(registry.Observe("hits", 7), "different kind");
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(CounterValue(snap, "hits"), 3u);
  EXPECT_TRUE(snap.gauges.empty());
  EXPECT_TRUE(snap.histograms.empty());
}

TEST(MetricsTest, ManyNamesStayDistinct) {
  // No capacity: every name keeps its own value, however many there
  // are.
  constexpr uint64_t kScalars = 600;
  constexpr uint64_t kHistograms = 70;
  MetricRegistry registry;
  for (uint64_t i = 0; i < kScalars; ++i) {
    registry.Add(StrCat("c", i), i + 1);
    registry.GaugeMax(StrCat("g", i), 2 * i + 1);
  }
  for (uint64_t i = 0; i < kHistograms; ++i) {
    registry.Observe(StrCat("h", i), i + 1);
  }
  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.counters.size(), kScalars);
  ASSERT_EQ(snap.gauges.size(), kScalars);
  ASSERT_EQ(snap.histograms.size(), kHistograms);
  for (uint64_t i = 0; i < kScalars; ++i) {
    EXPECT_EQ(CounterValue(snap, StrCat("c", i)), i + 1);
    EXPECT_EQ(GaugeValue(snap, StrCat("g", i)), 2 * i + 1);
  }
  for (uint64_t i = 0; i < kHistograms; ++i) {
    const HistogramSnapshot* hist = FindHistogram(snap, StrCat("h", i));
    ASSERT_NE(hist, nullptr);
    EXPECT_EQ(hist->count, 1u);
    EXPECT_EQ(hist->sum, i + 1);
    EXPECT_EQ(hist->buckets[MetricRegistry::BucketIndex(i + 1)], 1u);
  }
}

TEST(MetricsTest, CounterGaugeHistogramSemantics) {
  MetricRegistry registry;
  registry.Add("edges");
  registry.Add("edges", 9);
  registry.GaugeMax("peak", 100);
  registry.GaugeMax("peak", 40);  // lower value must not stick
  registry.GaugeMax("peak", 250);
  for (uint64_t v : {0, 1, 3, 1024}) registry.Observe("lat", v);

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(CounterValue(snap, "edges"), 10u);
  EXPECT_EQ(GaugeValue(snap, "peak"), 250u);
  const HistogramSnapshot* hist = FindHistogram(snap, "lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, 4u);
  EXPECT_EQ(hist->sum, 1028u);
  EXPECT_DOUBLE_EQ(hist->Mean(), 257.0);
  EXPECT_EQ(hist->buckets[0], 1u);
  EXPECT_EQ(hist->buckets[1], 1u);
  EXPECT_EQ(hist->buckets[2], 1u);
  EXPECT_EQ(hist->buckets[11], 1u);
}

TEST(MetricsTest, QuantileBound) {
  MetricRegistry registry;
  // 100 samples of 1 and one sample of 1 000 000.
  for (int i = 0; i < 100; ++i) registry.Observe("q", 1);
  registry.Observe("q", 1000000);
  MetricsSnapshot snap = registry.Snapshot();
  const HistogramSnapshot* hist = FindHistogram(snap, "q");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->QuantileBound(0.0), 1u);
  EXPECT_EQ(hist->QuantileBound(0.5), 1u);
  // The outlier lives in bucket 20 ([2^19, 2^20)); the p100 bound is
  // that bucket's inclusive upper edge.
  EXPECT_EQ(hist->QuantileBound(1.0),
            MetricRegistry::BucketUpperBound(20) - 1);
}

// The TSan target: hammer one registry from every pool worker plus the
// main thread and require exact totals. The registry's one mutex makes
// every update race-free; this test is compiled into the
// thread-sanitizer CI job to prove it.
TEST(MetricsTest, ConcurrentUpdatesFromPoolWorkersSumExactly) {
  constexpr int kThreads = 4;
  constexpr int kTasks = 64;
  constexpr int kIncrementsPerTask = 1000;
  MetricRegistry registry;
  {
    ThreadPool pool(kThreads);
    for (int t = 0; t < kTasks; ++t) {
      pool.Submit([&registry, t] {
        for (int i = 0; i < kIncrementsPerTask; ++i) {
          registry.Add("concurrent.hits");
          registry.Observe("concurrent.lat", static_cast<uint64_t>(i));
        }
        registry.GaugeMax("concurrent.peak", static_cast<uint64_t>(t));
      });
    }
    pool.Wait();
  }
  registry.Add("concurrent.hits", 5);  // main thread updates count too

  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(CounterValue(snap, "concurrent.hits"),
            static_cast<uint64_t>(kTasks) * kIncrementsPerTask + 5);
  EXPECT_EQ(GaugeValue(snap, "concurrent.peak"),
            static_cast<uint64_t>(kTasks - 1));
  const HistogramSnapshot* hist = FindHistogram(snap, "concurrent.lat");
  ASSERT_NE(hist, nullptr);
  EXPECT_EQ(hist->count, static_cast<uint64_t>(kTasks) * kIncrementsPerTask);
}

TEST(MetricsTest, GoldenJsonSnapshot) {
  MetricRegistry registry;
  // Registration order deliberately differs from the sorted export
  // order to pin the sort.
  registry.Add("query.failures", 2);
  registry.Add("gen.total_edges", 12345);
  registry.GaugeMax("peak_bytes", 4096);
  for (uint64_t v : {0, 1, 3, 1024}) registry.Observe("latency_nanos", v);
  EXPECT_EQ(registry.Snapshot().ToJson(),
            ReadGolden("obs/golden/metrics_snapshot.json"));
}

TEST(MetricsTest, EmptySectionsRenderEmptyObjects) {
  MetricRegistry registry;
  EXPECT_EQ(registry.Snapshot().ToJson(),
            "{\n  \"counters\": {},\n  \"gauges\": {},\n"
            "  \"histograms\": {}\n}\n");
}

TEST(MetricsTest, ToTableListsEveryMetric) {
  MetricRegistry registry;
  registry.Add("gen.index_nanos", 1500000000);
  registry.Observe("lat", 8);
  const std::string table = registry.Snapshot().ToTable();
  EXPECT_NE(table.find("gen.index_nanos"), std::string::npos);
  EXPECT_NE(table.find("1.500s"), std::string::npos);  // *_nanos annotation
  EXPECT_NE(table.find("lat"), std::string::npos);
  EXPECT_NE(table.find("count=1"), std::string::npos);
}

TEST(MetricsTest, GlobalRegistryDefaultsOffAndScopesRestore) {
  EXPECT_EQ(GlobalMetrics(), nullptr);
  {
    MetricRegistry outer;
    ScopedGlobalMetrics scoped_outer(&outer);
    EXPECT_EQ(GlobalMetrics(), &outer);
    {
      MetricRegistry inner;
      ScopedGlobalMetrics scoped_inner(&inner);
      EXPECT_EQ(GlobalMetrics(), &inner);
    }
    EXPECT_EQ(GlobalMetrics(), &outer);
  }
  EXPECT_EQ(GlobalMetrics(), nullptr);
}

}  // namespace
}  // namespace gmark
