// Metrics registry + log-bucket histogram quantile math: boundary
// exactness, empty/one-sample, overflow behaviour, merge-across-threads
// and the rendered registry table — the contracts docs/OBSERVABILITY.md
// promises and the serve daemon's latency tables rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ebv::obs {
namespace {

TEST(Histogram, BucketBoundsAreLogSpaced) {
  EXPECT_DOUBLE_EQ(Histogram::bucket_bound(0), 1e-6);
  for (std::size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    EXPECT_DOUBLE_EQ(Histogram::bucket_bound(i),
                     2.0 * Histogram::bucket_bound(i - 1));
  }
  // 48 doublings of 1e-6 reach ~2.8e8 — covers sub-microsecond through
  // multi-day latencies in milliseconds.
  EXPECT_GT(Histogram::bucket_bound(Histogram::kNumBuckets - 1), 1e8);
}

TEST(Histogram, BucketIndexBoundariesAreInclusive) {
  // A sample exactly at bound(i) must land in bucket i (the bucket whose
  // UPPER boundary it is), so quantile() can return it exactly.
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_bound(i)), i)
        << "at boundary " << i;
  }
  // Just above a boundary spills into the next bucket.
  EXPECT_EQ(Histogram::bucket_index(Histogram::bucket_bound(3) * 1.0001), 4);
  // At/below the first boundary, zero and NaN all share bucket 0.
  EXPECT_EQ(Histogram::bucket_index(0.0), 0u);
  EXPECT_EQ(Histogram::bucket_index(1e-9), 0u);
  EXPECT_EQ(Histogram::bucket_index(std::nan("")), 0u);
  // Beyond the last boundary: overflow bucket.
  EXPECT_EQ(Histogram::bucket_index(1e12), Histogram::kNumBuckets);
}

TEST(Histogram, EmptyQuantileIsZero) {
  const Histogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 0.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), 0.0);
}

TEST(Histogram, OneSampleDominatesEveryQuantile) {
  Histogram h;
  h.record(3.5);
  EXPECT_EQ(h.count(), 1u);
  // Every quantile is the single sample's bucket, clamped to the
  // recorded max — i.e. the sample itself.
  EXPECT_DOUBLE_EQ(h.quantile(0.0), 3.5);
  EXPECT_DOUBLE_EQ(h.quantile(0.5), 3.5);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 3.5);
}

TEST(Histogram, ExactAtBucketBoundary) {
  Histogram h;
  const double boundary = Histogram::bucket_bound(10);
  for (int i = 0; i < 100; ++i) h.record(boundary);
  // All samples sit exactly on a boundary, so the estimate is exact.
  EXPECT_DOUBLE_EQ(h.quantile(0.50), boundary);
  EXPECT_DOUBLE_EQ(h.quantile(0.99), boundary);
}

TEST(Histogram, QuantileNeverExceedsMax) {
  Histogram h;
  h.record(3.0);  // mid-bucket: upper bound would be 4.194304
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_DOUBLE_EQ(snap.max, 3.0);
  EXPECT_LE(snap.quantile(0.5), snap.max);
}

TEST(Histogram, OverflowBucketReportsMax) {
  Histogram h;
  h.record(1.0);
  h.record(5e11);  // beyond the last boundary
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.counts[Histogram::kNumBuckets], 1u);
  // p99 ranks into the overflow bucket; the recorded max is the only
  // finite upper bound available.
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), 5e11);
  // 1.0 is mid-bucket, so p25 reports that bucket's upper bound.
  EXPECT_DOUBLE_EQ(snap.quantile(0.25),
                   Histogram::bucket_bound(Histogram::bucket_index(1.0)));
}

TEST(Histogram, QuantileRankMath) {
  Histogram h;
  // 100 samples: 50 at bound(5), 45 at bound(10), 5 at bound(20).
  for (int i = 0; i < 50; ++i) h.record(Histogram::bucket_bound(5));
  for (int i = 0; i < 45; ++i) h.record(Histogram::bucket_bound(10));
  for (int i = 0; i < 5; ++i) h.record(Histogram::bucket_bound(20));
  EXPECT_DOUBLE_EQ(h.quantile(0.50), Histogram::bucket_bound(5));
  EXPECT_DOUBLE_EQ(h.quantile(0.51), Histogram::bucket_bound(10));
  EXPECT_DOUBLE_EQ(h.quantile(0.95), Histogram::bucket_bound(10));
  EXPECT_DOUBLE_EQ(h.quantile(0.96), Histogram::bucket_bound(20));
  EXPECT_DOUBLE_EQ(h.quantile(1.0), Histogram::bucket_bound(20));
}

TEST(Histogram, MergeAcrossThreads) {
  // 8 writers hammering one histogram: the relaxed-atomic counters must
  // not lose a single sample, and the aggregate quantiles must match
  // what a single-threaded recording would produce.
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10'000;
  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        // Threads alternate between two exact boundaries, 75/25.
        h.record(Histogram::bucket_bound((t * kPerThread + i) % 4 == 0
                                             ? 12u
                                             : 6u));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  const HistogramSnapshot snap = h.snapshot();
  EXPECT_EQ(snap.count, static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_EQ(snap.counts[6], static_cast<std::uint64_t>(kThreads) *
                                kPerThread * 3 / 4);
  EXPECT_EQ(snap.counts[12],
            static_cast<std::uint64_t>(kThreads) * kPerThread / 4);
  EXPECT_DOUBLE_EQ(snap.quantile(0.50), Histogram::bucket_bound(6));
  EXPECT_DOUBLE_EQ(snap.quantile(0.99), Histogram::bucket_bound(12));
  EXPECT_DOUBLE_EQ(snap.max, Histogram::bucket_bound(12));
}

TEST(Registry, CounterRoundTrip) {
  Registry reg;
  Counter& c = reg.counter("test.requests");
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42);
  const std::vector<Metric> metrics = reg.snapshot();
  ASSERT_EQ(metrics.size(), 1u);
  EXPECT_EQ(metrics[0].name, "test.requests");
  EXPECT_EQ(metrics[0].kind, Metric::Kind::kCounter);
  EXPECT_EQ(metrics[0].counter_value, 42u);
}

TEST(Registry, GetOrCreateReturnsStableInstance) {
  Registry reg;
  Counter& a = reg.counter("test.same");
  Counter& b = reg.counter("test.same");
  EXPECT_EQ(&a, &b);
  Histogram& ha = reg.histogram("test.hist");
  Histogram& hb = reg.histogram("test.hist");
  EXPECT_EQ(&ha, &hb);
}

TEST(Registry, SnapshotIsSortedByName) {
  Registry reg;
  reg.counter("zz.last").add(1);
  reg.histogram("mm.middle").record(1.0);
  reg.counter("aa.first").add(2);
  const std::vector<Metric> metrics = reg.snapshot();
  ASSERT_EQ(metrics.size(), 3u);
  EXPECT_EQ(metrics[0].name, "aa.first");
  EXPECT_EQ(metrics[1].name, "mm.middle");
  EXPECT_EQ(metrics[2].name, "zz.last");
}

TEST(Registry, RenderedTableShowsAllKinds) {
  Registry reg;
  reg.counter(names::kServeSessionsAccepted).add(3);
  reg.histogram(suffixed(names::kServeLatencyMs, "stats")).record(2.0);
  reg.histogram(suffixed(names::kServeLatencyMs, "run"));  // empty: n=0
  const std::string table = format_metrics_table(reg.snapshot());
  EXPECT_NE(table.find("serve.sessions-accepted"), std::string::npos);
  EXPECT_NE(table.find("3"), std::string::npos);
  EXPECT_NE(table.find("serve.latency-ms.stats"), std::string::npos);
  EXPECT_NE(table.find("n=1 p50="), std::string::npos);
  // Empty histograms render the count alone — no meaningless quantiles.
  EXPECT_NE(table.find("n=0"), std::string::npos);
}

TEST(Registry, SuffixedJoinsWithDot) {
  EXPECT_EQ(suffixed("serve.latency-ms", "run"), "serve.latency-ms.run");
}

}  // namespace
}  // namespace ebv::obs
