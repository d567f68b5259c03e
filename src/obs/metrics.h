// Process-wide metrics registry: named counters and fixed-
// boundary log-bucket histograms with p50/p95/p99 readout.
//
// Contract (docs/OBSERVABILITY.md):
//  * The hot path — Counter::add, Histogram::record
//    — is lock-free: relaxed atomic read-modify-writes only, no allocation,
//    no mutex. Instruments are safe to hammer from every worker thread.
//  * Registration (Registry::counter/histogram) and aggregation
//    (Registry::snapshot) take the registry mutex; both are cold paths.
//    Call sites register once, cache the returned reference (stable for
//    the registry's lifetime), and record through it.
//  * Code that never touches a Registry pays nothing: instruments are
//    plain structs, there is no ambient hook in the runtime.
//
// Metric names must be `kebab.dotted` constants from obs/metric_names.h
// (ebvlint rule `inline-metric-name`); per-instance variants append a
// suffix with obs::suffixed().
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/sync.h"

namespace ebv::obs {

/// Monotonic event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }

  [[nodiscard]] std::uint64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Read-only copy of a histogram's state; quantile math lives here so
/// tests can exercise it on hand-built snapshots.
struct HistogramSnapshot {
  // counts[i] for i < kNumBuckets: samples in (bound(i-1), bound(i)];
  // counts[kNumBuckets] is the overflow bucket (> bound(kNumBuckets-1)).
  std::array<std::uint64_t, 49> counts{};
  std::uint64_t count = 0;
  double sum = 0.0;
  double max = 0.0;

  /// Nearest-rank quantile estimate, q in [0, 1]. Returns the upper
  /// boundary of the bucket holding the ranked sample (exact when the
  /// sample sits on a boundary), clamped to the recorded max so an
  /// estimate never exceeds an observed value; the overflow bucket
  /// reports the max, and empty reports 0.
  [[nodiscard]] double quantile(double q) const;
};

/// Fixed-boundary log-bucket latency/size histogram. Boundaries are
/// bound(i) = kFirstBound * 2^i, shared by every instance so snapshots
/// merge bucket-by-bucket.
class Histogram {
 public:
  static constexpr std::size_t kNumBuckets = 48;
  static constexpr double kFirstBound = 1e-6;

  /// Upper boundary of bucket i (inclusive).
  [[nodiscard]] static double bucket_bound(std::size_t i);

  /// Index of the bucket whose range contains v; kNumBuckets for
  /// overflow. Non-positive and NaN values land in bucket 0.
  [[nodiscard]] static std::size_t bucket_index(double v);

  void record(double v);

  [[nodiscard]] std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }

  [[nodiscard]] HistogramSnapshot snapshot() const;

  [[nodiscard]] double quantile(double q) const { return snapshot().quantile(q); }

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets + 1> counts_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

/// One aggregated metric in a registry snapshot.
struct Metric {
  enum class Kind { kCounter, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::uint64_t counter_value = 0;
  HistogramSnapshot histogram;
};

/// Named-instrument registry. Owners (Server, the CLI) hold their own
/// instance so tests running several servers in one process do not
/// cross-pollute; Registry::global() serves process-singleton tools.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Get-or-create; the returned reference is stable for the registry's
  /// lifetime — cache it and record lock-free.
  Counter& counter(std::string_view name) EBV_EXCLUDES(mu_);
  Histogram& histogram(std::string_view name) EBV_EXCLUDES(mu_);

  /// Aggregated view of every registered instrument, sorted by name.
  [[nodiscard]] std::vector<Metric> snapshot() const EBV_EXCLUDES(mu_);

  static Registry& global();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_
      EBV_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_
      EBV_GUARDED_BY(mu_);
};

/// `base + "." + suffix` — the one sanctioned way to derive per-instance
/// metric names from the constants in obs/metric_names.h.
[[nodiscard]] std::string suffixed(std::string_view base, std::string_view suffix);

/// Render a snapshot as the fixed-width `metric | value` table shared by
/// `ebvpart query metrics` and the daemon drain report. Histograms render
/// as `n=<count> p50=<..> p95=<..> p99=<..> max=<..>` with durations
/// formatted from milliseconds.
[[nodiscard]] std::string format_metrics_table(const std::vector<Metric>& metrics);

}  // namespace ebv::obs
