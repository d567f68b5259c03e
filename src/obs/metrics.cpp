#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

#include "analysis/table.h"
#include "common/format.h"

namespace ebv::obs {
namespace {

void add_relaxed(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}

void max_relaxed(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur &&
         !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}

}  // namespace

double Histogram::bucket_bound(std::size_t i) {
  return std::ldexp(kFirstBound, static_cast<int>(i));
}

std::size_t Histogram::bucket_index(double v) {
  // NaN and anything at or below the first boundary share bucket 0;
  // negative latencies cannot occur upstream (steady clock), so a
  // dedicated underflow bucket would never fill.
  if (!(v > kFirstBound)) return 0;
  int exp = 0;
  const double mantissa = std::frexp(v / kFirstBound, &exp);
  // v / kFirstBound == mantissa * 2^exp with mantissa in [0.5, 1). The
  // smallest i with v <= bound(i) is exp, except exactly at a power of
  // two (mantissa == 0.5) where the boundary is inclusive: i = exp - 1.
  const int i = (mantissa == 0.5) ? exp - 1 : exp;
  if (i < 0) return 0;
  return std::min(static_cast<std::size_t>(i), kNumBuckets);
}

void Histogram::record(double v) {
  counts_[bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  add_relaxed(sum_, v);
  max_relaxed(max_, v);
}

HistogramSnapshot Histogram::snapshot() const {
  HistogramSnapshot snap;
  for (std::size_t i = 0; i <= kNumBuckets; ++i) {
    snap.counts[i] = counts_[i].load(std::memory_order_relaxed);
    snap.count += snap.counts[i];
  }
  snap.sum = sum_.load(std::memory_order_relaxed);
  snap.max = max_.load(std::memory_order_relaxed);
  return snap;
}

double HistogramSnapshot::quantile(double q) const {
  if (count == 0) return 0.0;
  const double clamped = std::clamp(q, 0.0, 1.0);
  auto rank = static_cast<std::uint64_t>(std::ceil(clamped * static_cast<double>(count)));
  rank = std::clamp<std::uint64_t>(rank, 1, count);
  std::uint64_t cumulative = 0;
  for (std::size_t i = 0; i < Histogram::kNumBuckets; ++i) {
    cumulative += counts[i];
    if (cumulative >= rank) {
      // Bucket upper bound, clamped so a quantile never exceeds the
      // recorded max (a lone sample mid-bucket would otherwise report
      // p50 above max — confusing in the rendered table).
      return std::min(Histogram::bucket_bound(i), max);
    }
  }
  // Ranked sample sits in the overflow bucket: the recorded max is the
  // only finite upper bound available.
  return max;
}

Counter& Registry::counter(std::string_view name) {
  MutexLock lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Histogram& Registry::histogram(std::string_view name) {
  MutexLock lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), std::make_unique<Histogram>()).first;
  }
  return *it->second;
}

std::vector<Metric> Registry::snapshot() const {
  std::vector<Metric> out;
  {
    MutexLock lock(mu_);
    out.reserve(counters_.size() + histograms_.size());
    for (const auto& [name, counter] : counters_) {
      Metric m;
      m.name = name;
      m.kind = Metric::Kind::kCounter;
      m.counter_value = counter->value();
      out.push_back(std::move(m));
    }
    for (const auto& [name, histogram] : histograms_) {
      Metric m;
      m.name = name;
      m.kind = Metric::Kind::kHistogram;
      m.histogram = histogram->snapshot();
      out.push_back(std::move(m));
    }
  }
  std::sort(out.begin(), out.end(),
            [](const Metric& a, const Metric& b) { return a.name < b.name; });
  return out;
}

Registry& Registry::global() {
  static Registry registry;
  return registry;
}

std::string suffixed(std::string_view base, std::string_view suffix) {
  std::string name;
  name.reserve(base.size() + 1 + suffix.size());
  name.append(base);
  name.push_back('.');
  name.append(suffix);
  return name;
}

std::string format_metrics_table(const std::vector<Metric>& metrics) {
  analysis::Table table({"metric", "value"});
  for (const Metric& m : metrics) {
    std::string value;
    switch (m.kind) {
      case Metric::Kind::kCounter:
        value = with_commas(m.counter_value);
        break;
      case Metric::Kind::kHistogram: {
        const HistogramSnapshot& h = m.histogram;
        value = "n=" + with_commas(h.count);
        if (h.count > 0) {
          // Latency histograms record milliseconds; format_duration
          // takes seconds.
          value += " p50=" + format_duration(h.quantile(0.50) / 1e3);
          value += " p95=" + format_duration(h.quantile(0.95) / 1e3);
          value += " p99=" + format_duration(h.quantile(0.99) / 1e3);
          value += " max=" + format_duration(h.max / 1e3);
        }
        break;
      }
    }
    table.add_row({m.name, std::move(value)});
  }
  return table.to_string();
}

}  // namespace ebv::obs
