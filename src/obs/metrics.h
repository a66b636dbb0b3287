#ifndef AIM_OBS_METRICS_H_
#define AIM_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace aim::obs {

/// \brief Monotonic counter. Relaxed atomic increments: safe to bump from
/// any thread on hot paths (one atomic add, no lock, no allocation).
class Counter {
 public:
  void Add(uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// \brief Last-write-wins floating point gauge.
class Gauge {
 public:
  void Set(double v) { value_.store(v, std::memory_order_relaxed); }
  void Add(double delta) {
    double cur = value_.load(std::memory_order_relaxed);
    while (!value_.compare_exchange_weak(cur, cur + delta,
                                         std::memory_order_relaxed)) {
    }
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// \brief Fixed-bucket exponential histogram (doubling bounds from
/// `kLowestBound`), built for latencies in seconds but unit-agnostic.
/// Observe() is lock-free: one bucket increment plus sum/count updates.
/// Bucket counts, sum, and count are each atomic; a concurrent reader may
/// observe a sum slightly ahead of the matching bucket count (and vice
/// versa), which is the usual monitoring-snapshot contract.
class Histogram {
 public:
  /// Bucket i covers (bound(i-1), bound(i)] with
  /// bound(i) = kLowestBound * 2^i; the last bucket is +inf.
  static constexpr int kBuckets = 40;
  static constexpr double kLowestBound = 1e-9;

  void Observe(double v);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  double mean() const {
    const uint64_t n = count();
    return n > 0 ? sum() / static_cast<double>(n) : 0.0;
  }
  void Reset();

 private:
  std::atomic<uint64_t> buckets_[kBuckets] = {};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
};

/// One metric, flattened for export.
struct MetricSample {
  enum class Kind { kCounter, kGauge, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  double value = 0.0;       // counter/gauge value; histogram sum
  uint64_t count = 0;       // histogram observation count
};

/// \brief Process-wide registry of named metrics.
///
/// Instruments register lazily by name and live for the registry's
/// lifetime: the returned pointers are stable, so hot paths cache them in
/// a function-local static and never pay the name lookup again. ResetAll
/// zeroes values without invalidating pointers (tests and per-run deltas
/// rely on this). All methods are thread-safe.
class MetricsRegistry {
 public:
  /// The processwide registry every pipeline stage reports into.
  static MetricsRegistry* Global();

  Counter* counter(std::string_view name);
  Gauge* gauge(std::string_view name);
  Histogram* histogram(std::string_view name);

  /// Zeroes every instrument; registered pointers stay valid.
  void ResetAll();

  /// Alphabetical flat snapshot of every instrument.
  std::vector<MetricSample> Snapshot() const;

  /// One JSON object: {"name": value, ..., "hist": {"count": n, "sum": s,
  /// "mean": m}} — the same shape bench_json.h sections use, so
  /// BENCH_results.json consumers can ingest it unchanged.
  void WriteJson(std::ostream& out) const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>, std::less<>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>, std::less<>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>, std::less<>> histograms_;
};

}  // namespace aim::obs

#endif  // AIM_OBS_METRICS_H_
