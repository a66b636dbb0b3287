#include "obs/metrics.h"

#include <ostream>

namespace aim::obs {

void Histogram::Observe(double v) {
  int bucket = 0;
  double bound = kLowestBound;
  while (bucket < kBuckets - 1 && v > bound) {
    bound *= 2.0;
    ++bucket;
  }
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  double cur = sum_.load(std::memory_order_relaxed);
  while (!sum_.compare_exchange_weak(cur, cur + v,
                                     std::memory_order_relaxed)) {
  }
}

void Histogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0.0, std::memory_order_relaxed);
}

MetricsRegistry* MetricsRegistry::Global() {
  static MetricsRegistry* const registry = new MetricsRegistry();
  return registry;
}

Counter* MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(std::string(name), std::make_unique<Counter>())
             .first;
  }
  return it->second.get();
}

Gauge* MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(std::string(name), std::make_unique<Gauge>())
             .first;
  }
  return it->second.get();
}

Histogram* MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name), std::make_unique<Histogram>())
             .first;
  }
  return it->second.get();
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, c] : counters_) c->Reset();
  for (auto& [name, g] : gauges_) g->Reset();
  for (auto& [name, h] : histograms_) h->Reset();
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [name, c] : counters_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kCounter;
    s.value = static_cast<double>(c->value());
    samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : gauges_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kGauge;
    s.value = g->value();
    samples.push_back(std::move(s));
  }
  for (const auto& [name, h] : histograms_) {
    MetricSample s;
    s.name = name;
    s.kind = MetricSample::Kind::kHistogram;
    s.value = h->sum();
    s.count = h->count();
    samples.push_back(std::move(s));
  }
  return samples;
}

void MetricsRegistry::WriteJson(std::ostream& out) const {
  const std::vector<MetricSample> samples = Snapshot();
  out << "{";
  bool first = true;
  for (const MetricSample& s : samples) {
    if (!first) out << ", ";
    first = false;
    out << "\"" << s.name << "\": ";
    if (s.kind == MetricSample::Kind::kHistogram) {
      const double mean =
          s.count > 0 ? s.value / static_cast<double>(s.count) : 0.0;
      out << "{\"count\": " << s.count << ", \"sum\": " << s.value
          << ", \"mean\": " << mean << "}";
    } else if (s.kind == MetricSample::Kind::kCounter) {
      out << static_cast<uint64_t>(s.value);
    } else {
      out << s.value;
    }
  }
  out << "}";
}

}  // namespace aim::obs
