#include "optimizer/what_if_cache.h"

#include <iterator>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/snapshot_file.h"
#include "obs/metrics.h"

namespace aim::optimizer {

namespace {

/// Fleet-wide cache counters, aggregated across every WhatIfCache
/// instance (pointers cached once; Add is one relaxed atomic op).
obs::Counter* GlobalHits() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global()->counter("whatif.cache.hits");
  return c;
}
obs::Counter* GlobalMisses() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global()->counter("whatif.cache.misses");
  return c;
}
obs::Counter* GlobalEvictions() {
  static obs::Counter* const c =
      obs::MetricsRegistry::Global()->counter("whatif.cache.evictions");
  return c;
}

}  // namespace

Result<double> WhatIfCache::GetOrCompute(
    const Key& key, const std::function<Result<double>()>& compute) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    auto it = entries_.find(key);
    if (it == entries_.end()) break;  // this thread computes
    if (it->second.ready) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      GlobalHits()->Add();
      lru_.splice(lru_.begin(), lru_, it->second.lru);
      return it->second.cost;
    }
    // In flight on another thread: wait for it to become ready (served
    // waiters re-enter the loop and take the hit path) or to be erased
    // after a failure (then this thread takes over the computation).
    ready_cv_.wait(lock);
  }
  entries_.emplace(key, Entry{});  // computing marker, not on the LRU
  misses_.fetch_add(1, std::memory_order_relaxed);
  GlobalMisses()->Add();
  lock.unlock();

  Result<double> result = compute();

  lock.lock();
  auto it = entries_.find(key);  // still present: only the owner resolves it
  if (result.ok()) {
    it->second.cost = result.ValueOrDie();
    it->second.ready = true;
    lru_.push_front(key);
    it->second.lru = lru_.begin();
    EvictLocked();
  } else {
    entries_.erase(it);  // failures are not cached
  }
  lock.unlock();
  ready_cv_.notify_all();
  return result;
}

std::optional<double> WhatIfCache::Peek(const Key& key) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = entries_.find(key);
  if (it == entries_.end() || !it->second.ready) return std::nullopt;
  return it->second.cost;
}

std::string WhatIfCache::SaveTo(uint64_t catalog_fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  SnapshotWriter out(SnapshotKind::kWhatIfCache);
  out.Put(catalog_fingerprint);
  out.Put(static_cast<uint64_t>(lru_.size()));
  // MRU first, so LoadFrom can rebuild the recency order (and truncate at
  // a smaller capacity) by appending in read order.
  for (const Key& key : lru_) {
    out.Put(key);  // statement u64, configuration u64
    out.Put(entries_.find(key)->second.cost);
  }
  return std::move(out).Finish();
}

Result<bool> WhatIfCache::LoadFrom(std::string_view image,
                                   uint64_t catalog_fingerprint) {
  AIM_FAULT_POINT("whatif.cache.load");
  SnapshotReader in(SnapshotKind::kWhatIfCache, image);
  uint64_t snapshot_fingerprint = 0;
  uint64_t count = 0;
  // A snapshot taken against a different schema or different statistics
  // holds only stale costs: reject it wholesale.
  if (!in.Get(&snapshot_fingerprint) ||
      snapshot_fingerprint != catalog_fingerprint || !in.Get(&count)) {
    return false;
  }
  // Stage outside the cache so a rejected image leaves it untouched.
  std::vector<std::pair<Key, double>> staged;
  for (uint64_t i = 0; i < count && in.ok(); ++i) {
    Key key;
    double cost = 0.0;
    in.Get(&key);
    in.Get(&cost);
    if (staged.size() < capacity_) staged.emplace_back(key, cost);
  }
  if (!in.done()) return false;

  std::lock_guard<std::mutex> lock(mu_);
  for (const Key& key : lru_) entries_.erase(key);
  lru_.clear();
  // Entries arrive MRU first; appending keeps that order, so eviction
  // pressure after a warm start falls on the coldest carried entries.
  for (const auto& [key, cost] : staged) {
    auto [it, inserted] = entries_.emplace(key, Entry{});
    if (!inserted) continue;  // duplicate key in a hand-built snapshot
    it->second.cost = cost;
    it->second.ready = true;
    lru_.push_back(key);
    it->second.lru = std::prev(lru_.end());
  }
  return true;
}

void WhatIfCache::Clear() {
  std::lock_guard<std::mutex> lock(mu_);
  // In-flight entries stay: their owners hold no lock but will look the
  // marker up again to resolve it. Only ready entries are dropped.
  for (const Key& key : lru_) entries_.erase(key);
  lru_.clear();
}

size_t WhatIfCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();  // ready entries only
}

WhatIfCacheStats WhatIfCache::stats() const {
  WhatIfCacheStats stats;
  stats.hits = hits_.load(std::memory_order_relaxed);
  stats.misses = misses_.load(std::memory_order_relaxed);
  stats.evictions = evictions_.load(std::memory_order_relaxed);
  return stats;
}

void WhatIfCache::EvictLocked() {
  while (lru_.size() > capacity_) {
    entries_.erase(lru_.back());
    lru_.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
    GlobalEvictions()->Add();
  }
}

}  // namespace aim::optimizer
