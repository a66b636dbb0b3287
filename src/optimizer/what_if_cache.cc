#include "optimizer/what_if_cache.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <istream>
#include <iterator>
#include <ostream>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
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

// Snapshot layout, all fixed-width little-endian-as-stored:
//   magic u64 | version u32 | catalog_fingerprint u64 | count u64 |
//   count x { statement u64, configuration u64, cost f64 }
// Bump kSnapshotVersion on any layout change: an old snapshot is then
// rejected (cold start), never misread.
constexpr uint64_t kSnapshotMagic = 0x31434649574D4941ull;  // "AIMWIFC1"
constexpr uint32_t kSnapshotVersion = 1;

template <typename T>
void WriteRaw(std::ostream& out, T value) {
  char buf[sizeof(T)];
  std::memcpy(buf, &value, sizeof(T));
  out.write(buf, sizeof(T));
}

template <typename T>
bool ReadRaw(std::istream& in, T* value) {
  char buf[sizeof(T)];
  in.read(buf, sizeof(T));
  if (in.gcount() != static_cast<std::streamsize>(sizeof(T))) return false;
  std::memcpy(value, buf, sizeof(T));
  return true;
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

Status WhatIfCache::SaveTo(std::ostream& out,
                           uint64_t catalog_fingerprint) const {
  std::lock_guard<std::mutex> lock(mu_);
  WriteRaw(out, kSnapshotMagic);
  WriteRaw(out, kSnapshotVersion);
  WriteRaw(out, catalog_fingerprint);
  WriteRaw(out, static_cast<uint64_t>(lru_.size()));
  // MRU first, so LoadFrom can rebuild the recency order (and truncate at
  // a smaller capacity) by appending in read order.
  for (const Key& key : lru_) {
    const auto it = entries_.find(key);
    WriteRaw(out, key.statement);
    WriteRaw(out, key.configuration);
    WriteRaw(out, it->second.cost);
  }
  if (!out.good()) {
    return Status::Internal("what-if cache snapshot write failed");
  }
  return Status::OK();
}

Result<bool> WhatIfCache::LoadFrom(std::istream& in,
                                   uint64_t catalog_fingerprint) {
  AIM_FAULT_POINT("whatif.cache.load");
  uint64_t magic = 0;
  uint32_t version = 0;
  uint64_t snapshot_fingerprint = 0;
  uint64_t count = 0;
  if (!ReadRaw(in, &magic) || magic != kSnapshotMagic ||
      !ReadRaw(in, &version) || version != kSnapshotVersion ||
      !ReadRaw(in, &snapshot_fingerprint) || !ReadRaw(in, &count)) {
    return false;  // unrecognized or truncated header: stay cold
  }
  if (snapshot_fingerprint != catalog_fingerprint) {
    // The snapshot's costs were computed against a different schema or
    // different statistics: every entry is stale, reject wholesale.
    return false;
  }
  // Stage outside the cache so a truncated body leaves it untouched.
  std::vector<std::pair<Key, double>> staged;
  staged.reserve(static_cast<size_t>(std::min<uint64_t>(count, capacity_)));
  for (uint64_t i = 0; i < count; ++i) {
    Key key;
    double cost = 0.0;
    if (!ReadRaw(in, &key.statement) || !ReadRaw(in, &key.configuration) ||
        !ReadRaw(in, &cost)) {
      return false;  // truncated mid-entry: reject the whole snapshot
    }
    if (staged.size() < capacity_) staged.emplace_back(key, cost);
  }

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

std::string SnapshotPathForFingerprint(const std::string& base_path,
                                       uint64_t catalog_fingerprint) {
  char suffix[24];
  std::snprintf(suffix, sizeof(suffix), ".%016llx",
                static_cast<unsigned long long>(catalog_fingerprint));
  return base_path + suffix;
}

std::string SnapshotTempPath(const std::string& path) {
  const size_t tid =
      std::hash<std::thread::id>{}(std::this_thread::get_id());
  char suffix[48];
  std::snprintf(suffix, sizeof(suffix), ".tmp.%ld.%zx",
                static_cast<long>(getpid()), tid);
  return path + suffix;
}

Status SaveSnapshotAtomic(const WhatIfCache& cache, const std::string& path,
                          uint64_t catalog_fingerprint) {
  const std::string tmp = SnapshotTempPath(path);
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::Internal("cannot open snapshot temp file " + tmp);
    }
    Status st = cache.SaveTo(out, catalog_fingerprint);
    if (st.ok() && !out.good()) {
      st = Status::Internal("short write to snapshot temp file " + tmp);
    }
    if (!st.ok()) {
      out.close();
      std::remove(tmp.c_str());
      return st;
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

}  // namespace aim::optimizer
