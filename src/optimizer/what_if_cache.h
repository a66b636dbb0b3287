#ifndef AIM_OPTIMIZER_WHAT_IF_CACHE_H_
#define AIM_OPTIMIZER_WHAT_IF_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/result.h"

namespace aim::optimizer {

/// Counters describing one cache's lifetime activity.
struct WhatIfCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;

  double hit_rate() const {
    const double total = static_cast<double>(hits + misses);
    return total > 0.0 ? static_cast<double>(hits) / total : 0.0;
  }
};

/// \brief Memoizes `(statement fingerprint, configuration fingerprint) →
/// plan cost` across all WhatIfOptimizer clones of one advisor run.
///
/// Papadomanolakis et al. report ~90% of a classic index advisor's time
/// in optimizer calls. Here what-if ranking is a smaller share (0.128 s
/// of a ≈1.15 s TPC-H tuning interval, where clone validation dominates),
/// but a tuning pass still re-costs the same statement under the same
/// configuration again and again — two-phase candidate generation repeats
/// every dataless probe, and production workloads repeat statements. Each
/// unique (statement, configuration) pair is planned at most once per
/// cache generation.
///
/// Thread-safe with *single-flight* semantics: when several workers ask
/// for the same uncached key concurrently, exactly one computes while the
/// rest wait and share the result. The number of real optimizer calls
/// therefore equals the number of unique keys requested — invariant under
/// thread count, which is what keeps the parallel pipeline's what-if call
/// totals bit-identical to the serial path's.
///
/// Keys embed the configuration fingerprint, so `SetConfiguration` needs
/// no explicit invalidation sweep: entries of a dead configuration become
/// unreachable and age out of the LRU. Failed computations are never
/// cached. Bounded: least-recently-used ready entries are evicted beyond
/// `capacity`.
class WhatIfCache {
 public:
  struct Key {
    uint64_t statement = 0;
    uint64_t configuration = 0;

    bool operator==(const Key& o) const {
      return statement == o.statement && configuration == o.configuration;
    }
  };

  explicit WhatIfCache(size_t capacity = 4096) : capacity_(capacity) {}
  WhatIfCache(const WhatIfCache&) = delete;
  WhatIfCache& operator=(const WhatIfCache&) = delete;

  /// Returns the cached cost for `key` or computes it via `compute`
  /// (single-flight) and caches the success. Waiting out another thread's
  /// in-flight computation counts as a hit — the optimizer call was
  /// avoided either way.
  Result<double> GetOrCompute(const Key& key,
                              const std::function<Result<double>()>& compute);

  /// Test/diagnostic peek; touches neither counters nor LRU order.
  std::optional<double> Peek(const Key& key) const;

  /// The ready entries, most recently used first, as a snapshot image
  /// (SnapshotKind::kWhatIfCache) tagged with `catalog_fingerprint`: the
  /// schema + statistics the costs were computed against.
  std::string SaveTo(uint64_t catalog_fingerprint) const;

  /// Restores a SaveTo image, replacing the ready entries. Returns false,
  /// leaving the cache as it was, when the image is *rejected* — foreign,
  /// an old version, truncated, failing its CRC, or taken against another
  /// catalog fingerprint (stale costs): the designed cold start. A non-OK
  /// status (the `whatif.cache.load` fault point) also means start cold.
  /// Counters are untouched: hits against loaded entries are how
  /// carried-over value is measured.
  Result<bool> LoadFrom(std::string_view image, uint64_t catalog_fingerprint);

  void Clear();
  size_t size() const;
  size_t capacity() const { return capacity_; }

  /// Lock-free snapshot of the hit/miss/eviction counters. Each counter
  /// is an atomic read (never torn, monotone between calls), so pollers
  /// can sample stats concurrently with GetOrCompute without ever
  /// blocking the single-flight hot path. The three counters are read
  /// independently: a snapshot taken mid-operation may be ahead on one
  /// counter relative to another by the in-flight delta, which is the
  /// standard monitoring contract; quiescent-point snapshots (how
  /// AimRunStats computes per-run deltas) are exact.
  WhatIfCacheStats stats() const;

 private:
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // Golden-ratio mix of the two 64-bit halves.
      uint64_t h = k.statement * 0x9E3779B97F4A7C15ull;
      h ^= k.configuration + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  struct Entry {
    double cost = 0.0;
    bool ready = false;  // false = another thread is computing it
    std::list<Key>::iterator lru;  // valid only when ready
  };

  /// Drops LRU entries until at most `capacity_` remain. Locked; only
  /// ready entries live on the LRU list, so in-flight computations are
  /// never evicted from under their waiters.
  void EvictLocked();

  mutable std::mutex mu_;
  std::condition_variable ready_cv_;
  size_t capacity_;
  std::unordered_map<Key, Entry, KeyHash> entries_;
  std::list<Key> lru_;  // most recently used at front
  // Atomic so stats() never takes mu_: a monitoring poller must not
  // contend with (or wait behind) an in-flight single-flight compute.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> evictions_{0};
};

}  // namespace aim::optimizer

#endif  // AIM_OPTIMIZER_WHAT_IF_CACHE_H_
