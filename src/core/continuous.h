#ifndef AIM_CORE_CONTINUOUS_H_
#define AIM_CORE_CONTINUOUS_H_

#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "core/aim.h"
#include "storage/index_transaction.h"
#include "support/regression_detector.h"

namespace aim::core {

/// Options for the continuous tuner (Sec. VI-D).
struct ContinuousTunerOptions {
  AimOptions aim;
  /// Automation-created indexes unused for this many consecutive
  /// intervals are dropped ("detect and drop unused indexes").
  int drop_after_idle_intervals = 3;
  /// Shrink automation-created indexes whose trailing key parts go unused
  /// for this many intervals ("drop *parts of* unused indexes").
  int shrink_after_idle_intervals = 3;
  /// Keep the what-if plan-cost cache alive across intervals instead of
  /// rebuilding it from zero every Tick. Sound because cache keys embed
  /// the index-configuration fingerprint (so DDL between intervals only
  /// adds new keys), and the tuner's own store keeps only the cache of
  /// the current schema/statistics fingerprint (see
  /// Catalog::SchemaStatsFingerprint), so drift starts a fresh cache.
  /// Requires `aim.what_if_cache_entries > 0`; ignored when the tuner is
  /// handed a cache store.
  bool carry_what_if_cache = true;
  /// Keep per-cluster candidate-generation results across intervals
  /// (incremental candidate generation). Cache keys embed the statement,
  /// configuration, schema/stats, and option fingerprints, so unchanged
  /// clusters are served from the cache while drifted or new clusters —
  /// and any interval after schema/statistics or configuration drift —
  /// miss and recompute; the bounded LRU ages stale keys out. Reuse is
  /// exact (a hit equals recomputation), so this never changes a
  /// selection.
  bool carry_candidate_cache = true;
  /// Capacity of the carried candidate cache, entries (clusters × passes).
  size_t candidate_cache_entries = 8192;
  /// Tune a live, traffic-bearing database. Each Tick then plans and
  /// validates against a snapshot copied under a brief exclusive
  /// acquisition of the database latch(), while accepted indexes install
  /// on the live database through OnlineIndexBuilder (DESIGN.md §9) and
  /// GC drops go through a latch-aware transaction. Requires every
  /// concurrent writer/reader to follow the Database latch() protocol.
  /// Build knobs are `aim.online`.
  bool online_apply = false;
  /// Bandit-guarded exploration (see ExplorationGate). When enabled the
  /// tuner owns a gate: quarantined candidates are excluded from
  /// generation, the validated set is admitted under the per-interval
  /// regret budget, RegressionDetector offenses roll the implicated
  /// indexes back (and quarantine repeat offenders until the
  /// schema/stats fingerprint drifts), and gate state persists at
  /// `exploration.state_path`. Ordered deployment is configured
  /// separately at `aim.deployment`.
  ExplorationOptions exploration;
  /// Detector knobs for the regression → rollback/quarantine feedback
  /// loop (only used when `exploration.enabled`).
  support::RegressionDetectorOptions regression;
};

/// What one tuning interval did.
struct IntervalReport {
  AimReport aim;
  std::vector<catalog::IndexDef> dropped;
  /// (old definition, new narrower definition) pairs.
  std::vector<std::pair<catalog::IndexDef, catalog::IndexDef>> shrunk;
  /// True when the interval failed and was skipped: all of its index
  /// changes were rolled back, production is exactly as before the Tick,
  /// and `error` holds the cause. Tuning resumes on the next interval.
  bool degraded = false;
  Status error;
  /// Cross-interval plan-cost cache bookkeeping (valid even on degraded
  /// intervals). `cache_entries_carried` is how many warm entries this
  /// interval started with (with a store shared by concurrent tuners, it
  /// depends on their timing); per-interval hit/miss deltas live in
  /// `aim.stats`. `cache_invalidated` means schema/statistics drift
  /// retired the tuner's own carried cache before this interval's run;
  /// `cache_loaded_from_snapshot` means the warm entries came from the
  /// store's snapshot directory rather than an earlier interval.
  size_t cache_entries_carried = 0;
  bool cache_loaded_from_snapshot = false;
  bool cache_invalidated = false;
  /// Exploration bookkeeping (empty/zero unless `exploration.enabled`).
  /// Automation indexes dropped this interval because RegressionDetector
  /// implicated them.
  std::vector<catalog::IndexDef> rolled_back;
  /// Arm keys newly quarantined this interval (offense threshold hit).
  std::vector<uint64_t> quarantined_now;
  /// Quarantine entries released because the schema/stats fingerprint
  /// drifted since they were recorded (survives a degraded reset).
  size_t quarantine_released = 0;
};

struct FleetCacheStoreOptions {
  /// Capacity (entries) of each per-schema plan-cost cache.
  size_t cache_entries = 4096;
  /// Schema-fingerprint-keyed caches kept in memory; least-recently-used
  /// stores beyond this are evicted at interval boundaries.
  size_t max_stores = 64;
  /// When non-empty, every store persists here (one file per schema
  /// fingerprint, temp-file + atomic rename) and new stores warm-start
  /// from disk — a restarted tuning service resumes with warm caches.
  std::string snapshot_dir;
};

/// \brief The owner of carried what-if caches: one `WhatIfCache` per
/// `Catalog::SchemaStatsFingerprint`, shared by every tuner whose schema
/// + statistics fingerprint matches. In a fleet, same-schema tenants
/// therefore warm-start each other: the second tenant of a family begins
/// with every plan cost its sibling already computed. Sound because a
/// fingerprint pins the cost model's whole input — a cached (statement,
/// configuration) cost equals what recomputation would produce for ANY
/// database with that fingerprint, so sharing can never change a
/// decision. A ContinuousTuner handed no store owns one with
/// `max_stores` 1 and trims it after every Tick: schema or statistics
/// drift then retires the old cache.
///
/// This is the only code that loads or saves what-if cache snapshots.
/// Thread-safe lookup; eviction only happens in TrimToCapacity, which
/// the owner must invoke at quiescent points (no tuner mid-tick), since
/// running tuners hold bare cache pointers.
class FleetCacheStore {
 public:
  /// What one GetOrCreate found.
  struct Lookup {
    optimizer::WhatIfCache* cache = nullptr;
    /// No store existed for the fingerprint: this call made one.
    bool created = false;
    /// The new store warm-started from its snapshot on disk.
    bool loaded_from_snapshot = false;
  };

  explicit FleetCacheStore(FleetCacheStoreOptions options = {});

  /// The cache for one schema fingerprint, created (and, with a snapshot
  /// dir, loaded from disk) on first sight, and marked most recently
  /// used. The pointer stays valid until the next TrimToCapacity.
  Lookup GetOrCreate(uint64_t schema_stats_fingerprint);

  /// Best-effort persistence of every store (atomic per file). Returns
  /// the first failure but keeps writing the rest.
  Status SaveAll();

  /// Evicts least-recently-used stores beyond `max_stores`. Quiescent
  /// callers only.
  void TrimToCapacity();

  size_t store_count() const;
  /// Stores that warm-started from a disk snapshot.
  uint64_t snapshot_loads() const;

 private:
  struct StoreEntry {
    std::unique_ptr<optimizer::WhatIfCache> cache;
    std::list<uint64_t>::iterator lru;
  };

  std::string PathFor(uint64_t fingerprint) const;

  FleetCacheStoreOptions options_;
  mutable std::mutex mu_;
  std::map<uint64_t, StoreEntry> stores_;
  std::list<uint64_t> lru_;  // most recently used at front
  uint64_t snapshot_loads_ = 0;
};

/// \brief Periodic (naïve, per Sec. VI-D) continuous tuning: run AIM at
/// the end of every statistics interval, and garbage-collect
/// automation-created indexes that the current workload's plans no longer
/// use — entirely or in their trailing key parts.
class ContinuousTuner {
 public:
  /// `cache_store` supplies the carried what-if cache; its owner persists
  /// and trims it. Without one, the tuner owns a single-fingerprint store
  /// of `aim.what_if_cache_entries` entries when `carry_what_if_cache` is
  /// on. Every run fans out on `pool` when it is set; without one, and
  /// with `aim.num_threads > 1`, the tuner builds one pool of that size
  /// for its life. Both are borrowed, may be null, and must outlive the
  /// tuner.
  ContinuousTuner(storage::Database* db, optimizer::CostModel cm,
                  ContinuousTunerOptions options = {},
                  FleetCacheStore* cache_store = nullptr,
                  common::ThreadPool* pool = nullptr);

  /// One tuning interval: analyze usage of existing automation indexes
  /// against the current workload, drop/shrink idle ones, then run AIM on
  /// the interval's statistics.
  ///
  /// Degrades gracefully: an internal failure never escapes as a non-OK
  /// Result. Instead the interval's changes are rolled back and the
  /// returned report is marked `degraded` with the failure status — the
  /// production configuration is untouched and the tuner stays usable.
  Result<IntervalReport> Tick(const workload::Workload& workload,
                              const workload::WorkloadMonitor* monitor);

  /// The carried candidate cache; null when carrying is disabled. Exposed
  /// for tests asserting incremental candidate generation.
  const CandidateCache* candidate_cache() const {
    return candidate_cache_.get();
  }

  /// The exploration gate; null until the first Tick with
  /// `exploration.enabled` (the fleet tuner feeds aggregator benefit
  /// signals here, tests read arm/quarantine state).
  ExplorationGate* exploration_gate() { return gate_.get(); }
  const ExplorationGate* exploration_gate() const { return gate_.get(); }

 private:
  struct UsageState {
    int idle_intervals = 0;
    size_t max_used_prefix = 0;
    int prefix_idle_intervals = 0;
  };

  /// Plans every workload query against `db`'s real configuration and
  /// records which indexes (and how many leading key parts) are used.
  /// `db` is the tuning view: the live database in classic mode, the
  /// interval's snapshot in online mode.
  void ObserveUsage(const workload::Workload& workload,
                    const storage::Database& db);

  /// The fallible interval body; all index changes go through `txn` so
  /// Tick can roll them back on failure. `cache` is the carried what-if
  /// cache (null = a per-run cache).
  Status TickInternal(const workload::Workload& workload,
                      const workload::WorkloadMonitor* monitor,
                      optimizer::WhatIfCache* cache,
                      storage::IndexSetTransaction* txn,
                      IntervalReport* report);

  /// The live database's schema/statistics fingerprint, read under the
  /// shared latch in online mode (live writers change row counts).
  uint64_t SchemaStatsFingerprint() const;

  /// Drops usage entries whose index no longer exists (rolled-back or
  /// externally dropped ids).
  void PruneUsage();

  /// Readies the exploration gate: on the first enabled Tick, allocates it
  /// (and the regression detector) and loads `exploration.state_path`,
  /// which only the tuner reads and writes; then releases quarantine
  /// entries recorded under a fingerprint other than `fingerprint`.
  void PrepareGate(uint64_t fingerprint, IntervalReport* report);

  /// Best-effort gate-state write to `exploration.state_path` after a
  /// successful interval.
  void SaveGateSnapshot();

  /// Regression → rollback/quarantine feedback: feeds the interval's
  /// monitor statistics to the detector and drops every implicated
  /// automation index through `txn` (repeat offenders are quarantined by
  /// the gate). `automation` is this interval's automation-index
  /// snapshot; rolled-back ids are erased from it and from `usage_` so
  /// the GC loop does not double-drop.
  Status ObserveRegressions(const workload::WorkloadMonitor* monitor,
                            std::vector<catalog::IndexDef>* automation,
                            storage::IndexSetTransaction* txn,
                            IntervalReport* report);

  storage::Database* db_;
  optimizer::CostModel cm_;
  ContinuousTunerOptions options_;
  std::map<catalog::IndexId, UsageState> usage_;
  /// The default store (null when the caller passed one or carrying is
  /// off); `cache_store_` points at whichever store is in use.
  std::unique_ptr<FleetCacheStore> own_cache_store_;
  FleetCacheStore* cache_store_;
  /// The tuner's own pool (null when the caller passed one or runs are
  /// serial); `pool_` points at whichever pool is in use.
  std::unique_ptr<common::ThreadPool> own_pool_;
  common::ThreadPool* pool_;
  /// Carried per-cluster candidate-generation results (incremental
  /// candgen). Never explicitly invalidated: keys embed every input
  /// fingerprint, so drift surfaces as misses and the LRU evicts.
  std::unique_ptr<CandidateCache> candidate_cache_;
  /// Bandit exploration gate + its regression feedback source; allocated
  /// on the first Tick with `exploration.enabled`. Mutated only in the
  /// tuner's serial sections.
  std::unique_ptr<ExplorationGate> gate_;
  std::unique_ptr<support::RegressionDetector> detector_;
};

}  // namespace aim::core

#endif  // AIM_CORE_CONTINUOUS_H_
