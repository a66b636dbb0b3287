#include "core/continuous.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "common/snapshot_file.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aim::core {

// ---------------------------------------------------------------------------
// FleetCacheStore

FleetCacheStore::FleetCacheStore(FleetCacheStoreOptions options)
    : options_(std::move(options)) {}

std::string FleetCacheStore::PathFor(uint64_t fingerprint) const {
  return SnapshotPathForFingerprint(options_.snapshot_dir + "/whatif_cache",
                                    fingerprint);
}

FleetCacheStore::Lookup FleetCacheStore::GetOrCreate(
    uint64_t schema_stats_fingerprint) {
  std::lock_guard<std::mutex> lock(mu_);
  Lookup lookup;
  auto it = stores_.find(schema_stats_fingerprint);
  if (it != stores_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru);
    lookup.cache = it->second.cache.get();
    return lookup;
  }
  lookup.created = true;
  StoreEntry entry;
  entry.cache =
      std::make_unique<optimizer::WhatIfCache>(options_.cache_entries);
  if (!options_.snapshot_dir.empty()) {
    const std::optional<std::string> image =
        ReadSnapshotFile(PathFor(schema_stats_fingerprint));
    if (image.has_value()) {
      Result<bool> loaded =
          entry.cache->LoadFrom(*image, schema_stats_fingerprint);
      if (loaded.ok() && loaded.ValueOrDie()) {
        lookup.loaded_from_snapshot = true;
        ++snapshot_loads_;
        obs::MetricsRegistry::Global()
            ->counter("fleet.cache.snapshot_loads")
            ->Add();
      }
      // A rejected or failed load is the designed cold start.
    }
  }
  lru_.push_front(schema_stats_fingerprint);
  entry.lru = lru_.begin();
  lookup.cache = entry.cache.get();
  stores_.emplace(schema_stats_fingerprint, std::move(entry));
  return lookup;
}

Status FleetCacheStore::SaveAll() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.snapshot_dir.empty()) return Status::OK();
  Status first_error = Status::OK();
  for (const auto& [fingerprint, entry] : stores_) {
    Status st = WriteSnapshotFile(PathFor(fingerprint),
                                  entry.cache->SaveTo(fingerprint));
    if (!st.ok() && first_error.ok()) first_error = st;
  }
  return first_error;
}

void FleetCacheStore::TrimToCapacity() {
  std::lock_guard<std::mutex> lock(mu_);
  if (options_.max_stores == 0) return;
  while (stores_.size() > options_.max_stores) {
    const uint64_t victim = lru_.back();
    lru_.pop_back();
    stores_.erase(victim);
  }
}

size_t FleetCacheStore::store_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stores_.size();
}

uint64_t FleetCacheStore::snapshot_loads() const {
  std::lock_guard<std::mutex> lock(mu_);
  return snapshot_loads_;
}

// ---------------------------------------------------------------------------
// ContinuousTuner

ContinuousTuner::ContinuousTuner(storage::Database* db,
                                 optimizer::CostModel cm,
                                 ContinuousTunerOptions options,
                                 FleetCacheStore* cache_store,
                                 common::ThreadPool* pool)
    : db_(db),
      cm_(cm),
      options_(std::move(options)),
      cache_store_(cache_store),
      own_pool_(pool == nullptr && options_.aim.num_threads > 1
                    ? std::make_unique<common::ThreadPool>(
                          options_.aim.num_threads)
                    : nullptr),
      pool_(pool != nullptr ? pool : own_pool_.get()) {
  if (cache_store_ == nullptr && options_.carry_what_if_cache &&
      options_.aim.what_if_cache_entries > 0) {
    FleetCacheStoreOptions store;
    store.cache_entries = options_.aim.what_if_cache_entries;
    store.max_stores = 1;
    own_cache_store_ = std::make_unique<FleetCacheStore>(store);
    cache_store_ = own_cache_store_.get();
  }
  if (options_.carry_candidate_cache) {
    candidate_cache_ =
        std::make_unique<CandidateCache>(options_.candidate_cache_entries);
  }
}

uint64_t ContinuousTuner::SchemaStatsFingerprint() const {
  if (options_.online_apply) {
    std::shared_lock<std::shared_mutex> lock(db_->latch());
    return db_->catalog().SchemaStatsFingerprint();
  }
  return db_->catalog().SchemaStatsFingerprint();
}

void ContinuousTuner::ObserveUsage(const workload::Workload& workload,
                                   const storage::Database& db) {
  // Fresh usage snapshot for this interval.
  std::map<catalog::IndexId, size_t> used_prefix;
  optimizer::Optimizer opt(db.catalog(), cm_);
  optimizer::OptimizeOptions options;
  options.include_hypothetical = false;
  for (const workload::Query& q : workload.queries) {
    Result<optimizer::AnalyzedQuery> aq =
        optimizer::Analyze(q.stmt, db.catalog());
    if (!aq.ok()) continue;
    optimizer::Plan plan = opt.OptimizeAnalyzed(aq.ValueOrDie(), options);
    for (const optimizer::JoinStep& step : plan.steps) {
      if (step.path.index == nullptr) continue;
      size_t& p = used_prefix[step.path.index->id];
      size_t used = step.path.eq_prefix_len +
                    (step.path.range_on_next ? 1 : 0);
      if (step.path.covering || step.path.delivers_group ||
          step.path.delivers_order) {
        // Key parts beyond the matching prefix still earn their keep when
        // the query reads them from the index (covering / ordered reads):
        // count up to the deepest referenced key part.
        const auto& refs =
            aq.ValueOrDie().instances[step.instance].referenced_columns;
        const auto& key = step.path.index->columns;
        for (size_t pos = 0; pos < key.size(); ++pos) {
          if (std::find(refs.begin(), refs.end(), key[pos]) != refs.end()) {
            used = std::max(used, pos + 1);
          }
        }
      }
      p = std::max(p, used);
    }
  }

  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->created_by_automation) continue;
    UsageState& state = usage_[idx->id];
    auto it = used_prefix.find(idx->id);
    if (it == used_prefix.end()) {
      ++state.idle_intervals;
      ++state.prefix_idle_intervals;
    } else {
      state.idle_intervals = 0;
      state.max_used_prefix = std::max(state.max_used_prefix, it->second);
      if (it->second >= idx->columns.size()) {
        state.prefix_idle_intervals = 0;
      } else {
        ++state.prefix_idle_intervals;
      }
    }
  }
}

void ContinuousTuner::PrepareGate(uint64_t fingerprint,
                                  IntervalReport* report) {
  if (!options_.exploration.enabled) return;
  if (gate_ == nullptr) {
    gate_ = std::make_unique<ExplorationGate>(options_.exploration);
    detector_ =
        std::make_unique<support::RegressionDetector>(options_.regression);
    // One load per tuner lifetime: after the first Tick the in-memory gate
    // is the freshest state there is. A rejected image is a cold start.
    const std::optional<std::string> image =
        ReadSnapshotFile(options_.exploration.state_path);
    if (image.has_value()) (void)gate_->LoadFrom(*image, fingerprint);
  }
  // Drift voids the evidence behind every quarantine entry: release them
  // so the (possibly now-beneficial) indexes can compete again.
  report->quarantine_released = gate_->SyncFingerprint(fingerprint);
  if (report->quarantine_released > 0) {
    static obs::Counter* const released =
        obs::MetricsRegistry::Global()->counter(
            "aim.exploration.quarantine_released");
    released->Add(report->quarantine_released);
  }
}

void ContinuousTuner::SaveGateSnapshot() {
  const std::string& path = options_.exploration.state_path;
  if (gate_ == nullptr || path.empty()) return;
  Status st = WriteSnapshotFile(path, gate_->SaveTo());
  if (!st.ok()) {
    AIM_LOG(Warn) << "exploration gate snapshot save failed: "
                  << st.ToString();
  }
}

Status ContinuousTuner::ObserveRegressions(
    const workload::WorkloadMonitor* monitor,
    std::vector<catalog::IndexDef>* automation,
    storage::IndexSetTransaction* txn, IntervalReport* report) {
  if (gate_ == nullptr || detector_ == nullptr || monitor == nullptr) {
    return Status::OK();
  }
  // Monitor snapshots iterate a hash map: sort by fingerprint so the
  // detector sees (and reports) regressions in one deterministic order
  // at any thread count.
  std::vector<workload::QueryStats> stats = monitor->Snapshot();
  std::sort(stats.begin(), stats.end(),
            [](const workload::QueryStats& a,
               const workload::QueryStats& b) {
              return a.fingerprint < b.fingerprint;
            });
  std::vector<std::pair<catalog::IndexId, catalog::TableId>> suspects_in;
  for (const catalog::IndexDef& def : *automation) {
    if (def.created_by_automation) {
      suspects_in.emplace_back(def.id, def.table);
    }
  }
  const std::vector<support::Regression> regressions =
      detector_->Observe(stats, suspects_in);
  if (regressions.empty()) return Status::OK();

  // One offense per index per interval, however many queries regressed:
  // quarantine counts repeat-offender *intervals*, not queries.
  std::set<catalog::IndexId> suspect_ids;
  for (const support::Regression& r : regressions) {
    for (catalog::IndexId id : r.suspect_indexes) suspect_ids.insert(id);
  }
  obs::Span span(obs::Tracer::Get(), "exploration.regression");
  span.SetAttr("regressions", regressions.size());
  for (catalog::IndexId id : suspect_ids) {
    auto it = std::find_if(automation->begin(), automation->end(),
                           [&](const catalog::IndexDef& def) {
                             return def.id == id;
                           });
    if (it == automation->end() || !it->created_by_automation) continue;
    const catalog::IndexDef def = *it;
    if (gate_->ObserveRegression(def)) {
      report->quarantined_now.push_back(IndexArmKey(def));
    }
    // Rollback: the implicated index leaves production this interval. A
    // degraded tick restores it with everything else via txn rollback.
    AIM_RETURN_NOT_OK(txn->DropIndex(id));
    usage_.erase(id);
    automation->erase(it);
    report->rolled_back.push_back(def);
  }
  static obs::Counter* const rollbacks =
      obs::MetricsRegistry::Global()->counter("aim.exploration.rollbacks");
  rollbacks->Add(report->rolled_back.size());
  span.SetAttr("rolled_back", report->rolled_back.size());
  span.SetAttr("quarantined_now", report->quarantined_now.size());
  return Status::OK();
}

Result<IntervalReport> ContinuousTuner::Tick(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor) {
  static obs::Counter* const ticks =
      obs::MetricsRegistry::Global()->counter("tuner.ticks");
  static obs::Counter* const degraded_ticks =
      obs::MetricsRegistry::Global()->counter("tuner.degraded_ticks");
  ticks->Add();
  obs::Span tick_span(obs::Tracer::Get(), "tuner.tick");
  IntervalReport report;
  const uint64_t fingerprint = SchemaStatsFingerprint();
  optimizer::WhatIfCache* cache = nullptr;
  if (cache_store_ != nullptr) {
    const FleetCacheStore::Lookup lookup =
        cache_store_->GetOrCreate(fingerprint);
    cache = lookup.cache;
    report.cache_entries_carried = cache->size();
    report.cache_loaded_from_snapshot = lookup.loaded_from_snapshot;
    // The tuner's own store keeps one fingerprint: a second one means the
    // schema or statistics drifted, and the trim below retires the cache
    // of the old one.
    report.cache_invalidated = lookup.created &&
                               own_cache_store_ != nullptr &&
                               own_cache_store_->store_count() > 1;
  }
  PrepareGate(fingerprint, &report);
  // The cache/gate bookkeeping must survive a degraded-interval report
  // reset.
  const size_t cache_entries_carried = report.cache_entries_carried;
  const bool cache_loaded = report.cache_loaded_from_snapshot;
  const bool cache_invalidated = report.cache_invalidated;
  const size_t quarantine_released = report.quarantine_released;
  tick_span.SetAttr("cache_entries_carried", cache_entries_carried);
  storage::IndexSetTransaction txn(
      db_, options_.online_apply ? &db_->latch() : nullptr);
  Status st = TickInternal(workload, monitor, cache, &txn, &report);
  if (st.ok()) {
    txn.Commit();
    SaveGateSnapshot();
  } else {
    // Graceful degradation: skip the interval, roll the GC changes back
    // (AIM's apply step is itself transactional and has already undone
    // its own creates), and report the failure structurally. Production
    // keeps its pre-Tick configuration; the next interval retries. The
    // carried cache keeps any entries the failed run added — their costs
    // are pure functions of (catalog, configuration), which the rollback
    // restored.
    (void)txn.Rollback();
    report = IntervalReport{};
    report.degraded = true;
    report.error = st;
    report.cache_entries_carried = cache_entries_carried;
    report.cache_loaded_from_snapshot = cache_loaded;
    report.cache_invalidated = cache_invalidated;
    report.quarantine_released = quarantine_released;
    degraded_ticks->Add();
    AIM_LOG(Warn) << "tuning interval degraded: " << st.ToString();
  }
  if (own_cache_store_ != nullptr) own_cache_store_->TrimToCapacity();
  PruneUsage();
  tick_span.SetAttr("degraded", report.degraded);
  tick_span.SetAttr("dropped", report.dropped.size());
  tick_span.SetAttr("shrunk", report.shrunk.size());
  if (!st.ok()) tick_span.SetAttr("error", st.ToString());
  return report;
}

Status ContinuousTuner::TickInternal(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor, optimizer::WhatIfCache* cache,
    storage::IndexSetTransaction* txn, IntervalReport* report) {
  AIM_FAULT_POINT("core.tick");
  // Online mode plans against a point-in-time copy taken under a brief
  // exclusive latch: Recommend stages hypothetical indexes in the catalog
  // and validation replays on clones, none of which may touch the live,
  // traffic-bearing database. Index ids are shared between the snapshot
  // and the live catalog (only the tuner performs DDL), so GC decisions
  // made on the snapshot apply to the live database by id.
  storage::Database snapshot;
  if (options_.online_apply) {
    std::unique_lock<std::shared_mutex> lock(db_->latch());
    snapshot = *db_;
  }
  storage::Database* tuning_db = options_.online_apply ? &snapshot : db_;
  // With compression on, usage observation plans one representative per
  // cluster instead of every raw statement (Recommend re-compresses for
  // its own phases; compression is idempotent, so the clusters match).
  workload::CompressedWorkload usage_compressed;
  const workload::Workload* observe_workload = &workload;
  if (options_.aim.compression.enabled && !workload.empty()) {
    obs::Span span(obs::Tracer::Get(), "workload.compress");
    usage_compressed =
        workload::WorkloadCompressor(options_.aim.compression)
            .Compress(workload, monitor, &tuning_db->catalog());
    observe_workload = &usage_compressed.workload;
    span.SetAttr("statements_in", usage_compressed.stats.statements_in);
    span.SetAttr("clusters", usage_compressed.stats.clusters);
  }
  ObserveUsage(*observe_workload, *tuning_db);
  RetryPolicy retry(options_.aim.validation.retry);

  // Garbage-collect automation indexes the workload stopped using.
  // Snapshot definitions by value: CreateIndex below can reallocate the
  // catalog's index storage and invalidate pointers.
  std::vector<catalog::IndexDef> automation;
  for (const catalog::IndexDef* p :
       tuning_db->catalog().AllIndexes(false, false)) {
    automation.push_back(*p);
  }

  // Regression → rollback/quarantine feedback (exploration mode): every
  // automation index RegressionDetector implicates this interval is
  // dropped, and repeat offenders are quarantined out of candidate
  // generation until the schema/stats fingerprint drifts.
  AIM_RETURN_NOT_OK(ObserveRegressions(monitor, &automation, txn, report));

  for (const catalog::IndexDef& def : automation) {
    const catalog::IndexDef* idx = &def;
    if (!idx->created_by_automation) continue;
    auto it = usage_.find(idx->id);
    if (it == usage_.end()) continue;
    const UsageState& state = it->second;
    if (state.idle_intervals >= options_.drop_after_idle_intervals) {
      AIM_RETURN_NOT_OK(txn->DropIndex(idx->id));
      report->dropped.push_back(*idx);
      usage_.erase(it);
      continue;
    }
    if (state.max_used_prefix > 0 &&
        state.max_used_prefix < idx->columns.size() &&
        state.prefix_idle_intervals >=
            options_.shrink_after_idle_intervals) {
      catalog::IndexDef narrower = *idx;
      narrower.columns.resize(state.max_used_prefix);
      narrower.id = catalog::kInvalidIndex;
      narrower.name.clear();
      if (tuning_db->catalog().FindIndex(narrower.table, narrower.columns) !=
          nullptr) {
        continue;  // the prefix already exists as its own index
      }
      catalog::IndexDef old = *idx;
      // Build the narrower index before dropping the wide one: if the
      // build fails, the old index is still standing (and the transaction
      // guarantees the same even for the drop).
      Result<catalog::IndexId> nid =
          retry.Run([&] { return txn->CreateIndex(narrower); });
      if (!nid.ok()) {
        if (nid.status().code() == Status::Code::kAlreadyExists) continue;
        return nid.status();
      }
      AIM_RETURN_NOT_OK(txn->DropIndex(idx->id));
      usage_.erase(it);
      report->shrunk.emplace_back(old, narrower);
    }
  }

  // Run AIM on this interval's statistics, against the carried plan-cost
  // cache (Tick took it from the store of the current schema/statistics
  // fingerprint) and the carried candidate cache, which reuses unchanged
  // clusters across intervals and recomputes only drifted/new ones. In
  // online mode AIM plans on the snapshot and installs on the live
  // database.
  TuningResources resources;
  resources.shared_pool = pool_;
  resources.shared_cache = cache;
  if (options_.online_apply) resources.online_apply_db = db_;
  resources.candidate_cache = candidate_cache_.get();
  resources.exploration_gate = gate_.get();
  AutomaticIndexManager aim(tuning_db, cm_, options_.aim, resources);
  AIM_ASSIGN_OR_RETURN(report->aim, aim.RunOnce(workload, monitor));
  if (gate_ != nullptr) {
    // Fold the interval's validated replay evidence into the admitted
    // arms' measured benefit (the bandit's reward samples).
    gate_->ObserveValidation(report->aim.recommended,
                             report->aim.validation);
  }
  return Status::OK();
}

void ContinuousTuner::PruneUsage() {
  for (auto it = usage_.begin(); it != usage_.end();) {
    if (db_->catalog().index(it->first) == nullptr) {
      it = usage_.erase(it);
    } else {
      ++it;
    }
  }
}

}  // namespace aim::core
