#include "storage/online_index_builder.h"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aim::storage {

namespace {

/// The delta log one build shares with the DML hook. Writers append under
/// the database latch (held exclusively during DML); the builder drains
/// from its own thread, so the log carries its own small mutex. Lock
/// order is latch -> log (writers) or log alone (builder) — never
/// inverted.
struct DeltaLog {
  std::mutex mu;
  std::vector<RowId> entries;

  void Append(RowId rid) {
    std::lock_guard<std::mutex> lock(mu);
    entries.push_back(rid);
  }
  std::vector<RowId> Take() {
    std::lock_guard<std::mutex> lock(mu);
    std::vector<RowId> out;
    out.swap(entries);
    return out;
  }
  size_t Size() {
    std::lock_guard<std::mutex> lock(mu);
    return entries.size();
  }
};

/// Builder-private view of the side tree: RowId -> key currently stored,
/// which is what makes delta application idempotent (the entry can be
/// erased without knowing the historical key the DML replaced).
using SideKeys = std::unordered_map<RowId, std::string>;

void SortUnique(std::vector<RowId>* batch) {
  std::sort(batch->begin(), batch->end());
  batch->erase(std::unique(batch->begin(), batch->end()), batch->end());
}

}  // namespace

Result<OnlineBuildReport> OnlineIndexBuilder::Build(
    catalog::IndexDef def, IndexSetTransaction* txn) {
  static obs::Counter* const builds =
      obs::MetricsRegistry::Global()->counter("online.builds");
  static obs::Counter* const builds_aborted =
      obs::MetricsRegistry::Global()->counter("online.builds_aborted");
  static obs::Counter* const delta_entries =
      obs::MetricsRegistry::Global()->counter("online.delta.applied");
  static obs::Histogram* const stall_hist =
      obs::MetricsRegistry::Global()->histogram("online.swap.stall_seconds");

  obs::Span build_span(obs::Tracer::Get(), "online.build");
  builds->Add();
  const auto build_start = std::chrono::steady_clock::now();
  def.hypothetical = false;
  def.id = catalog::kInvalidIndex;

  OnlineBuildReport report;
  BTreeIndex side;
  SideKeys keys;
  DeltaLog log;
  int hook_token = 0;

  // Re-derives `rid`'s side-tree entry from its current heap state.
  // Caller holds the latch (shared or exclusive); `side`/`keys` are
  // builder-private. Idempotent: applying the same RowId twice, or an
  // entry that is stale by the time it is read, converges on the live
  // state.
  const auto apply_one = [&](RowId rid) {
    const HeapTable& heap = db_->heap(def.table);
    auto it = keys.find(rid);
    if (heap.IsLive(rid)) {
      std::string key = db_->MakeIndexKey(def, heap.row(rid));
      if (it != keys.end()) {
        if (it->second == key) return;  // already current
        side.Erase(it->second, rid);
        it->second = key;
      } else {
        keys.emplace(rid, key);
      }
      side.Insert(key, rid);
    } else if (it != keys.end()) {
      side.Erase(it->second, rid);
      keys.erase(it);
    }
  };

  // Applies a drained batch; each entry crosses the `online.delta.apply`
  // fault point so chaos schedules can kill (or transiently fail) the
  // build mid-catch-up and mid-tail.
  const auto apply_entries = [&](const std::vector<RowId>& batch) -> Status {
    for (RowId rid : batch) {
      AIM_FAULT_POINT("online.delta.apply");
      apply_one(rid);
    }
    return Status::OK();
  };

  // Abort path: unregister the hook under the exclusive latch (writers
  // iterate the hook list during DML) and surface the failure. The side
  // tree and delta log are locals — dropping them IS the cleanup; the
  // database was never touched.
  const auto abort = [&](Status st) -> Status {
    std::unique_lock<std::shared_mutex> lock(db_->latch());
    db_->UnregisterDmlHook(hook_token);
    builds_aborted->Add();
    return st;
  };

  // Phase 1 — arm: hook and snapshot bound under one exclusive
  // acquisition, so every row the bounded scan can miss is in the log.
  uint64_t snapshot_slots = 0;
  {
    std::unique_lock<std::shared_mutex> lock(db_->latch());
    if (def.table >= db_->catalog().table_count()) {
      return Status::InvalidArgument("online build: unknown table");
    }
    if (def.columns.empty()) {
      return Status::InvalidArgument("online build: empty key");
    }
    if (db_->catalog().FindIndex(def.table, def.columns) != nullptr) {
      return Status::AlreadyExists("online build: duplicate index on " +
                                   db_->catalog().DescribeIndex(def));
    }
    const catalog::TableId table = def.table;
    hook_token = db_->RegisterDmlHook(
        [&log, table](DmlOp, catalog::TableId t, RowId rid) {
          if (t == table) log.Append(rid);
        });
    snapshot_slots = db_->heap(def.table).slot_count();
  }

  // Phase 2 — chunked snapshot scan under a shared latch, bulk-built:
  // entries accumulate in rid order and are sorted and packed once.
  {
    BTreeBuilder snapshot;
    obs::Span snap_span(obs::Tracer::Get(), "online.snapshot");
    const uint64_t chunk = std::max<uint64_t>(1, options_.snapshot_chunk_rows);
    for (uint64_t begin = 0; begin < snapshot_slots; begin += chunk) {
      Status st;
      {
        std::shared_lock<std::shared_mutex> lock(db_->latch());
        st = AIM_FAULT_POINT_STATUS("online.snapshot.scan");
        if (st.ok()) {
          const HeapTable& heap = db_->heap(def.table);
          const uint64_t end = std::min(begin + chunk, snapshot_slots);
          for (RowId rid = begin; rid < end; ++rid) {
            if (!heap.IsLive(rid)) continue;
            std::string key = db_->MakeIndexKey(def, heap.row(rid));
            snapshot.Add(key, rid);
            keys.emplace(rid, std::move(key));
            ++report.snapshot_rows;
          }
        }
      }
      // abort() re-acquires the latch exclusively, so the shared scan lock
      // must be gone first.
      if (!st.ok()) return abort(st);
      if (options_.after_snapshot_chunk) options_.after_snapshot_chunk(begin);
    }
    side = std::move(snapshot).Finish();
    snap_span.SetAttr("rows", report.snapshot_rows);
    snap_span.SetAttr("slots", snapshot_slots);
  }

  // Phases 3+4 — catch-up rounds until the backlog fits the stall cap,
  // then the swap. A swap attempt that finds a larger tail (DML raced the
  // convergence check) releases the latch and falls back to catch-up.
  RetryPolicy retry(options_.retry);
  int rounds = 0;
  while (true) {
    {
      obs::Span catchup_span(obs::Tracer::Get(), "online.catchup");
      uint64_t round_applied = 0;
      while (log.Size() > options_.max_swap_tail) {
        if (++rounds > options_.max_catchup_rounds) {
          catchup_span.SetAttr("applied", round_applied);
          return abort(Status::Unavailable(
              "online build: delta catch-up did not converge within " +
              std::to_string(options_.max_catchup_rounds) + " rounds"));
        }
        std::vector<RowId> batch = log.Take();
        SortUnique(&batch);
        const Status st = retry.Run([&]() -> Status {
          std::shared_lock<std::shared_mutex> lock(db_->latch());
          return apply_entries(batch);
        });
        if (!st.ok()) {
          catchup_span.SetAttr("applied", round_applied);
          return abort(st);
        }
        round_applied += batch.size();
      }
      report.delta_applied += round_applied;
      catchup_span.SetAttr("applied", round_applied);
      catchup_span.SetAttr("rounds", rounds);
    }

    std::unique_lock<std::shared_mutex> lock(db_->latch());
    obs::Span swap_span(obs::Tracer::Get(), "online.swap");
    const auto stall_start = std::chrono::steady_clock::now();
    std::vector<RowId> tail = log.Take();
    SortUnique(&tail);
    if (tail.size() > options_.max_swap_tail) {
      // Too much DML slipped in between the backlog check and the
      // exclusive acquisition: apply this batch as one more catch-up
      // round rather than blowing the stall bound.
      swap_span.SetAttr("deferred_tail", tail.size());
      lock.unlock();
      if (++rounds > options_.max_catchup_rounds) {
        return abort(Status::Unavailable(
            "online build: swap tail never fit the stall cap"));
      }
      const Status st = retry.Run([&]() -> Status {
        std::shared_lock<std::shared_mutex> relock(db_->latch());
        return apply_entries(tail);
      });
      if (!st.ok()) return abort(st);
      report.delta_applied += tail.size();
      continue;
    }

    const Status st = AIM_FAULT_POINT_STATUS("online.swap");
    if (!st.ok()) {
      db_->UnregisterDmlHook(hook_token);
      builds_aborted->Add();
      return st;
    }
    const Status tail_st = apply_entries(tail);
    if (!tail_st.ok()) {
      db_->UnregisterDmlHook(hook_token);
      builds_aborted->Add();
      return tail_st;
    }
    Result<catalog::IndexId> id = db_->AdoptIndex(def, std::move(side));
    // Whatever AdoptIndex decided, the build is over: stop observing DML
    // before the latch drops (on success, normal maintenance owns the
    // index from here).
    db_->UnregisterDmlHook(hook_token);
    if (!id.ok()) {
      builds_aborted->Add();
      return id.status();
    }
    report.id = id.ValueOrDie();
    report.swap_tail_applied = tail.size();
    report.stall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      stall_start)
            .count();
    swap_span.SetAttr("tail", tail.size());
    swap_span.SetAttr("stall_seconds", report.stall_seconds);
    if (txn != nullptr) txn->RecordCreated(report.id);
    break;
  }

  report.catchup_rounds = rounds;
  report.retry_attempts = retry.attempts();
  report.retry_backoff_ms = retry.total_backoff_ms();
  report.build_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    build_start)
          .count();
  build_span.SetAttr("build_seconds", report.build_seconds);
  stall_hist->Observe(report.stall_seconds);
  delta_entries->Add(report.delta_applied + report.swap_tail_applied);
  build_span.SetAttr("snapshot_rows", report.snapshot_rows);
  build_span.SetAttr("delta_applied", report.delta_applied);
  build_span.SetAttr("swap_tail", report.swap_tail_applied);
  build_span.SetAttr("rounds", report.catchup_rounds);
  return report;
}

}  // namespace aim::storage
