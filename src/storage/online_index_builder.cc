#include "storage/online_index_builder.h"

#include <chrono>
#include <limits>
#include <mutex>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aim::storage {

namespace {

/// Chunks of `now` that are not the very chunk object `base` holds there,
/// past either copy's end included: a pointer compare per chunk.
uint64_t ChangedChunks(const HeapTable& base, const HeapTable& now) {
  constexpr RowId kLastSlot = HeapTable::kChunkRows - 1;
  uint64_t n = 0;
  for (RowId rid = now.NextChangedSlot(base, 0); rid != HeapTable::kNoSlot;
       rid = now.NextChangedSlot(base, (rid | kLastSlot) + 1)) {
    ++n;
  }
  return n;
}

/// Catches `side` up from `base` to `now`: re-derives every row from
/// `*cursor` on that may differ (HeapTable::NextChangedSlot) and erases
/// and/or inserts the entry of each whose liveness or encoded key differs,
/// counting it in `*applied`. Stops with `*cursor` at the first such row
/// once `*applied` reaches `limit`, else at kNoSlot. Each re-derived row
/// crosses `online.delta.apply` first, so a failure also leaves `*cursor`
/// at a row not yet applied and a retry resumes there.
Status CatchUp(const catalog::IndexDef& def, const HeapTable& base,
               const HeapTable& now, uint64_t limit, RowId* cursor,
               BTreeIndex* side, uint64_t* applied) {
  std::string old_key;
  std::string new_key;
  for (*cursor = now.NextChangedSlot(base, *cursor);
       *cursor != HeapTable::kNoSlot;
       *cursor = now.NextChangedSlot(base, *cursor + 1)) {
    AIM_FAULT_POINT("online.delta.apply");
    const RowId rid = *cursor;
    const bool was_live = base.IsLive(rid);
    const bool is_live = now.IsLive(rid);
    old_key.clear();
    new_key.clear();
    if (was_live) AppendIndexKey(def, base.slot(rid), &old_key);
    if (is_live) AppendIndexKey(def, now.slot(rid), &new_key);
    if (was_live == is_live && old_key == new_key) continue;
    if (*applied == limit) break;
    if (was_live) side->Erase(old_key, rid);
    if (is_live) side->Insert(new_key, rid);
    ++*applied;
  }
  return Status::OK();
}

}  // namespace

Result<OnlineBuildReport> OnlineIndexBuilder::Build(
    catalog::IndexDef def, IndexSetTransaction* txn,
    std::optional<OnlineBuildSeed> seed) {
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
  const auto since = [](std::chrono::steady_clock::time_point t) {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - t)
        .count();
  };
  const auto build_start = std::chrono::steady_clock::now();
  def.hypothetical = false;
  def.id = catalog::kInvalidIndex;

  // Side tree and heap copies are locals: dropping them is the cleanup.
  const auto abort = [&](Status st) -> Status {
    builds_aborted->Add();
    return st;
  };
  const auto copy_heap = [&] {
    std::shared_lock<std::shared_mutex> lock(db_->latch());
    return db_->heap(def.table);
  };

  // Step 1 — copy the heap as `base` (a seed brings its own).
  OnlineBuildReport report;
  HeapTable base;
  BTreeIndex side;
  {
    std::shared_lock<std::shared_mutex> lock(db_->latch());
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
    if (!seed) base = db_->heap(def.table);
  }

  // Step 2 — the side tree, bulk-built from `base` with no latch held.
  {
    obs::Span snap_span(obs::Tracer::Get(), "online.snapshot");
    if (seed) {
      base = std::move(seed->heap);
      side = std::move(seed->tree);
    } else {
      const Status st =
          BuildIndexTree(base, def, "online.snapshot.scan", &side);
      if (!st.ok()) return abort(st);
    }
    report.snapshot_rows = base.live_count();
    snap_span.SetAttr("rows", report.snapshot_rows);
    snap_span.SetAttr("seeded", seed.has_value());
  }

  // Steps 3+4 — catch-up rounds until one finds at most `swap_chunks`
  // changed chunks, then the swap. The swap re-derives at most
  // `max_swap_tail` slots rounded up to whole chunks and applies at most
  // `max_swap_tail` rows: past the chunk bound it defers after pointer
  // compares alone, past the row bound the next round resumes its diff.
  const uint64_t swap_chunks =
      (options_.max_swap_tail + HeapTable::kChunkRows - 1) /
      HeapTable::kChunkRows;
  RetryPolicy retry(options_.retry);
  int rounds = 0;
  RowId cursor = 0;
  HeapTable now = copy_heap();
  while (true) {
    {
      obs::Span catchup_span(obs::Tracer::Get(), "online.catchup");
      const uint64_t changed = ChangedChunks(base, now);
      uint64_t applied = 0;
      if (changed > 0) {
        if (++rounds > options_.max_catchup_rounds) {
          return abort(Status::Unavailable(
              "online build: catch-up did not converge within " +
              std::to_string(options_.max_catchup_rounds) + " rounds"));
        }
        const Status st = retry.Run([&] {
          return CatchUp(def, base, now, std::numeric_limits<uint64_t>::max(),
                         &cursor, &side, &applied);
        });
        if (!st.ok()) return abort(st);
        base = std::move(now);
        cursor = 0;
        report.delta_applied += applied;
      }
      catchup_span.SetAttr("chunks", changed);
      catchup_span.SetAttr("applied", applied);
      catchup_span.SetAttr("rounds", rounds);
      if (changed > swap_chunks) {
        now = copy_heap();
        continue;
      }
    }

    std::unique_lock<std::shared_mutex> lock(db_->latch());
    obs::Span swap_span(obs::Tracer::Get(), "online.swap");
    const auto stall_start = std::chrono::steady_clock::now();
    const HeapTable& live = db_->heap(def.table);
    const uint64_t changed = ChangedChunks(base, live);
    uint64_t tail = 0;
    Status st = Status::OK();
    if (changed <= swap_chunks) {
      st = CatchUp(def, base, live, options_.max_swap_tail, &cursor, &side,
                   &tail);
    }
    if (st.ok() && (changed > swap_chunks || cursor != HeapTable::kNoSlot)) {
      swap_span.SetAttr("deferred_chunks", changed);
      swap_span.SetAttr("deferred_seconds", since(stall_start));
      report.delta_applied += tail;
      now = live;
      continue;
    }
    if (st.ok()) st = AIM_FAULT_POINT_STATUS("online.swap");
    if (!st.ok()) return abort(st);
    Result<catalog::IndexId> id = db_->AdoptIndex(def, std::move(side));
    if (!id.ok()) return abort(id.status());
    report.id = id.ValueOrDie();
    report.swap_tail_applied = tail;
    report.stall_seconds = since(stall_start);
    swap_span.SetAttr("tail", tail);
    swap_span.SetAttr("stall_seconds", report.stall_seconds);
    if (txn != nullptr) txn->RecordCreated(report.id);
    break;
  }

  report.catchup_rounds = rounds;
  report.retry_attempts = retry.attempts();
  report.retry_backoff_ms = retry.total_backoff_ms();
  report.build_seconds = since(build_start);
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
