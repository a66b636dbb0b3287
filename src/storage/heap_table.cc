#include "storage/heap_table.h"

#include <atomic>

namespace aim::storage {

namespace {

/// A process-wide fresh mutation stamp (never 0).
uint64_t NextStamp() {
  static std::atomic<uint64_t> last{0};
  return last.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace

RowId HeapTable::Insert(Row row) {
  rows_.push_back(std::move(row));
  deleted_.push_back(false);
  ++live_count_;
  stamp_ = NextStamp();
  return rows_.size() - 1;
}

Status HeapTable::Update(RowId rid, Row row) {
  if (!IsLive(rid)) {
    return Status::NotFound("update of dead row " + std::to_string(rid));
  }
  rows_[rid] = std::move(row);
  stamp_ = NextStamp();
  return Status::OK();
}

Status HeapTable::Delete(RowId rid) {
  if (!IsLive(rid)) {
    return Status::NotFound("delete of dead row " + std::to_string(rid));
  }
  deleted_[rid] = true;
  --live_count_;
  stamp_ = NextStamp();
  return Status::OK();
}

uint64_t HeapTable::Scan(
    const std::function<bool(RowId, const Row&)>& visitor) const {
  uint64_t visited = 0;
  for (RowId rid = 0; rid < rows_.size(); ++rid) {
    if (deleted_[rid]) continue;
    ++visited;
    if (!visitor(rid, rows_[rid])) break;
  }
  return visited;
}

size_t HeapTable::ScanChunk(RowId* cursor, size_t max_rows,
                            std::vector<const Row*>* out) const {
  size_t appended = 0;
  RowId rid = *cursor;
  for (; rid < rows_.size() && appended < max_rows; ++rid) {
    if (deleted_[rid]) continue;
    out->push_back(&rows_[rid]);
    ++appended;
  }
  *cursor = rid;
  return appended;
}

}  // namespace aim::storage
