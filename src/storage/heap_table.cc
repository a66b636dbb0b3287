#include "storage/heap_table.h"

#include <algorithm>
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
  const RowId rid = slot_count_++;
  std::vector<CowRef<Chunk>>& chunks = chunks_.Mutable();
  if ((rid & kSlotMask) == 0) {
    chunks.emplace_back().Mutable().rows.reserve(kChunkRows);
  }
  chunks.back().Mutable().rows.push_back(std::move(row));
  ++live_count_;
  stamp_ = NextStamp();
  return rid;
}

Status HeapTable::Update(RowId rid, Row row) {
  if (!IsLive(rid)) {
    return Status::NotFound("update of dead row " + std::to_string(rid));
  }
  MutableChunk(rid).rows[rid & kSlotMask] = std::move(row);
  stamp_ = NextStamp();
  return Status::OK();
}

Status HeapTable::Delete(RowId rid) {
  if (!IsLive(rid)) {
    return Status::NotFound("delete of dead row " + std::to_string(rid));
  }
  MutableChunk(rid).deleted[rid & kSlotMask] = true;
  --live_count_;
  stamp_ = NextStamp();
  return Status::OK();
}

template <typename Visit>
bool HeapTable::WalkChunk(RowId* rid, Visit&& visit) const {
  const Chunk& c = chunk(*rid);
  const RowId end = std::min(slot_count_, (*rid | kSlotMask) + 1);
  for (; *rid < end; ++*rid) {
    if (c.deleted[*rid & kSlotMask]) continue;
    if (!visit(*rid, c.rows[*rid & kSlotMask])) {
      ++*rid;
      return false;
    }
  }
  return true;
}

uint64_t HeapTable::Scan(
    const std::function<bool(RowId, const Row&)>& visitor) const {
  uint64_t visited = 0;
  for (RowId rid = 0; rid < slot_count_;) {
    const bool go_on = WalkChunk(&rid, [&](RowId r, const Row& row) {
      ++visited;
      return visitor(r, row);
    });
    if (!go_on) break;
  }
  return visited;
}

size_t HeapTable::ScanChunk(RowId* cursor, size_t max_rows,
                            std::vector<const Row*>* out) const {
  size_t appended = 0;
  while (*cursor < slot_count_ && appended < max_rows) {
    WalkChunk(cursor, [&](RowId, const Row& row) {
      out->push_back(&row);
      return ++appended < max_rows;
    });
  }
  return appended;
}

}  // namespace aim::storage
