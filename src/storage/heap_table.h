#ifndef AIM_STORAGE_HEAP_TABLE_H_
#define AIM_STORAGE_HEAP_TABLE_H_

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "storage/cow.h"
#include "storage/row.h"

namespace aim::storage {

/// \brief One chunk of a heap: up to kRows slots stored as typed column
/// lanes (DESIGN.md §18).
///
/// Each column is a lane: a kind byte per slot (sql::Value::Kind) and an
/// 8-byte payload per slot holding the exact int64 or double bits. String
/// slots keep their bytes in the chunk's `text` store and their payload is
/// `offset << 32 | length` into it. Lanes never assume the column's
/// declared type, so every Value round-trips with its kind (an int64 in a
/// double column, -0.0, NaN, NULL, strings with NUL bytes).
struct HeapChunk {
  static constexpr int kShift = 8;
  static constexpr uint32_t kRows = uint32_t{1} << kShift;

  struct Lane {
    std::vector<uint8_t> kinds;  // by slot
    std::vector<uint64_t> bits;  // by slot
  };

  std::vector<Lane> lanes;  // by column
  std::string text;         // bytes of every string slot
  uint64_t dead_text = 0;   // bytes of `text` no slot refers to any more
  uint32_t rows = 0;        // slots filled; only the last chunk is partial
  std::bitset<kRows> deleted;

  ValueView value(uint32_t slot, size_t column) const {
    const Lane& lane = lanes[column];
    ValueView v;
    v.kind = static_cast<sql::Value::Kind>(lane.kinds[slot]);
    v.bits = lane.bits[slot];
    if (v.kind == sql::Value::Kind::kString) {
      v.text = std::string_view(text.data() + (v.bits >> 32),
                                v.bits & 0xFFFFFFFFu);
    }
    return v;
  }

  /// Writes `row` into `slot` (== rows appends a slot).
  void Store(uint32_t slot, const Row& row);
};

/// A bound row: its chunk and slot, the executor's binding. Valid until
/// the table is next mutated; `chunk == nullptr` means unbound.
struct SlotRef {
  const HeapChunk* chunk = nullptr;
  uint32_t slot = 0;

  ValueView value(size_t column) const { return chunk->value(slot, column); }
};

/// \brief Append-only heap of rows with tombstone deletes, stored in
/// copy-on-write chunks of typed column lanes.
///
/// Row ids are stable (slot positions); deleted slots are tombstoned so the
/// secondary indexes' RowId references never dangle. Slots live in chunks
/// of kChunkRows; a row id is its chunk's index shifted by kChunkShift plus
/// its position in the chunk. Rows are stored column by column
/// (HeapChunk); `row(rid)` builds a Row by value for the DML path and
/// tests, and the read paths take lanes through SlotRef and ValueView.
///
/// A copy shares the chunk directory and through it every chunk, so it
/// costs one counter increment (DESIGN.md §17). The first Insert, Update
/// or Delete on either side afterwards copies the directory and the one
/// chunk it writes, appends to a shared partial last chunk included; the
/// other side never sees the write.
///
/// Every Insert, Update and Delete sets the heap's mutation stamp to a
/// fresh process-wide value, and a copy keeps the stamp of its source. Two
/// heaps with equal stamps therefore hold the same rows under the same row
/// ids: one is an unmutated copy of the other (or both are new and empty),
/// so an index built on either is valid on both.
class HeapTable {
 public:
  static constexpr int kChunkShift = HeapChunk::kShift;
  static constexpr RowId kChunkRows = HeapChunk::kRows;

  /// Appends a row; returns its RowId.
  RowId Insert(const Row& row);

  /// Replaces the row at `rid`. Fails if the row was deleted.
  Status Update(RowId rid, const Row& row);

  /// Tombstones the row at `rid`.
  Status Delete(RowId rid);

  bool IsLive(RowId rid) const {
    return rid < slot_count_ && !chunk(rid).deleted[rid & kSlotMask];
  }
  /// The row at `rid`, built from its lanes.
  Row row(RowId rid) const;
  /// One column of the row at `rid`; valid until the table is next mutated.
  ValueView value(RowId rid, size_t column) const {
    return chunk(rid).value(rid & kSlotMask, column);
  }
  /// The binding of `rid`; valid until the table is next mutated.
  SlotRef slot(RowId rid) const {
    return SlotRef{&chunk(rid), static_cast<uint32_t>(rid & kSlotMask)};
  }

  /// The mutation stamp (0 until the first mutation).
  uint64_t stamp() const { return stamp_; }

  /// Number of live rows.
  uint64_t live_count() const { return live_count_; }
  /// Total slots (live + tombstoned); scan cost is proportional to this.
  uint64_t slot_count() const { return slot_count_; }

  /// Calls `visit(rid, slot_ref)` for every live row in row-id order; the
  /// visitor returns false to stop early. Returns the number of rows
  /// visited (rows examined).
  template <typename Visit>
  uint64_t ForEachLive(Visit&& visit) const {
    uint64_t visited = 0;
    for (RowId rid = 0; rid < slot_count_;) {
      const bool go_on = WalkChunk(&rid, [&](RowId r, SlotRef ref) {
        ++visited;
        return visit(r, ref);
      });
      if (!go_on) break;
    }
    return visited;
  }

  /// ForEachLive with each row built by value (tests and the row oracle).
  uint64_t Scan(
      const std::function<bool(RowId, const Row&)>& visitor) const;

  /// \brief Chunked scan cursor for the batch executor: appends up to
  /// `max_rows` live rows (valid while the table is not mutated) starting
  /// at slot `*cursor`, advancing `*cursor` past the last slot examined.
  ///
  /// Returns the number of rows appended — identical to the visited count
  /// Scan would report for these rows. The scan is exhausted when it
  /// returns less than `max_rows`.
  size_t ScanChunk(RowId* cursor, size_t max_rows,
                   std::vector<SlotRef>* out) const;

 private:
  static constexpr RowId kSlotMask = kChunkRows - 1;

  const HeapChunk& chunk(RowId rid) const {
    return *(*chunks_)[rid >> kChunkShift];
  }
  /// The chunk of `rid`, private to this table (copied first if shared).
  HeapChunk& MutableChunk(RowId rid) {
    return chunks_.Mutable()[rid >> kChunkShift].Mutable();
  }
  /// Walks live slots from `*rid` to the end of its chunk (or the table),
  /// calling `visit(rid, slot_ref)`; returns false, with `*rid` past the
  /// slot visited last, when `visit` does.
  template <typename Visit>
  bool WalkChunk(RowId* rid, Visit&& visit) const {
    const HeapChunk& c = chunk(*rid);
    const RowId end = std::min(slot_count_, (*rid | kSlotMask) + 1);
    for (; *rid < end; ++*rid) {
      const uint32_t slot = static_cast<uint32_t>(*rid & kSlotMask);
      if (c.deleted[slot]) continue;
      if (!visit(*rid, SlotRef{&c, slot})) {
        ++*rid;
        return false;
      }
    }
    return true;
  }

  CowRef<std::vector<CowRef<HeapChunk>>> chunks_;
  uint64_t slot_count_ = 0;
  uint64_t live_count_ = 0;
  uint64_t stamp_ = 0;
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_HEAP_TABLE_H_
