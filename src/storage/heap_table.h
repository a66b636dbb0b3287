#ifndef AIM_STORAGE_HEAP_TABLE_H_
#define AIM_STORAGE_HEAP_TABLE_H_

#include <bitset>
#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/cow.h"
#include "storage/row.h"

namespace aim::storage {

/// \brief Append-only heap of rows with tombstone deletes, stored in
/// copy-on-write chunks.
///
/// Row ids are stable (slot positions); deleted slots are tombstoned so the
/// secondary indexes' RowId references never dangle. Slots live in chunks
/// of kChunkRows; a row id is its chunk's index shifted by kChunkShift plus
/// its position in the chunk.
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
  static constexpr int kChunkShift = 8;
  static constexpr RowId kChunkRows = RowId{1} << kChunkShift;

  /// Appends a row; returns its RowId.
  RowId Insert(Row row);

  /// Replaces the row at `rid`. Fails if the row was deleted.
  Status Update(RowId rid, Row row);

  /// Tombstones the row at `rid`.
  Status Delete(RowId rid);

  bool IsLive(RowId rid) const {
    return rid < slot_count_ && !chunk(rid).deleted[rid & kSlotMask];
  }
  /// Valid until this table is next mutated.
  const Row& row(RowId rid) const { return chunk(rid).rows[rid & kSlotMask]; }

  /// The mutation stamp (0 until the first mutation).
  uint64_t stamp() const { return stamp_; }

  /// Number of live rows.
  uint64_t live_count() const { return live_count_; }
  /// Total slots (live + tombstoned); scan cost is proportional to this.
  uint64_t slot_count() const { return slot_count_; }

  /// Visits every live row; the visitor returns false to stop early.
  /// Returns the number of rows visited (rows examined).
  uint64_t Scan(
      const std::function<bool(RowId, const Row&)>& visitor) const;

  /// \brief Chunked scan cursor for the batch executor: appends up to
  /// `max_rows` live rows (pointers remain valid while the table is not
  /// mutated) starting at slot `*cursor`, advancing `*cursor` past the
  /// last slot examined.
  ///
  /// Returns the number of rows appended — identical to the visited count
  /// Scan would report for these rows. The scan is exhausted when it
  /// returns less than `max_rows`.
  size_t ScanChunk(RowId* cursor, size_t max_rows,
                   std::vector<const Row*>* out) const;

 private:
  static constexpr RowId kSlotMask = kChunkRows - 1;

  struct Chunk {
    std::vector<Row> rows;  // by slot; only the last chunk is partial
    std::bitset<kChunkRows> deleted;
  };

  const Chunk& chunk(RowId rid) const {
    return *(*chunks_)[rid >> kChunkShift];
  }
  /// The chunk of `rid`, private to this table (copied first if shared).
  Chunk& MutableChunk(RowId rid) {
    return chunks_.Mutable()[rid >> kChunkShift].Mutable();
  }
  /// Walks live slots from `*rid` to the end of its chunk (or the table),
  /// calling `visit(rid, row)`; returns false, with `*rid` past the slot
  /// visited last, when `visit` does.
  template <typename Visit>
  bool WalkChunk(RowId* rid, Visit&& visit) const;

  CowRef<std::vector<CowRef<Chunk>>> chunks_;
  uint64_t slot_count_ = 0;
  uint64_t live_count_ = 0;
  uint64_t stamp_ = 0;
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_HEAP_TABLE_H_
