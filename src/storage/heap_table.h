#ifndef AIM_STORAGE_HEAP_TABLE_H_
#define AIM_STORAGE_HEAP_TABLE_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "common/status.h"
#include "storage/row.h"

namespace aim::storage {

/// \brief Append-only heap of rows with tombstone deletes.
///
/// Row ids are stable (slot positions); deleted slots are tombstoned so the
/// secondary indexes' RowId references never dangle.
///
/// Every Insert, Update and Delete sets the heap's mutation stamp to a
/// fresh process-wide value, and a copy keeps the stamp of its source. Two
/// heaps with equal stamps therefore hold the same rows under the same row
/// ids: one is an unmutated copy of the other (or both are new and empty),
/// so an index built on either is valid on both.
class HeapTable {
 public:
  /// Appends a row; returns its RowId.
  RowId Insert(Row row);

  /// Replaces the row at `rid`. Fails if the row was deleted.
  Status Update(RowId rid, Row row);

  /// Tombstones the row at `rid`.
  Status Delete(RowId rid);

  bool IsLive(RowId rid) const {
    return rid < rows_.size() && !deleted_[rid];
  }
  const Row& row(RowId rid) const { return rows_[rid]; }

  /// The mutation stamp (0 until the first mutation).
  uint64_t stamp() const { return stamp_; }

  /// Number of live rows.
  uint64_t live_count() const { return live_count_; }
  /// Total slots (live + tombstoned); scan cost is proportional to this.
  uint64_t slot_count() const { return rows_.size(); }

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
  std::vector<Row> rows_;
  std::vector<bool> deleted_;
  uint64_t live_count_ = 0;
  uint64_t stamp_ = 0;
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_HEAP_TABLE_H_
