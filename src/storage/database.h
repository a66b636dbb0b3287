#ifndef AIM_STORAGE_DATABASE_H_
#define AIM_STORAGE_DATABASE_H_

#include <map>
#include <memory>
#include <shared_mutex>
#include <string>
#include <utility>
#include <vector>

#include "catalog/catalog.h"
#include "common/result.h"
#include "storage/btree_index.h"
#include "storage/heap_table.h"

namespace aim::common {
class ThreadPool;
}  // namespace aim::common

namespace aim::storage {

/// \brief Counters for one DML operation's index-maintenance work.
struct MaintenanceCost {
  uint64_t index_entries_written = 0;  // inserts + deletes across indexes
  uint64_t indexes_touched = 0;
};

/// Appends the encoded index key of the row bound by `ref` under `def`
/// (its key parts, in order; see AppendKeyPart) to `key`.
void AppendIndexKey(const catalog::IndexDef& def, SlotRef ref,
                    std::string* key);

/// Bulk-builds the B+Tree of `def` over `heap`'s live rows, crossing
/// `fault_point` once per entry; on a failure there `out` is untouched.
/// The build of CreateIndex(es) (`storage.build_index_entry`) and of the
/// online builder's side tree (`online.snapshot.scan`).
Status BuildIndexTree(const HeapTable& heap, const catalog::IndexDef& def,
                      const char* fault_point, BTreeIndex* out);

/// \brief A database: catalog + heap tables + materialized secondary
/// indexes, with index maintenance on every DML.
///
/// Hypothetical ("dataless") indexes live only in the catalog — CreateIndex
/// skips materialization for them, mirroring HypoPG / what-if indexes.
class Database {
 public:
  Database() = default;
  /// Copies share every heap chunk and B+Tree leaf with their source and
  /// copy a chunk or leaf only when either side first writes it (DESIGN.md
  /// §17), so the online snapshot and the validation and shard clones
  /// cost O(tables + indexes) plus the catalog.
  Database(const Database& other);
  Database& operator=(const Database& other);
  Database(Database&&) = default;
  Database& operator=(Database&&) = default;

  catalog::Catalog& catalog() { return catalog_; }
  const catalog::Catalog& catalog() const { return catalog_; }

  /// Registers a table and allocates its heap.
  catalog::TableId CreateTable(catalog::TableDef def);

  const HeapTable& heap(catalog::TableId table) const {
    return heaps_[table];
  }

  /// Creates an index; materializes it by scanning the heap unless the
  /// definition is hypothetical. Returns the index id. CreateIndexes of
  /// one definition.
  Result<catalog::IndexId> CreateIndex(catalog::IndexDef def);

  /// Batch CreateIndex with the heap scans fanned over `pool` (nullptr or
  /// single-worker pool = serial). Results are slotted by input position.
  /// Three deterministic phases: catalog registration in input order (ids
  /// are identical to serial one-by-one creation), parallel B+Tree builds
  /// against the then-frozen catalog/heaps, and adoption in input order.
  /// Each definition succeeds or fails independently — a failed build
  /// (e.g. an injected `storage.build_index_entry` crash) unregisters only
  /// its own catalog entry, exactly like single CreateIndex atomicity.
  std::vector<Result<catalog::IndexId>> CreateIndexes(
      std::vector<catalog::IndexDef> defs, common::ThreadPool* pool = nullptr);

  /// Installs an index whose B+Tree was built elsewhere (the online
  /// builder's side tree): registers the definition and adopts the tree
  /// without any heap scan. There is no failure point between catalog
  /// registration and tree adoption, so the index is either fully present
  /// (catalog entry + materialized B+Tree) or entirely absent. The caller
  /// owns synchronization (the online builder swaps under an exclusive
  /// latch() acquisition).
  Result<catalog::IndexId> AdoptIndex(catalog::IndexDef def,
                                      BTreeIndex built);

  Status DropIndex(catalog::IndexId id);

  /// Unregisters a real index and hands back its B+Tree, for AdoptIndex
  /// into a database whose heap carries the same stamp (clone validation
  /// returns the test clone's trees this way). Crosses no fault point:
  /// the source is a private copy, not a production configuration.
  Result<BTreeIndex> ReleaseIndex(catalog::IndexId id);

  /// The materialized B+Tree for a real index; nullptr for hypothetical or
  /// unknown ids.
  const BTreeIndex* btree(catalog::IndexId id) const;

  /// Row mutation with index maintenance. `cost` (optional) receives the
  /// maintenance counters.
  Result<RowId> InsertRow(catalog::TableId table, Row row,
                          MaintenanceCost* cost = nullptr);
  Status UpdateRow(catalog::TableId table, RowId rid, Row row,
                   MaintenanceCost* cost = nullptr);
  Status DeleteRow(catalog::TableId table, RowId rid,
                   MaintenanceCost* cost = nullptr);

  /// Recomputes table + column statistics from the stored data
  /// (ANALYZE TABLE).
  void AnalyzeTable(catalog::TableId table, int histogram_buckets = 32);
  void AnalyzeAll(int histogram_buckets = 32);

  /// The encoded index key of `row` under `def` (its key parts, in order;
  /// see AppendKeyPart).
  std::string MakeIndexKey(const catalog::IndexDef& def,
                           const Row& row) const;
  /// The encoded index key of stored row `rid` of `def.table`, read from
  /// its lanes.
  std::string MakeIndexKey(const catalog::IndexDef& def, RowId rid) const;

  /// \name Concurrent-traffic protocol
  /// Single-threaded embedders never touch this. Under concurrent OLTP
  /// traffic every mutation (DML, DDL, AnalyzeTable) runs under a
  /// unique_lock of latch() and every read (executor scans, copies of the
  /// database or of one heap) under a shared_lock. Copies are O(1) per heap
  /// (DESIGN.md §17), so the online index builder holds the shared latch
  /// only to copy a heap and the exclusive latch only for its bounded swap
  /// (DESIGN.md §9). The latch is identity, not state: the copy
  /// constructor does not copy it (a clone starts unlatched).
  /// @{

  /// The traffic gate. Unusable (like any member) after a move-from.
  std::shared_mutex& latch() const { return *latch_; }
  /// @}

 private:
  void CopyFrom(const Database& other);

  catalog::Catalog catalog_;
  std::vector<HeapTable> heaps_;                       // by TableId
  std::map<catalog::IndexId, BTreeIndex> btrees_;      // real indexes only
  // Behind unique_ptr so the default move constructor keeps working
  // (std::shared_mutex is neither movable nor copyable).
  std::unique_ptr<std::shared_mutex> latch_ =
      std::make_unique<std::shared_mutex>();
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_DATABASE_H_
