#ifndef AIM_STORAGE_DATABASE_H_
#define AIM_STORAGE_DATABASE_H_

#include <functional>
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

/// Kind of row mutation reported to DML hooks.
enum class DmlOp : uint8_t { kInsert, kUpdate, kDelete };

/// Observer of successful row mutations. Invoked after the heap and every
/// maintained index reflect the change, from the mutating thread (which,
/// under concurrent traffic, holds the database latch exclusively). This
/// is how the online index builder's delta log captures DML that races
/// its snapshot scan.
using DmlHook = std::function<void(DmlOp op, catalog::TableId table, RowId rid)>;

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
  /// definition is hypothetical. Returns the index id.
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

  /// \name Concurrent-traffic protocol
  /// Single-threaded embedders never touch these. Under concurrent OLTP
  /// traffic every mutation (DML, DDL, AnalyzeTable, copies) runs under a
  /// unique_lock of latch() and every read (executor scans, snapshot
  /// copies) under a shared_lock; the online index builder interleaves
  /// with writers by acquiring the latch in short chunks. The latch and
  /// registered hooks are identity, not state: neither is copied by the
  /// copy constructor (a clone starts unlatched with no observers).
  /// @{

  /// The traffic gate. Unusable (like any member) after a move-from.
  std::shared_mutex& latch() const { return *latch_; }

  /// Registers a DML observer; returns a token for UnregisterDmlHook.
  /// Registration and removal mutate the hook list and must hold latch()
  /// exclusively when writers are live.
  int RegisterDmlHook(DmlHook hook);
  void UnregisterDmlHook(int token);
  size_t dml_hook_count() const { return dml_hooks_.size(); }
  /// @}

 private:
  void CopyFrom(const Database& other);
  /// Materializes `def` from its heap by one bulk build; fails (leaving
  /// `out` untouched) at an injected `storage.build_index_entry` fault.
  Status BuildIndex(const catalog::IndexDef& def, BTreeIndex* out) const;

  void NotifyDml(DmlOp op, catalog::TableId table, RowId rid) {
    if (dml_hooks_.empty()) return;
    for (const auto& [token, hook] : dml_hooks_) hook(op, table, rid);
  }

  catalog::Catalog catalog_;
  std::vector<HeapTable> heaps_;                       // by TableId
  std::map<catalog::IndexId, BTreeIndex> btrees_;      // real indexes only
  // Behind unique_ptr so the default move constructor keeps working
  // (std::shared_mutex is neither movable nor copyable).
  std::unique_ptr<std::shared_mutex> latch_ =
      std::make_unique<std::shared_mutex>();
  std::vector<std::pair<int, DmlHook>> dml_hooks_;
  int next_hook_token_ = 1;
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_DATABASE_H_
