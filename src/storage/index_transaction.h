#ifndef AIM_STORAGE_INDEX_TRANSACTION_H_
#define AIM_STORAGE_INDEX_TRANSACTION_H_

#include <shared_mutex>
#include <vector>

#include "storage/database.h"

namespace aim::storage {

/// \brief All-or-nothing application of a set of index changes.
///
/// AIM's apply step installs several indexes; if the k-th CreateIndex
/// fails, the catalog must not be left with k-1 half-adopted indexes (the
/// no-regression guarantee covers configuration state, not just query
/// latency). Route every change through a transaction and either Commit()
/// or let Rollback() (also run by the destructor) undo them in reverse
/// order: created indexes are dropped, dropped indexes are rebuilt from
/// their saved definitions.
///
/// Rollback runs under fault suppression so injected faults cannot strand
/// a half-rolled-back catalog; after a rolled-back drop the index is
/// rebuilt from the heap and keeps its definition but receives a fresh
/// IndexId.
///
/// Under concurrent traffic, construct with the database's latch():
/// CreateIndex, DropIndex, and Rollback then acquire it exclusively
/// around each DDL operation, so a transaction abandoned mid-apply rolls
/// back safely while OLTP clients keep running. RecordCreated never
/// locks — its caller (the online builder's swap) already holds the
/// latch exclusively.
class IndexSetTransaction {
 public:
  explicit IndexSetTransaction(Database* db,
                               std::shared_mutex* latch = nullptr)
      : db_(db), latch_(latch) {}
  ~IndexSetTransaction() {
    if (!committed_) (void)Rollback();
  }
  IndexSetTransaction(const IndexSetTransaction&) = delete;
  IndexSetTransaction& operator=(const IndexSetTransaction&) = delete;

  /// Creates an index through the transaction; on later rollback it is
  /// dropped again.
  Result<catalog::IndexId> CreateIndex(catalog::IndexDef def);

  /// Installs an index whose B+Tree was built on a copy of this database
  /// (Database::AdoptIndex) through the transaction; on later rollback it
  /// is dropped again. Crosses the `storage.create_index` fault point
  /// first, like CreateIndex, and takes `*built` only past it, so a
  /// retried adoption still has its tree.
  Result<catalog::IndexId> AdoptIndex(catalog::IndexDef def,
                                      BTreeIndex* built);

  /// Drops an index through the transaction; on later rollback it is
  /// re-created (re-materialized) from its saved definition.
  Status DropIndex(catalog::IndexId id);

  /// Enrolls an index someone else just installed (the online builder's
  /// AdoptIndex swap) so a later Rollback drops it with the rest of the
  /// transaction. Bookkeeping only — takes no locks, performs no DDL; the
  /// caller holds the latch exclusively at the call site.
  void RecordCreated(catalog::IndexId id);

  /// Keeps all changes; the destructor becomes a no-op.
  void Commit() { committed_ = true; }

  /// Undoes all uncommitted changes in reverse order. Idempotent.
  Status Rollback();

  bool committed() const { return committed_; }
  size_t pending_ops() const { return ops_.size(); }

 private:
  struct Op {
    bool was_create = false;
    catalog::IndexId created_id = catalog::kInvalidIndex;
    catalog::IndexDef dropped_def;
  };

  Database* db_;
  std::shared_mutex* latch_;  // null = single-threaded embedder, no locking
  std::vector<Op> ops_;
  bool committed_ = false;
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_INDEX_TRANSACTION_H_
