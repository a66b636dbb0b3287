#include "storage/index_transaction.h"

#include <mutex>

#include "common/fault_injection.h"
#include "common/logging.h"

namespace aim::storage {

namespace {

/// unique_lock over an optional latch: no-op when the transaction was
/// constructed without one (single-threaded embedders pay nothing).
class MaybeLock {
 public:
  explicit MaybeLock(std::shared_mutex* latch) {
    if (latch != nullptr) lock_ = std::unique_lock<std::shared_mutex>(*latch);
  }

 private:
  std::unique_lock<std::shared_mutex> lock_;
};

}  // namespace

Result<catalog::IndexId> IndexSetTransaction::CreateIndex(
    catalog::IndexDef def) {
  MaybeLock lock(latch_);
  Result<catalog::IndexId> id = db_->CreateIndex(std::move(def));
  if (id.ok()) {
    Op op;
    op.was_create = true;
    op.created_id = id.ValueOrDie();
    ops_.push_back(std::move(op));
  }
  return id;
}

Result<catalog::IndexId> IndexSetTransaction::AdoptIndex(
    catalog::IndexDef def, BTreeIndex* built) {
  MaybeLock lock(latch_);
  AIM_FAULT_POINT("storage.create_index");
  Result<catalog::IndexId> id =
      db_->AdoptIndex(std::move(def), std::move(*built));
  if (id.ok()) RecordCreated(id.ValueOrDie());
  return id;
}

void IndexSetTransaction::RecordCreated(catalog::IndexId id) {
  Op op;
  op.was_create = true;
  op.created_id = id;
  ops_.push_back(std::move(op));
}

Status IndexSetTransaction::DropIndex(catalog::IndexId id) {
  MaybeLock lock(latch_);
  const catalog::IndexDef* def = db_->catalog().index(id);
  if (def == nullptr) {
    return Status::NotFound("index transaction: unknown index id");
  }
  Op op;
  op.dropped_def = *def;  // snapshot before the drop invalidates it
  AIM_RETURN_NOT_OK(db_->DropIndex(id));
  ops_.push_back(std::move(op));
  return Status::OK();
}

Status IndexSetTransaction::Rollback() {
  if (committed_) return Status::OK();
  MaybeLock lock(latch_);
  // Recovery must not itself be failable, or atomicity is unprovable:
  // suppress injected faults for the duration.
  FaultRegistry::ScopedFaultSuppression suppress;
  Status first_error;
  for (auto it = ops_.rbegin(); it != ops_.rend(); ++it) {
    if (it->was_create) {
      Status st = db_->DropIndex(it->created_id);
      if (!st.ok() && st.code() != Status::Code::kNotFound &&
          first_error.ok()) {
        first_error = st;
      }
    } else {
      catalog::IndexDef def = it->dropped_def;
      def.id = catalog::kInvalidIndex;
      Result<catalog::IndexId> id = db_->CreateIndex(std::move(def));
      if (!id.ok() &&
          id.status().code() != Status::Code::kAlreadyExists &&
          first_error.ok()) {
        first_error = id.status();
      }
    }
  }
  if (!first_error.ok()) {
    AIM_LOG(Error) << "index transaction rollback incomplete: "
                   << first_error.ToString();
  }
  ops_.clear();
  committed_ = true;  // nothing left to undo
  return first_error;
}

}  // namespace aim::storage
