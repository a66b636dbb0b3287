#include "storage/database.h"

#include <algorithm>
#include <utility>

#include "common/fault_injection.h"
#include "common/thread_pool.h"

namespace aim::storage {

Database::Database(const Database& other) { CopyFrom(other); }

Database& Database::operator=(const Database& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

void Database::CopyFrom(const Database& other) {
  // Deliberately leaves latch_ alone: a clone is new storage with its own
  // gate.
  catalog_ = other.catalog_;
  heaps_ = other.heaps_;
  btrees_ = other.btrees_;
}

void AppendIndexKey(const catalog::IndexDef& def, SlotRef ref,
                    std::string* key) {
  for (catalog::ColumnId c : def.columns) AppendKeyPart(ref.value(c), key);
}

Status BuildIndexTree(const HeapTable& heap, const catalog::IndexDef& def,
                      const char* fault_point, BTreeIndex* out) {
  BTreeBuilder builder;
  std::string key;
  Status st;
  heap.ForEachLive([&](RowId rid, SlotRef ref) {
    st = AIM_FAULT_POINT_STATUS(fault_point);
    if (!st.ok()) return false;
    key.clear();
    AppendIndexKey(def, ref, &key);
    builder.Add(key, rid);
    return true;
  });
  if (st.ok()) *out = std::move(builder).Finish();
  return st;
}

catalog::TableId Database::CreateTable(catalog::TableDef def) {
  const catalog::TableId id = catalog_.AddTable(std::move(def));
  heaps_.resize(id + 1);
  // Auto-create the clustered primary index (InnoDB-style: every table
  // is organized by its primary key).
  const catalog::TableDef& stored = catalog_.table(id);
  if (!stored.primary_key.empty()) {
    catalog::IndexDef pk;
    pk.table = id;
    pk.columns = stored.primary_key;
    pk.unique = true;
    pk.is_primary = true;
    pk.name = "PRIMARY_" + stored.name;
    Result<catalog::IndexId> pk_id = catalog_.AddIndex(std::move(pk));
    if (pk_id.ok()) {
      btrees_[pk_id.ValueOrDie()];  // empty btree, filled by inserts
    }
  }
  return id;
}

Result<catalog::IndexId> Database::CreateIndex(catalog::IndexDef def) {
  std::vector<catalog::IndexDef> defs;
  defs.push_back(std::move(def));
  return std::move(CreateIndexes(std::move(defs))[0]);
}

std::vector<Result<catalog::IndexId>> Database::CreateIndexes(
    std::vector<catalog::IndexDef> defs, common::ThreadPool* pool) {
  const size_t n = defs.size();
  std::vector<Result<catalog::IndexId>> results(
      n, Result<catalog::IndexId>(Status::Internal("unresolved")));
  // Phase 1 — serial registration, input order. Ids come out exactly as a
  // serial CreateIndex loop would assign them, which is what keeps the
  // parallel clone-materialization path bit-identical to the serial one.
  std::vector<bool> needs_build(n, false);
  for (size_t i = 0; i < n; ++i) {
    const Status faulted = AIM_FAULT_POINT_STATUS("storage.create_index");
    if (!faulted.ok()) {
      results[i] = faulted;
      continue;
    }
    const bool hypothetical = defs[i].hypothetical;
    Result<catalog::IndexId> id = catalog_.AddIndex(std::move(defs[i]));
    results[i] = id;
    needs_build[i] = id.ok() && !hypothetical;
  }
  // Phase 2 — parallel builds into standalone B+Trees. Workers only read
  // the (now frozen) catalog and heaps and write their own slot.
  std::vector<BTreeIndex> built(n);
  std::vector<Status> build_status(n);
  common::ParallelFor(pool, n, [&](size_t i) {
    if (!needs_build[i]) return;
    const catalog::IndexDef& def = *catalog_.index(results[i].ValueOrDie());
    build_status[i] = BuildIndexTree(heaps_[def.table], def,
                                     "storage.build_index_entry", &built[i]);
  });
  // Phase 3 — serial adoption, input order. A failed build unregisters its
  // catalog entry (same atomicity as single CreateIndex) and surfaces the
  // build error in its slot; successful builds become visible together.
  for (size_t i = 0; i < n; ++i) {
    if (!needs_build[i]) continue;
    const catalog::IndexId id = results[i].ValueOrDie();
    if (build_status[i].ok()) {
      btrees_[id] = std::move(built[i]);
    } else {
      (void)catalog_.DropIndex(id);
      results[i] = build_status[i];
    }
  }
  return results;
}

Result<catalog::IndexId> Database::AdoptIndex(catalog::IndexDef def,
                                              BTreeIndex built) {
  def.hypothetical = false;
  AIM_ASSIGN_OR_RETURN(catalog::IndexId id, catalog_.AddIndex(std::move(def)));
  // No fault point between registration and adoption: the two-step is
  // atomic by construction, which is what the online swap relies on.
  btrees_[id] = std::move(built);
  return id;
}

Status Database::DropIndex(catalog::IndexId id) {
  AIM_FAULT_POINT("storage.drop_index");
  AIM_RETURN_NOT_OK(catalog_.DropIndex(id));
  btrees_.erase(id);
  return Status::OK();
}

Result<BTreeIndex> Database::ReleaseIndex(catalog::IndexId id) {
  auto it = btrees_.find(id);
  if (it == btrees_.end()) {
    return Status::NotFound("release of an unmaterialized index");
  }
  AIM_RETURN_NOT_OK(catalog_.DropIndex(id));
  BTreeIndex tree = std::move(it->second);
  btrees_.erase(it);
  return tree;
}

const BTreeIndex* Database::btree(catalog::IndexId id) const {
  auto it = btrees_.find(id);
  return it == btrees_.end() ? nullptr : &it->second;
}

std::string Database::MakeIndexKey(const catalog::IndexDef& def,
                                   const Row& row) const {
  std::string key;
  for (catalog::ColumnId c : def.columns) AppendKeyPart(row[c], &key);
  return key;
}

std::string Database::MakeIndexKey(const catalog::IndexDef& def,
                                   RowId rid) const {
  std::string key;
  AppendIndexKey(def, heaps_[def.table].slot(rid), &key);
  return key;
}

Result<RowId> Database::InsertRow(catalog::TableId table, Row row,
                                  MaintenanceCost* cost) {
  AIM_FAULT_POINT("storage.insert_row");
  if (table >= heaps_.size()) {
    return Status::InvalidArgument("unknown table id");
  }
  const auto& t = catalog_.table(table);
  if (row.size() != t.columns.size()) {
    return Status::InvalidArgument("row arity mismatch on " + t.name);
  }
  const RowId rid = heaps_[table].Insert(row);
  catalog_.mutable_table(table)->stats.row_count = heaps_[table].live_count();
  for (const catalog::IndexDef* idx :
       catalog_.TableIndexes(table, /*include_hypothetical=*/false)) {
    btrees_[idx->id].Insert(MakeIndexKey(*idx, row), rid);
    if (cost) {
      ++cost->index_entries_written;
      ++cost->indexes_touched;
    }
  }
  return rid;
}

Status Database::UpdateRow(catalog::TableId table, RowId rid, Row row,
                           MaintenanceCost* cost) {
  AIM_FAULT_POINT("storage.update_row");
  if (table >= heaps_.size()) {
    return Status::InvalidArgument("unknown table id");
  }
  HeapTable& heap = heaps_[table];
  if (!heap.IsLive(rid)) {
    return Status::NotFound("update of dead row");
  }
  for (const catalog::IndexDef* idx :
       catalog_.TableIndexes(table, /*include_hypothetical=*/false)) {
    const std::string old_key = MakeIndexKey(*idx, rid);
    const std::string new_key = MakeIndexKey(*idx, row);
    if (old_key == new_key) continue;  // untouched index: no maintenance
    BTreeIndex& btree = btrees_[idx->id];
    btree.Erase(old_key, rid);
    btree.Insert(new_key, rid);
    if (cost) {
      cost->index_entries_written += 2;
      ++cost->indexes_touched;
    }
  }
  AIM_RETURN_NOT_OK(heap.Update(rid, std::move(row)));
  return Status::OK();
}

Status Database::DeleteRow(catalog::TableId table, RowId rid,
                           MaintenanceCost* cost) {
  AIM_FAULT_POINT("storage.delete_row");
  if (table >= heaps_.size()) {
    return Status::InvalidArgument("unknown table id");
  }
  HeapTable& heap = heaps_[table];
  if (!heap.IsLive(rid)) {
    return Status::NotFound("delete of dead row");
  }
  for (const catalog::IndexDef* idx :
       catalog_.TableIndexes(table, /*include_hypothetical=*/false)) {
    btrees_[idx->id].Erase(MakeIndexKey(*idx, rid), rid);
    if (cost) {
      ++cost->index_entries_written;
      ++cost->indexes_touched;
    }
  }
  AIM_RETURN_NOT_OK(heap.Delete(rid));
  catalog_.mutable_table(table)->stats.row_count = heap.live_count();
  return Status::OK();
}

void Database::AnalyzeTable(catalog::TableId table, int histogram_buckets) {
  catalog::TableDef* t = catalog_.mutable_table(table);
  const HeapTable& heap = heaps_[table];
  t->stats.row_count = heap.live_count();
  t->stats.columns.assign(t->columns.size(), catalog::ColumnStats{});
  for (catalog::ColumnId c = 0; c < t->columns.size(); ++c) {
    std::vector<int64_t> sample;
    sample.reserve(heap.live_count());
    uint64_t nulls = 0;
    // Strings are hashed into the int64 domain: the histogram becomes a
    // hash histogram (useless for ranges, fine for NDV/equality, which is
    // all string predicates use).
    heap.ForEachLive([&](RowId, SlotRef ref) {
      const ValueView v = ref.value(c);
      switch (v.kind) {
        case sql::Value::Kind::kNull:
          ++nulls;
          break;
        case sql::Value::Kind::kInt64:
          sample.push_back(v.AsInt());
          break;
        case sql::Value::Kind::kDouble:
          sample.push_back(static_cast<int64_t>(v.AsDouble()));
          break;
        case sql::Value::Kind::kString: {
          uint64_t h = 1469598103934665603ULL;
          for (char ch : v.text) {
            h ^= static_cast<uint8_t>(ch);
            h *= 1099511628211ULL;
          }
          sample.push_back(static_cast<int64_t>(h >> 1));
          break;
        }
        case sql::Value::Kind::kMax:
          break;  // internal sentinel: never stored in rows
      }
      return true;
    });
    catalog::ColumnStats stats =
        catalog::ColumnStats::FromSample(std::move(sample), 0,
                                         histogram_buckets);
    const uint64_t total = heap.live_count();
    stats.null_fraction =
        total == 0 ? 0.0 : static_cast<double>(nulls) / total;
    t->stats.columns[c] = stats;
  }
}

void Database::AnalyzeAll(int histogram_buckets) {
  for (catalog::TableId t = 0; t < catalog_.table_count(); ++t) {
    AnalyzeTable(t, histogram_buckets);
  }
}

}  // namespace aim::storage
