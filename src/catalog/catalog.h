#ifndef AIM_CATALOG_CATALOG_H_
#define AIM_CATALOG_CATALOG_H_

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "catalog/statistics.h"
#include "catalog/types.h"
#include "common/result.h"

namespace aim::catalog {

/// Column definition within a table.
struct ColumnDef {
  std::string name;
  ColumnType type = ColumnType::kInt64;
  /// Average stored width in bytes (strings: average length).
  uint32_t avg_width = 8;
  bool nullable = false;
};

/// \brief Secondary-index definition.
///
/// `hypothetical` indexes are "dataless" (Sec. III-A4): they carry metadata
/// and statistics for what-if costing but are never materialized. This is
/// the HypoPG / AutoAdmin "what-if" contract.
struct IndexDef {
  IndexId id = kInvalidIndex;
  TableId table = kInvalidTable;
  std::string name;
  std::vector<ColumnId> columns;  // key parts, in order
  bool unique = false;
  bool hypothetical = false;
  /// The clustered primary key (auto-created per table). Contains every
  /// column of the row (InnoDB-style clustered organization).
  bool is_primary = false;
  /// True if this index was created by automation (AIM) rather than a human;
  /// used by the continuous regression detector.
  bool created_by_automation = false;

  bool operator==(const IndexDef& o) const {
    return table == o.table && columns == o.columns;
  }
};

/// Table definition: columns, primary key, indexes, statistics.
struct TableDef {
  TableId id = kInvalidTable;
  std::string name;
  std::vector<ColumnDef> columns;
  std::vector<ColumnId> primary_key;
  TableStats stats;

  /// Looks up a column id by name (case-insensitive). Returns nullopt if
  /// absent.
  std::optional<ColumnId> FindColumn(const std::string& name) const;

  /// Average full-row width in bytes.
  double RowWidth() const;
  /// Sum of avg widths of `cols`.
  double ColumnsWidth(const std::vector<ColumnId>& cols) const;
};

/// \brief The schema + statistics catalog for one database.
///
/// Owns real and hypothetical index definitions. Cloneable (value type) so
/// clone validation can copy it.
class Catalog {
 public:
  Catalog() = default;

  /// Registers a table; assigns and returns its id.
  TableId AddTable(TableDef table);

  const TableDef& table(TableId id) const { return tables_[id]; }
  TableDef* mutable_table(TableId id) { return &tables_[id]; }
  size_t table_count() const { return tables_.size(); }
  const std::vector<TableDef>& tables() const { return tables_; }

  /// Case-insensitive table lookup by name.
  Result<TableId> FindTable(const std::string& name) const;

  /// Adds an index (real or hypothetical). Fails with AlreadyExists when an
  /// index with the same column list already exists on the table (matching
  /// MySQL's duplicate-index check).
  Result<IndexId> AddIndex(IndexDef index);
  Status DropIndex(IndexId id);
  /// Drops every hypothetical index (end of a what-if session).
  void DropAllHypothetical();

  const IndexDef* index(IndexId id) const;
  /// All live indexes on `table`. The clustered primary index is included
  /// by default (the optimizer needs it); pass include_primary = false
  /// for secondary-only inventories.
  std::vector<const IndexDef*> TableIndexes(
      TableId table, bool include_hypothetical = true,
      bool include_primary = true) const;
  /// All live indexes in the catalog.
  std::vector<const IndexDef*> AllIndexes(bool include_hypothetical = true,
                                          bool include_primary =
                                              true) const;

  /// Finds an existing index with exactly these key parts.
  const IndexDef* FindIndex(TableId table,
                            const std::vector<ColumnId>& columns) const;

  /// Estimated on-disk size of a secondary index in bytes: key parts +
  /// appended primary key + per-row overhead, times a structure factor.
  double IndexSizeBytes(const IndexDef& index) const;
  /// Estimated base-table size in bytes.
  double TableSizeBytes(TableId table) const;
  /// Total size of all real secondary indexes.
  double TotalIndexBytes() const;

  const ColumnStats& column_stats(ColumnRef ref) const {
    return tables_[ref.table].stats.columns[ref.column];
  }

  /// Content hash of the schema and statistics — tables, columns, primary
  /// keys, row counts, and per-column distribution stats — deliberately
  /// EXCLUDING index definitions. A persisted what-if cache keys every
  /// entry by its index-configuration fingerprint already, so index DDL
  /// between tuning intervals must not invalidate it; anything that would
  /// change a plan's cost for a fixed configuration (schema or statistics
  /// drift) does.
  uint64_t SchemaStatsFingerprint() const;

  /// Human-readable "table(col1, col2, ...)" for diagnostics.
  std::string DescribeIndex(const IndexDef& index) const;

 private:
  std::vector<TableDef> tables_;
  std::unordered_map<std::string, TableId> table_by_name_;
  // Index storage; dropped slots become nullopt (ids stay stable). Kept as
  // a value container so Catalog is copyable (clone validation copies it).
  std::vector<std::optional<IndexDef>> indexes_;
};

}  // namespace aim::catalog

#endif  // AIM_CATALOG_CATALOG_H_
