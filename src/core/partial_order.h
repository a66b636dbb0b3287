#ifndef AIM_CORE_PARTIAL_ORDER_H_
#define AIM_CORE_PARTIAL_ORDER_H_

#include <cstdint>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "catalog/catalog.h"

namespace aim::core {

/// \brief A strict partial order of index columns on one table
/// (Sec. III-A3), represented as a sequence of *ordered partitions*.
///
/// `<{c1,c2},{c3}>` denotes every index whose first two key parts are
/// c1 and c2 (in either order) followed by c3: a compact stand-in for a
/// whole family of concrete composite indexes. AIM's candidate generation
/// emits partial orders; only after merging is one total order chosen.
class PartialOrder {
 public:
  /// One partition: a set of columns mutually unordered. Kept sorted for
  /// canonical comparison.
  using Partition = std::vector<catalog::ColumnId>;

  explicit PartialOrder(catalog::TableId table = catalog::kInvalidTable)
      : table_(table) {}

  static PartialOrder FromPartitions(catalog::TableId table,
                                     std::vector<Partition> partitions);

  catalog::TableId table() const { return table_; }
  const std::vector<Partition>& partitions() const { return partitions_; }
  bool empty() const { return partitions_.empty(); }

  /// Appends `cols \ Columns()` as one new partition (the paper's
  /// `candidate.append(...)`: duplicates are dropped, empty appends are
  /// no-ops).
  void AppendPartition(const std::vector<catalog::ColumnId>& cols);
  /// Appends each column (minus duplicates) as its own singleton
  /// partition, preserving sequence (ORDER BY semantics).
  void AppendSequence(const std::vector<catalog::ColumnId>& cols);

  /// All columns in the order, ascending.
  std::vector<catalog::ColumnId> Columns() const;
  /// Total number of columns (index width).
  size_t width() const;
  bool Contains(catalog::ColumnId col) const;
  /// True iff `a` strictly precedes `b` (they sit in different
  /// partitions, a's earlier).
  bool Precedes(catalog::ColumnId a, catalog::ColumnId b) const;

  /// An arbitrary total order satisfying the partial order: partitions in
  /// sequence, columns within a partition ascending
  /// (GenerateCandidateIndexPerPO's "arbitrarily choosing a total
  /// ordering", Algorithm 2 line 7).
  std::vector<catalog::ColumnId> AnyTotalOrder() const;

  /// Number of distinct total orders represented (product of partition
  /// factorials; saturates at SIZE_MAX).
  size_t TotalOrderCount() const;

  /// 64-bit hash of the table and the partitions (each partition is kept
  /// sorted, so equal orders hash alike); consistent with operator==.
  uint64_t Hash() const;
  /// Human-readable rendering with column names.
  std::string ToString(const catalog::Catalog& catalog) const;

  bool operator==(const PartialOrder& other) const {
    return table_ == other.table_ && partitions_ == other.partitions_;
  }

 private:
  catalog::TableId table_;
  std::vector<Partition> partitions_;
};

struct PartialOrderHash {
  size_t operator()(const PartialOrder& po) const { return po.Hash(); }
};
/// A dedup set of partial orders: Hash(), then operator== on a hit.
using PartialOrderSet = std::unordered_set<PartialOrder, PartialOrderHash>;

/// Appends `po` to `out` unless `seen` already holds an equal order.
inline void AppendUnique(PartialOrder po, PartialOrderSet* seen,
                         std::vector<PartialOrder>* out) {
  if (seen->insert(po).second) out->push_back(std::move(po));
}

}  // namespace aim::core

#endif  // AIM_CORE_PARTIAL_ORDER_H_
