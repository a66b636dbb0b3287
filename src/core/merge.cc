#include "core/merge.h"

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>

namespace aim::core {

namespace {

/// P ⊕ (Q minus cols(P)): P's partitions, then Q's partitions with P's
/// columns (`pc`, ascending) removed.
PartialOrder OrdinalSum(const PartialOrder& p, const PartialOrder& q,
                        const std::vector<catalog::ColumnId>& pc) {
  PartialOrder out(p.table());
  for (const auto& part : p.partitions()) out.AppendPartition(part);
  for (const auto& part : q.partitions()) {
    PartialOrder::Partition rest;
    for (catalog::ColumnId c : part) {
      if (!std::binary_search(pc.begin(), pc.end(), c)) rest.push_back(c);
    }
    out.AppendPartition(rest);
  }
  return out;
}

/// One order of the merge's working set, with everything the pairwise
/// test reads computed once, when the order enters the set.
struct MergeEntry {
  PartialOrder po;
  /// cols(P), ascending.
  std::vector<catalog::ColumnId> cols;
  /// rank[k]: index of the partition holding cols[k].
  std::vector<uint32_t> rank;
  /// Position of this order's table in MergeSet::groups_.
  uint32_t group = 0;
};

/// The merge's working set: orders in insertion sequence, grouped by table,
/// deduplicated on a 64-bit key with exact comparison on key collisions.
class MergeSet {
 public:
  size_t size() const { return entries_.size(); }
  /// Ascending positions of the orders on order i's table.
  const std::vector<uint32_t>& group_of(size_t i) const {
    return groups_[entries_[i].group];
  }

  /// Appends `po` unless an equal order is already present; returns
  /// whether it was appended.
  bool Insert(PartialOrder po) {
    const uint64_t h = po.Hash();
    auto [begin, end] = by_hash_.equal_range(h);
    for (auto it = begin; it != end; ++it) {
      if (entries_[it->second].po == po) return false;
    }
    const uint32_t pos = static_cast<uint32_t>(entries_.size());
    by_hash_.emplace(h, pos);
    // cols(P) ascending with each column's partition index (columns are
    // distinct across partitions).
    std::vector<std::pair<catalog::ColumnId, uint32_t>> ranked;
    for (uint32_t r = 0; r < po.partitions().size(); ++r) {
      for (catalog::ColumnId c : po.partitions()[r]) ranked.emplace_back(c, r);
    }
    std::sort(ranked.begin(), ranked.end());
    MergeEntry e;
    for (const auto& [c, r] : ranked) {
      e.cols.push_back(c);
      e.rank.push_back(r);
    }
    auto [git, new_table] = group_index_.emplace(
        po.table(), static_cast<uint32_t>(groups_.size()));
    if (new_table) groups_.emplace_back();
    e.group = git->second;
    groups_[e.group].push_back(pos);
    e.po = std::move(po);
    entries_.push_back(std::move(e));
    return true;
  }

  /// MergeCandidatesPairwise(order i, order j) for two orders on the same
  /// table, on the precomputed column sets and ranks.
  std::optional<PartialOrder> Merge(size_t i, size_t j) {
    const MergeEntry& p = entries_[i];
    const MergeEntry& q = entries_[j];
    // cols(P) ⊆ cols(Q), collecting Q's rank of each of P's columns.
    if (p.cols.size() > q.cols.size()) return std::nullopt;
    q_rank_.resize(p.cols.size());
    size_t m = 0;
    for (size_t k = 0; k < p.cols.size(); ++k) {
      while (m < q.cols.size() && q.cols[m] < p.cols[k]) ++m;
      if (m == q.cols.size() || q.cols[m] != p.cols[k]) return std::nullopt;
      q_rank_[k] = q.rank[m];
    }
    // No conflicting pair: a <_P b while b <_Q a.
    for (size_t a = 0; a < p.cols.size(); ++a) {
      for (size_t b = 0; b < p.cols.size(); ++b) {
        if (p.rank[a] < p.rank[b] && q_rank_[b] < q_rank_[a]) {
          return std::nullopt;
        }
      }
    }
    return OrdinalSum(p.po, q.po, p.cols);
  }

  std::vector<PartialOrder> Release() && {
    std::vector<PartialOrder> out;
    out.reserve(entries_.size());
    for (MergeEntry& e : entries_) out.push_back(std::move(e.po));
    return out;
  }

 private:
  std::vector<MergeEntry> entries_;
  std::unordered_multimap<uint64_t, uint32_t> by_hash_;
  std::unordered_map<catalog::TableId, uint32_t> group_index_;
  std::vector<std::vector<uint32_t>> groups_;
  std::vector<uint32_t> q_rank_;  // scratch for Merge
};

}  // namespace

std::optional<PartialOrder> MergeCandidatesPairwise(const PartialOrder& p,
                                                    const PartialOrder& q) {
  if (p.table() != q.table()) return std::nullopt;

  // cols(P) subset of cols(Q).
  const std::vector<catalog::ColumnId> pc = p.Columns();
  const std::vector<catalog::ColumnId> qc = q.Columns();
  if (!std::includes(qc.begin(), qc.end(), pc.begin(), pc.end())) {
    return std::nullopt;
  }
  // No conflicting pair: a <_P b while b <_Q a.
  for (catalog::ColumnId a : pc) {
    for (catalog::ColumnId b : pc) {
      if (a == b) continue;
      if (p.Precedes(a, b) && q.Precedes(b, a)) return std::nullopt;
    }
  }
  return OrdinalSum(p, q, pc);
}

std::vector<PartialOrder> MergePartialOrders(std::vector<PartialOrder> orders,
                                             const MergeOptions& options) {
  // Dedup the input.
  MergeSet set;
  for (auto& po : orders) {
    if (!po.empty()) set.Insert(std::move(po));
  }

  // Semi-naive sweeps. Sweep k tests the ordered pairs (i, j), i != j, of
  // the orders present when it starts, in (i, j) sequence, appending each
  // new result. A pair of orders that were both present at the previous
  // sweep's start was tested there, and its result is already in the set,
  // so it is skipped: only pairs with at least one order appended by the
  // previous sweep (position >= fresh) are tested, in the same (i, j)
  // sequence, restricted to orders on the same table. The appended orders
  // and their sequence are exactly those of the all-pairs loop.
  size_t fresh = 0;
  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    bool grew = false;
    const size_t n = set.size();
    for (size_t i = 0; i < n; ++i) {
      if (set.size() >= options.max_orders) break;
      const std::vector<uint32_t>& group = set.group_of(i);
      // Appends during the sweep only extend `group` (same table) past n.
      size_t m = 0;
      if (i < fresh) {
        m = static_cast<size_t>(
            std::lower_bound(group.begin(), group.end(), fresh) -
            group.begin());
      }
      for (; m < group.size() && group[m] < n; ++m) {
        const size_t j = group[m];
        if (i == j) continue;
        if (set.size() >= options.max_orders) break;
        std::optional<PartialOrder> merged = set.Merge(i, j);
        if (merged.has_value() && set.Insert(std::move(*merged))) {
          grew = true;
        }
      }
    }
    if (!grew) break;  // fixpoint: PO_m == PO_{m+1}
    fresh = n;
  }
  return std::move(set).Release();
}

}  // namespace aim::core
