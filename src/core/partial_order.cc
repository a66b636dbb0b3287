#include "core/partial_order.h"

#include <algorithm>

namespace aim::core {

PartialOrder PartialOrder::FromPartitions(catalog::TableId table,
                                          std::vector<Partition> partitions) {
  PartialOrder po(table);
  for (auto& p : partitions) po.AppendPartition(p);
  return po;
}

void PartialOrder::AppendPartition(
    const std::vector<catalog::ColumnId>& cols) {
  Partition p;
  for (catalog::ColumnId c : cols) {
    if (!Contains(c) && std::find(p.begin(), p.end(), c) == p.end()) {
      p.push_back(c);
    }
  }
  if (p.empty()) return;
  std::sort(p.begin(), p.end());
  partitions_.push_back(std::move(p));
}

void PartialOrder::AppendSequence(
    const std::vector<catalog::ColumnId>& cols) {
  for (catalog::ColumnId c : cols) {
    if (!Contains(c)) partitions_.push_back(Partition{c});
  }
}

std::vector<catalog::ColumnId> PartialOrder::Columns() const {
  std::vector<catalog::ColumnId> out;
  for (const Partition& p : partitions_) {
    out.insert(out.end(), p.begin(), p.end());
  }
  std::sort(out.begin(), out.end());
  return out;
}

size_t PartialOrder::width() const {
  size_t w = 0;
  for (const Partition& p : partitions_) w += p.size();
  return w;
}

bool PartialOrder::Contains(catalog::ColumnId col) const {
  for (const Partition& p : partitions_) {
    if (std::find(p.begin(), p.end(), col) != p.end()) return true;
  }
  return false;
}

bool PartialOrder::Precedes(catalog::ColumnId a, catalog::ColumnId b) const {
  int pa = -1;
  int pb = -1;
  for (int i = 0; i < static_cast<int>(partitions_.size()); ++i) {
    if (std::find(partitions_[i].begin(), partitions_[i].end(), a) !=
        partitions_[i].end()) {
      pa = i;
    }
    if (std::find(partitions_[i].begin(), partitions_[i].end(), b) !=
        partitions_[i].end()) {
      pb = i;
    }
  }
  return pa >= 0 && pb >= 0 && pa < pb;
}

std::vector<catalog::ColumnId> PartialOrder::AnyTotalOrder() const {
  std::vector<catalog::ColumnId> out;
  for (const Partition& p : partitions_) {
    out.insert(out.end(), p.begin(), p.end());  // partitions kept sorted
  }
  return out;
}

size_t PartialOrder::TotalOrderCount() const {
  size_t count = 1;
  for (const Partition& p : partitions_) {
    for (size_t k = 2; k <= p.size(); ++k) {
      if (count > SIZE_MAX / k) return SIZE_MAX;
      count *= k;
    }
  }
  return count;
}

uint64_t PartialOrder::Hash() const {
  auto mix = [](uint64_t h, uint64_t v) {
    return h ^ (v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2));
  };
  uint64_t h = mix(0, table_);
  for (const Partition& part : partitions_) {
    h = mix(h, part.size());
    for (catalog::ColumnId c : part) h = mix(h, c);
  }
  return h;
}

std::string PartialOrder::ToString(const catalog::Catalog& catalog) const {
  const auto& table = catalog.table(table_);
  std::string out = table.name + ":<";
  for (size_t i = 0; i < partitions_.size(); ++i) {
    if (i > 0) out += ", ";
    out += "{";
    for (size_t j = 0; j < partitions_[i].size(); ++j) {
      if (j > 0) out += ", ";
      out += table.columns[partitions_[i][j]].name;
    }
    out += "}";
  }
  out += ">";
  return out;
}

}  // namespace aim::core
