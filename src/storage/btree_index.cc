#include "storage/btree_index.h"

#include <algorithm>
#include <cstring>

namespace aim::storage {

namespace {

/// The encoding of Value::Max(): after every part that can follow a group.
constexpr std::string_view kMaxPart("\x04", 1);

/// Compares `key` with the concatenation `a` + `b` (memcmp order, a
/// shorter prefix first) without materializing it.
int CompareConcat(std::string_view key, std::string_view a,
                  std::string_view b) {
  const int c = key.substr(0, a.size()).compare(a);
  if (c != 0) return c;
  return key.substr(a.size()).compare(b);
}

/// Orders the encoded part at the front of `rest` against one encoded
/// part. Encoded parts are prefix-free, so two different parts differ
/// within the shorter one and 0 means equal.
int ComparePart(std::string_view rest, std::string_view part) {
  return std::memcmp(rest.data(), part.data(),
                     std::min(rest.size(), part.size()));
}

/// Byte length of the first `parts` encoded parts of `key`, or npos when
/// the key has fewer parts.
size_t PartsLength(std::string_view key, size_t parts) {
  size_t i = 0;
  for (size_t p = 0; p < parts; ++p) {
    if (i >= key.size()) return std::string_view::npos;
    const char tag = key[i++];
    if (tag == '\x02') {
      i += 8;
    } else if (tag == '\x03') {
      // Escaped body: 0x00 is always followed by 0xFF (escape) or 0x00
      // (terminator).
      while (key[i] != '\0' || key[i + 1] != '\0') i += key[i] == '\0' ? 2 : 1;
      i += 2;
    }
  }
  return i;
}

/// A bulk-build sort record: the key's first 16 bytes as two big-endian
/// integers (zero-padded) and its insertion sequence.
struct SortRecord {
  uint64_t hi = 0;
  uint64_t lo = 0;
  size_t seq = 0;
};

uint64_t BigEndianAt(std::string_view key, size_t at) {
  unsigned char bytes[8] = {};
  if (key.size() > at) {
    std::memcpy(bytes, key.data() + at, std::min<size_t>(8, key.size() - at));
  }
  uint64_t word = 0;
  for (const unsigned char b : bytes) word = word << 8 | b;
  return word;
}

/// Byte `d` of a record's 16-byte head, least significant first.
unsigned HeadByte(const SortRecord& r, int d) {
  const uint64_t word = d < 8 ? r.lo : r.hi;
  return static_cast<unsigned>((word >> (8 * (d % 8))) & 0xFF);
}

/// Stable LSD radix sort by the 16-byte head, skipping the bytes every
/// record shares (key tags, high exponent bytes, padding).
void RadixSortByHead(std::vector<SortRecord>* records) {
  const size_t n = records->size();
  if (n < 2) return;
  std::vector<size_t> counts(16 * 256, 0);
  for (const SortRecord& r : *records) {
    for (int d = 0; d < 16; ++d) ++counts[d * 256 + HeadByte(r, d)];
  }
  std::vector<SortRecord> scratch(n);
  for (int d = 0; d < 16; ++d) {
    size_t* bucket = &counts[d * 256];
    if (bucket[HeadByte(records->front(), d)] == n) continue;
    size_t start = 0;
    for (int b = 0; b < 256; ++b) {
      const size_t count = bucket[b];
      bucket[b] = start;
      start += count;
    }
    for (const SortRecord& r : *records) scratch[bucket[HeadByte(r, d)]++] = r;
    records->swap(scratch);
  }
}

/// The records of keys 0..n-1 (`key(i)`), stably sorted by key: a radix
/// sort by head without touching the keys, then runs of equal heads whose
/// keys differ beyond the head ordered by full key, ties by sequence.
/// Equal keys always end up in input order.
template <typename KeyOf>
std::vector<SortRecord> SortByKey(size_t n, const KeyOf& key) {
  std::vector<SortRecord> order(n);
  for (size_t i = 0; i < n; ++i) {
    order[i] = SortRecord{BigEndianAt(key(i), 0), BigEndianAt(key(i), 8), i};
  }
  RadixSortByHead(&order);
  for (size_t begin = 0; begin < order.size();) {
    size_t end = begin + 1;
    bool equal_keys = true;
    for (; end < order.size() && order[end].hi == order[begin].hi &&
           order[end].lo == order[begin].lo;
         ++end) {
      equal_keys = equal_keys && key(order[end].seq) == key(order[begin].seq);
    }
    if (!equal_keys) {
      std::sort(order.begin() + begin, order.begin() + end,
                [&](const SortRecord& x, const SortRecord& y) {
                  const int c = key(x.seq).compare(key(y.seq));
                  return c != 0 ? c < 0 : x.seq < y.seq;
                });
    }
    begin = end;
  }
  return order;
}

}  // namespace

std::vector<size_t> SortedKeyOrder(const std::vector<std::string>& keys) {
  const std::vector<SortRecord> sorted = SortByKey(
      keys.size(), [&](size_t i) { return std::string_view(keys[i]); });
  std::vector<size_t> order;
  order.reserve(sorted.size());
  for (const SortRecord& r : sorted) order.push_back(r.seq);
  return order;
}

/// A scan call's bounds on the key part after the equality prefix,
/// encoded once per call.
struct BTreeIndex::Range {
  std::string lower;
  std::string upper;
  bool has_lower = false;
  bool lower_inclusive = true;
  bool has_upper = false;
  bool upper_inclusive = true;

  Range(const std::optional<KeyBound>& lo, const std::optional<KeyBound>& hi) {
    if (lo.has_value()) {
      has_lower = true;
      lower_inclusive = lo->inclusive;
      AppendKeyPart(lo->value, &lower);
    }
    if (hi.has_value()) {
      has_upper = true;
      upper_inclusive = hi->inclusive;
      AppendKeyPart(hi->value, &upper);
    }
  }
};

void BTreeIndex::Leaf::Append(std::string_view key, RowId rid) {
  slots.push_back(Slot{keys.size(), key.size(), rid});
  keys.append(key);
}

BTreeIndex::Pos BTreeIndex::LowerBound(std::string_view a,
                                       std::string_view b) const {
  const Leaves& leaves = *leaves_;
  const auto leaf = std::partition_point(
      leaves.begin(), leaves.end(), [&](const CowRef<Leaf>& l) {
        return CompareConcat(l->last_key(), a, b) < 0;
      });
  if (leaf == leaves.end()) return Pos{leaves.size(), 0};
  const Leaf& found = **leaf;
  const auto slot = std::partition_point(
      found.slots.begin(), found.slots.end(), [&](const Slot& s) {
        return CompareConcat(found.key(s), a, b) < 0;
      });
  return Pos{static_cast<size_t>(leaf - leaves.begin()),
             static_cast<size_t>(slot - found.slots.begin())};
}

void BTreeIndex::Advance(Pos* pos) const {
  if (++pos->slot == (*leaves_)[pos->leaf]->slots.size()) {
    ++pos->leaf;
    pos->slot = 0;
  }
}

void BTreeIndex::Insert(std::string_view key, RowId rid) {
  ++size_;
  Leaves& leaves = leaves_.Mutable();
  if (leaves.empty()) {
    leaves.emplace_back().Mutable().Append(key, rid);
    return;
  }
  // The upper bound of `key`'s equal run: the first leaf whose last key
  // sorts after it (else the last leaf), after every equal key in it.
  auto it = std::partition_point(
      leaves.begin(), leaves.end(),
      [&](const CowRef<Leaf>& l) { return l->last_key() <= key; });
  if (it == leaves.end()) --it;
  Leaf& leaf = it->Mutable();
  const size_t n = leaf.slots.size();
  const auto slot = std::partition_point(
      leaf.slots.begin(), leaf.slots.end(),
      [&](const Slot& s) { return leaf.key(s) <= key; });
  const bool at_end = slot == leaf.slots.end();
  leaf.slots.insert(slot, Slot{leaf.keys.size(), key.size(), rid});
  leaf.keys.append(key);
  if (leaf.slots.size() > kLeafCapacity) {
    const size_t index = static_cast<size_t>(it - leaves.begin());
    // An append to the end of the tree (ascending keys) starts a new
    // leaf instead of leaving two half-full ones behind.
    SplitLeaf(index, index + 1 == leaves.size() && at_end ? n : n / 2);
  }
}

bool BTreeIndex::Erase(std::string_view key, RowId rid) {
  for (Pos pos = LowerBound(key); pos.leaf < leaves_->size(); Advance(&pos)) {
    const Leaf& found = *(*leaves_)[pos.leaf];
    if (found.key(pos.slot) != key) return false;
    if (found.slots[pos.slot].rid != rid) continue;
    Leaves& leaves = leaves_.Mutable();
    Leaf& leaf = leaves[pos.leaf].Mutable();
    leaf.dead_bytes += leaf.slots[pos.slot].size;
    leaf.slots.erase(leaf.slots.begin() + pos.slot);
    --size_;
    if (leaf.slots.empty()) {
      leaves.erase(leaves.begin() + pos.leaf);
    } else if (leaf.dead_bytes > leaf.keys.size() / 2) {
      CompactLeaf(&leaf);
    }
    return true;
  }
  return false;
}

void BTreeIndex::SplitLeaf(size_t index, size_t keep) {
  Leaves& leaves = leaves_.Mutable();
  Leaf right;
  Leaf& full = leaves[index].Mutable();
  for (size_t s = keep; s < full.slots.size(); ++s) {
    right.Append(full.key(s), full.slots[s].rid);
  }
  full.slots.resize(keep);
  CompactLeaf(&full);
  leaves.insert(leaves.begin() + index + 1, CowRef<Leaf>(std::move(right)));
}

void BTreeIndex::CompactLeaf(Leaf* leaf) {
  std::string keys;
  for (Slot& s : leaf->slots) {
    const size_t offset = keys.size();
    keys.append(leaf->keys, s.offset, s.size);
    s.offset = offset;
  }
  leaf->keys = std::move(keys);
  leaf->dead_bytes = 0;
}

template <typename OnHit>
bool BTreeIndex::Walk(Pos pos, std::string_view prefix, const Range& range,
                      uint64_t* visited, OnHit&& on_hit) const {
  const Leaves& leaves = *leaves_;
  for (; pos.leaf < leaves.size(); ++pos.leaf, pos.slot = 0) {
    const Leaf& leaf = *leaves[pos.leaf];
    for (; pos.slot < leaf.slots.size(); ++pos.slot) {
      const std::string_view key = leaf.key(pos.slot);
      if (!key.starts_with(prefix)) return true;
      const std::string_view next = key.substr(prefix.size());
      if (!next.empty()) {
        if (range.has_lower && !range.lower_inclusive &&
            ComparePart(next, range.lower) == 0) {
          ++*visited;  // the entry is touched before being rejected
          continue;
        }
        if (range.has_upper) {
          const int c = ComparePart(next, range.upper);
          if (c > 0 || (c == 0 && !range.upper_inclusive)) return true;
        }
      }
      ++*visited;
      if (!on_hit(leaf.slots[pos.slot].rid, *visited)) return false;
    }
  }
  return true;
}

template <typename OnHit>
uint64_t BTreeIndex::WalkSkip(size_t skip_width, const Range& range,
                              uint64_t* groups, OnHit&& on_hit) const {
  uint64_t visited = 0;
  *groups = 0;
  Pos pos;
  while (pos.leaf < leaves_->size()) {
    const std::string_view key = (*leaves_)[pos.leaf]->key(pos.slot);
    const size_t group_bytes = PartsLength(key, skip_width);
    if (group_bytes == std::string_view::npos) {
      Advance(&pos);
      continue;
    }
    // The current group: the first skip_width key parts. The view stays
    // valid: nothing mutates the tree during a const walk.
    const std::string_view group = key.substr(0, group_bytes);
    ++*groups;
    const bool go_on = Walk(
        LowerBound(group, range.lower), group, range, &visited,
        [&](RowId rid, uint64_t v) { return on_hit(rid, v, *groups); });
    if (!go_on) break;
    // Jump past the group: the sentinel sorts after every real part.
    pos = LowerBound(group, kMaxPart);
  }
  return visited;
}

uint64_t BTreeIndex::ScanPrefix(std::string_view eq_prefix,
                                const std::optional<KeyBound>& lower,
                                const std::optional<KeyBound>& upper,
                                const Visitor& visitor) const {
  const Range range(lower, upper);
  uint64_t visited = 0;
  Walk(LowerBound(eq_prefix, range.lower), eq_prefix, range, &visited,
       [&](RowId rid, uint64_t) { return visitor(rid); });
  return visited;
}

uint64_t BTreeIndex::ScanAll(const Visitor& visitor) const {
  return ScanPrefix({}, std::nullopt, std::nullopt, visitor);
}

uint64_t BTreeIndex::ScanSkip(size_t skip_width,
                              const std::optional<KeyBound>& lower,
                              const std::optional<KeyBound>& upper,
                              const Visitor& visitor,
                              uint64_t* groups_probed) const {
  uint64_t groups = 0;
  const uint64_t visited =
      WalkSkip(skip_width, Range(lower, upper), &groups,
               [&](RowId rid, uint64_t, uint64_t) { return visitor(rid); });
  if (groups_probed != nullptr) *groups_probed = groups;
  return visited;
}

uint64_t BTreeIndex::GatherPrefix(std::string_view eq_prefix,
                                  const std::optional<KeyBound>& lower,
                                  const std::optional<KeyBound>& upper,
                                  std::vector<IndexHit>* out) const {
  const Range range(lower, upper);
  uint64_t visited = 0;
  Walk(LowerBound(eq_prefix, range.lower), eq_prefix, range, &visited,
       [&](RowId rid, uint64_t v) {
         out->push_back(IndexHit{rid, v});
         return true;
       });
  return visited;
}

void BTreeIndex::GatherPrefixBatch(const std::vector<std::string>& probes,
                                   const std::vector<size_t>& order,
                                   const std::optional<KeyBound>& lower,
                                   const std::optional<KeyBound>& upper,
                                   std::vector<IndexHit>* hits,
                                   std::vector<ProbeSpan>* spans) const {
  const Range range(lower, upper);
  spans->resize(probes.size());
  const std::string* prev = nullptr;
  ProbeSpan prev_span;
  for (const size_t i : order) {
    const std::string& probe = probes[i];
    if (prev != nullptr && probe == *prev) {
      (*spans)[i] = prev_span;  // duplicate prefix: reuse the descent
      continue;
    }
    ProbeSpan span;
    span.begin = hits->size();
    Walk(LowerBound(probe, range.lower), probe, range, &span.visited,
         [&](RowId rid, uint64_t v) {
           hits->push_back(IndexHit{rid, v});
           return true;
         });
    span.end = hits->size();
    (*spans)[i] = span;
    prev = &probe;
    prev_span = span;
  }
}

uint64_t BTreeIndex::GatherSkip(size_t skip_width,
                                const std::optional<KeyBound>& lower,
                                const std::optional<KeyBound>& upper,
                                std::vector<IndexHit>* out,
                                std::vector<uint64_t>* cum_groups,
                                uint64_t* groups_total) const {
  return WalkSkip(skip_width, Range(lower, upper), groups_total,
                  [&](RowId rid, uint64_t v, uint64_t groups) {
                    out->push_back(IndexHit{rid, v});
                    cum_groups->push_back(groups);
                    return true;
                  });
}

void BTreeBuilder::Add(std::string_view key, RowId rid) {
  pending_.push_back(BTreeIndex::Slot{keys_.size(), key.size(), rid});
  keys_.append(key);
}

BTreeIndex BTreeBuilder::Finish() && {
  const auto key = [&](size_t i) {
    return std::string_view(keys_).substr(pending_[i].offset,
                                          pending_[i].size);
  };
  const std::vector<SortRecord> order = SortByKey(pending_.size(), key);

  BTreeIndex tree;
  tree.size_ = order.size();
  const size_t cap = BTreeIndex::kLeafCapacity;
  BTreeIndex::Leaves& leaves = tree.leaves_.Mutable();
  leaves.reserve((order.size() + cap - 1) / cap);
  for (size_t begin = 0; begin < order.size(); begin += cap) {
    const size_t end = std::min(begin + cap, order.size());
    BTreeIndex::Leaf& leaf = leaves.emplace_back().Mutable();
    size_t bytes = 0;
    for (size_t k = begin; k < end; ++k) bytes += pending_[order[k].seq].size;
    leaf.keys.reserve(bytes);
    leaf.slots.reserve(end - begin);
    for (size_t k = begin; k < end; ++k) {
      leaf.Append(key(order[k].seq), pending_[order[k].seq].rid);
    }
  }
  return tree;
}

}  // namespace aim::storage
