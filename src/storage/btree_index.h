#ifndef AIM_STORAGE_BTREE_INDEX_H_
#define AIM_STORAGE_BTREE_INDEX_H_

#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "storage/cow.h"
#include "storage/row.h"

namespace aim::storage {

/// Bound for a one-sided or two-sided range scan on the key component that
/// follows the equality prefix.
struct KeyBound {
  sql::Value value;
  bool inclusive = true;
};

/// One gathered index entry: the row id plus the cumulative "entries
/// visited" count *at* this entry (inclusive; counts exclusive-lower-bound
/// rejects too, exactly as ScanPrefix's return value would at that point).
/// The cumulative counts let a consumer that stops at hit `h` account the
/// same visited total the callback scan would have reported.
struct IndexHit {
  RowId rid = 0;
  uint64_t visited = 0;
};

/// Per-probe result span of a batched gather: hits[begin, end) plus the
/// probe's total visited count (including trailing rejected entries after
/// the last hit).
struct ProbeSpan {
  size_t begin = 0;
  size_t end = 0;
  uint64_t visited = 0;
};

/// \brief An ordered secondary index mapping composite keys to row ids: a
/// two-level B+Tree of flat sorted leaves.
///
/// Keys are the order-preserving byte encodings of storage/row.h
/// (EncodeKey / AppendKeyPart), compared with memcmp. Each leaf holds up
/// to kLeafCapacity entries as one array of (offset, size, rid) slots over
/// one byte arena; the root is the array of leaves, searched by each
/// leaf's last key, which serves as its separator. Equal keys keep
/// insertion order: Insert places a key after every equal key already
/// present, and BTreeBuilder sorts by (key, insertion sequence).
///
/// The root and each leaf are copy-on-write (storage/cow.h): a copy shares
/// the root and through it every leaf, so it costs one counter increment.
/// Insert and Erase on either side afterwards copy the root and only the
/// leaves they write (DESIGN.md §17); scans and gathers only read.
class BTreeIndex {
 public:
  using Visitor = std::function<bool(RowId rid)>;

  /// Inserts after every entry whose key equals `key`.
  void Insert(std::string_view key, RowId rid);
  /// Removes the first (key, rid) entry in key order if present; returns
  /// true on removal.
  bool Erase(std::string_view key, RowId rid);

  uint64_t entry_count() const { return size_; }

  /// \brief Scans entries whose key starts with `eq_prefix` (an encoded
  /// key prefix of whole parts), optionally range-bounded on the next key
  /// component.
  ///
  /// Visits in key order; the visitor returns false to stop (LIMIT
  /// pushdown). Returns the number of entries visited.
  uint64_t ScanPrefix(std::string_view eq_prefix,
                      const std::optional<KeyBound>& lower,
                      const std::optional<KeyBound>& upper,
                      const Visitor& visitor) const;

  /// Full in-order scan (index-ordered read for ORDER BY / GROUP BY).
  uint64_t ScanAll(const Visitor& visitor) const;

  /// \brief Skip scan (MySQL 8 "skip scan range access"): for every
  /// distinct value of the first `skip_width` key parts, range-scans the
  /// component that follows and jumps to the next group.
  ///
  /// Returns entries visited; `groups_probed` (optional) receives the
  /// number of distinct prefixes descended into — the cost driver.
  uint64_t ScanSkip(size_t skip_width, const std::optional<KeyBound>& lower,
                    const std::optional<KeyBound>& upper,
                    const Visitor& visitor,
                    uint64_t* groups_probed = nullptr) const;

  /// \name Batch-gather API (vectorized executor).
  ///
  /// The gather calls visit exactly the entries the callback scans above
  /// would, in the same order, but append hits to plain vectors instead of
  /// invoking a std::function per entry. Metric accounting is the caller's
  /// job, via the per-hit cumulative counts.
  /// @{

  /// Gathers every entry ScanPrefix(eq_prefix, lower, upper, ...) would
  /// visit. Appends to `out`; returns the probe's total visited count.
  uint64_t GatherPrefix(std::string_view eq_prefix,
                        const std::optional<KeyBound>& lower,
                        const std::optional<KeyBound>& upper,
                        std::vector<IndexHit>* out) const;

  /// \brief Batched probe: one tree descent per *distinct* prefix.
  ///
  /// `order` indexes into `probes` (encoded prefixes) and must be sorted
  /// so equal prefixes are adjacent (the caller sorts once per input
  /// batch, SortedKeyOrder); consecutive duplicates reuse the previous
  /// descent's hit span instead of re-walking the tree. `spans` is written
  /// per *original* probe position (spans[i] describes probes[i]), so
  /// callers can account probes in their canonical enumeration order.
  void GatherPrefixBatch(const std::vector<std::string>& probes,
                         const std::vector<size_t>& order,
                         const std::optional<KeyBound>& lower,
                         const std::optional<KeyBound>& upper,
                         std::vector<IndexHit>* hits,
                         std::vector<ProbeSpan>* spans) const;

  /// Gathers everything ScanSkip would visit. `cum_groups[i]` is the
  /// number of groups entered when hit i was visited (inclusive);
  /// `groups_total` receives the full group count (trailing hitless
  /// groups included, matching ScanSkip's groups_probed on a full scan).
  uint64_t GatherSkip(size_t skip_width,
                      const std::optional<KeyBound>& lower,
                      const std::optional<KeyBound>& upper,
                      std::vector<IndexHit>* out,
                      std::vector<uint64_t>* cum_groups,
                      uint64_t* groups_total) const;
  /// @}

 private:
  friend class BTreeBuilder;

  static constexpr size_t kLeafCapacity = 256;

  struct Slot {
    size_t offset = 0;  // into Leaf::keys
    size_t size = 0;
    RowId rid = 0;
  };
  struct Leaf {
    std::vector<Slot> slots;  // key order
    std::string keys;         // arena; erased entries leave dead bytes
    size_t dead_bytes = 0;

    std::string_view key(const Slot& s) const {
      return std::string_view(keys).substr(s.offset, s.size);
    }
    std::string_view key(size_t i) const { return key(slots[i]); }
    std::string_view last_key() const { return key(slots.back()); }
    void Append(std::string_view key, RowId rid);
  };
  using Leaves = std::vector<CowRef<Leaf>>;
  /// A cursor position; leaf == leaves_->size() is the end.
  struct Pos {
    size_t leaf = 0;
    size_t slot = 0;
  };
  struct Range;  // encoded bounds of one scan call

  /// First entry whose key is >= `a` + `b` (concatenated).
  Pos LowerBound(std::string_view a, std::string_view b = {}) const;
  void Advance(Pos* pos) const;
  /// Walks entries from `pos` while they start with `prefix`, applying the
  /// range to the key part after it; `visited` accumulates. Returns false
  /// when `on_hit(rid, visited)` stopped the walk.
  template <typename OnHit>
  bool Walk(Pos pos, std::string_view prefix, const Range& range,
            uint64_t* visited, OnHit&& on_hit) const;
  /// The skip-scan group loop: `on_hit(rid, visited, groups)`.
  template <typename OnHit>
  uint64_t WalkSkip(size_t skip_width, const Range& range,
                    uint64_t* groups, OnHit&& on_hit) const;
  /// Moves slots [keep, end) of leaf `index` into a new leaf after it.
  void SplitLeaf(size_t index, size_t keep);
  /// Drops the arena's dead bytes.
  static void CompactLeaf(Leaf* leaf);

  CowRef<Leaves> leaves_;  // never empty leaves
  uint64_t size_ = 0;
};

/// The stable permutation that sorts `keys` bytewise (the B+Tree's key
/// order): a radix sort by each key's first 16 bytes, with comparisons only
/// inside runs of equal heads. A valid `order` for GatherPrefixBatch.
std::vector<size_t> SortedKeyOrder(const std::vector<std::string>& keys);

/// \brief Bulk loader: collects (key, rid) entries in insertion order,
/// then sorts them by (key, insertion sequence) and packs full leaves
/// bottom-up. The build path of CreateIndex(es) and of the online
/// builder's snapshot scan; the result equals inserting the same entries
/// one by one, in order.
class BTreeBuilder {
 public:
  void Add(std::string_view key, RowId rid);
  BTreeIndex Finish() &&;

 private:
  std::string keys_;
  std::vector<BTreeIndex::Slot> pending_;  // into keys_, insertion order
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_BTREE_INDEX_H_
