// Differential model test for storage::BTreeIndex: seeded random
// Insert / Erase / update sequences against a std::multimap<Row, RowId,
// RowLess> reference, comparing every scan entry point — visit order, tie
// order, visited counts, cumulative hit counts and skip-scan group counts
// — plus copies, moves and entry_count().
//
// Keys mix NULLs, int/double pairs that compare equal (3 and 3.0, 0 and
// -0.0), strings with embedded '\0' and shared prefixes, and 1-6 columns;
// low-cardinality cases grow runs of equal keys longer than a leaf.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/btree_index.h"

namespace aim::storage {
namespace {

using sql::Value;

using Bound = std::optional<KeyBound>;
using HitList = std::vector<std::pair<RowId, uint64_t>>;

/// What one scan produced, in a comparable form.
struct Walked {
  HitList hits;                 // (rid, cumulative visited)
  std::vector<uint64_t> groups;  // skip scans: groups entered per hit
  uint64_t visited = 0;
  uint64_t groups_total = 0;

  bool operator==(const Walked&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Walked& w) {
  os << "visited=" << w.visited << " groups=" << w.groups_total << " hits=";
  for (const auto& [rid, v] : w.hits) os << rid << "@" << v << ",";
  return os;
}

/// The reference: the ordered multimap of value vectors, walked the way
/// the B+Tree's contract defines each scan.
class ReferenceIndex {
 public:
  void Insert(const Row& key, RowId rid) { map_.emplace(key, rid); }

  bool Erase(const Row& key, RowId rid) {
    auto [begin, end] = map_.equal_range(key);
    for (auto it = begin; it != end; ++it) {
      if (it->second == rid) {
        map_.erase(it);
        return true;
      }
    }
    return false;
  }

  uint64_t size() const { return map_.size(); }

  /// ScanPrefix / GatherPrefix; stops after `limit` hits (0 = never).
  Walked Prefix(const Row& eq, const Bound& lo, const Bound& hi,
                size_t limit) const {
    Walked w;
    Row start = eq;
    if (lo.has_value()) start.push_back(lo->value);
    for (auto it = map_.lower_bound(start); it != map_.end(); ++it) {
      const Step s = Classify(it->first, eq, lo, hi);
      if (s == Step::kStop) break;
      ++w.visited;
      if (s == Step::kReject) continue;
      w.hits.emplace_back(it->second, w.visited);
      if (w.hits.size() == limit) break;
    }
    return w;
  }

  /// ScanSkip / GatherSkip; stops after `limit` hits (0 = never).
  Walked Skip(size_t width, const Bound& lo, const Bound& hi,
              size_t limit) const {
    Walked w;
    bool stop = false;
    auto it = map_.begin();
    while (it != map_.end() && !stop) {
      if (it->first.size() < width) {
        ++it;
        continue;
      }
      const Row group(it->first.begin(), it->first.begin() + width);
      ++w.groups_total;
      Row start = group;
      if (lo.has_value()) start.push_back(lo->value);
      for (auto jt = map_.lower_bound(start); jt != map_.end(); ++jt) {
        const Step s = Classify(jt->first, group, lo, hi);
        if (s == Step::kStop) break;
        ++w.visited;
        if (s == Step::kReject) continue;
        w.hits.emplace_back(jt->second, w.visited);
        w.groups.push_back(w.groups_total);
        if (w.hits.size() == limit) {
          stop = true;
          break;
        }
      }
      Row past = group;
      past.push_back(Value::Max());
      it = map_.upper_bound(past);
    }
    return w;
  }

  /// Entries in key order (tie order included).
  std::vector<std::pair<Row, RowId>> Entries() const {
    return {map_.begin(), map_.end()};
  }

 private:
  enum class Step { kStop, kReject, kHit };

  static Step Classify(const Row& key, const Row& prefix, const Bound& lo,
                       const Bound& hi) {
    const size_t p = prefix.size();
    if (key.size() < p) return Step::kStop;
    for (size_t i = 0; i < p; ++i) {
      if (key[i].Compare(prefix[i]) != 0) return Step::kStop;
    }
    if (key.size() > p) {
      const Value& next = key[p];
      if (lo.has_value() && !lo->inclusive &&
          next.Compare(lo->value) == 0) {
        return Step::kReject;
      }
      if (hi.has_value()) {
        const int c = next.Compare(hi->value);
        if (c > 0 || (c == 0 && !hi->inclusive)) return Step::kStop;
      }
    }
    return Step::kHit;
  }

  std::multimap<Row, RowId, RowLess> map_;
};

/// Key-part generator. `small` draws from three values (two of them equal
/// across kinds) so equal-key runs outgrow a leaf.
Value RandomPart(Rng* rng, bool small) {
  if (small) {
    switch (rng->Uniform(3)) {
      case 0:
        return Value::Int(1);
      case 1:
        return Value::Real(1.0);
      default:
        return Value::Null();
    }
  }
  static const std::vector<std::string> kStrings = {
      "",    "a",   std::string("a\0", 2), std::string("a\0b", 3),
      "ab",  "abc", std::string("\0", 1),  std::string("\0\0", 2),
      "b",   "\xff", "\x01"};
  switch (rng->Uniform(10)) {
    case 0:
      return Value::Null();
    case 1:
    case 2:
    case 3:
      return Value::Int(static_cast<int64_t>(rng->Uniform(5)) - 2);
    case 4:
    case 5:
      return Value::Real(static_cast<double>(rng->Uniform(5)) - 2.0);
    case 6:
      return Value::Real(rng->Bernoulli(0.5) ? -0.0 : 0.5);
    default:
      return Value::Str(kStrings[rng->Uniform(kStrings.size())]);
  }
}

/// The same value in its other numeric kind, when Compare calls them
/// equal (3 <-> 3.0); other values unchanged.
Value Twin(const Value& v) {
  if (v.kind() == Value::Kind::kInt64) {
    return Value::Real(static_cast<double>(v.AsInt()));
  }
  if (v.kind() == Value::Kind::kDouble && v.AsDouble() == 2.0) {
    return Value::Int(2);
  }
  return v;
}

Row TwinRow(const Row& row) {
  Row out;
  for (const Value& v : row) out.push_back(Twin(v));
  return out;
}

struct Model {
  BTreeIndex tree;
  ReferenceIndex ref;
  std::vector<std::pair<Row, RowId>> live;  // (key, rid) currently stored
  RowId next_rid = 0;
};

Bound RandomBound(Rng* rng, bool small) {
  if (rng->Bernoulli(0.4)) return std::nullopt;
  return KeyBound{RandomPart(rng, small), rng->Bernoulli(0.5)};
}

/// A probe prefix: usually a prefix of a stored key (often written in its
/// twin kinds), otherwise random parts.
Row RandomPrefix(Rng* rng, const Model& m, size_t columns, bool small) {
  const size_t len = rng->Uniform(columns + 1);
  Row prefix;
  if (!m.live.empty() && rng->Bernoulli(0.7)) {
    const Row& key = m.live[rng->Uniform(m.live.size())].first;
    prefix.assign(key.begin(), key.begin() + len);
    if (rng->Bernoulli(0.5)) prefix = TwinRow(prefix);
  } else {
    for (size_t i = 0; i < len; ++i) prefix.push_back(RandomPart(rng, small));
  }
  return prefix;
}

/// Every scan entry point of `tree` against the reference, on random
/// probes.
void ExpectScansAgree(const BTreeIndex& tree, const ReferenceIndex& ref,
                      const Model& m, size_t columns, bool small, Rng* rng) {
  static const size_t kLimits[] = {0, 1, 2, 5, 300};
  ASSERT_EQ(tree.entry_count(), ref.size());
  for (int probe = 0; probe < 12; ++probe) {
    const Row prefix = RandomPrefix(rng, m, columns, small);
    const Bound lo = RandomBound(rng, small);
    const Bound hi = RandomBound(rng, small);
    const size_t limit = kLimits[rng->Uniform(5)];
    const std::string encoded = EncodeKey(prefix);

    // ScanPrefix with LIMIT-style early stop.
    Walked scanned;
    scanned.visited =
        tree.ScanPrefix(encoded, lo, hi, [&](RowId rid) {
          scanned.hits.emplace_back(rid, 0);
          return scanned.hits.size() != limit;
        });
    Walked expected = ref.Prefix(prefix, lo, hi, limit);
    for (auto& hit : expected.hits) hit.second = 0;
    EXPECT_EQ(scanned, expected) << "ScanPrefix limit=" << limit;

    // GatherPrefix: cumulative visited counts per hit.
    std::vector<IndexHit> hits;
    Walked gathered;
    gathered.visited = tree.GatherPrefix(encoded, lo, hi, &hits);
    for (const IndexHit& h : hits) gathered.hits.emplace_back(h.rid, h.visited);
    EXPECT_EQ(gathered, ref.Prefix(prefix, lo, hi, 0)) << "GatherPrefix";

    // ScanAll with early stop.
    Walked all;
    all.visited = tree.ScanAll([&](RowId rid) {
      all.hits.emplace_back(rid, 0);
      return all.hits.size() != limit;
    });
    Walked all_expected = ref.Prefix({}, std::nullopt, std::nullopt, limit);
    for (auto& hit : all_expected.hits) hit.second = 0;
    EXPECT_EQ(all, all_expected) << "ScanAll limit=" << limit;

    // Skip scans over every width the key allows.
    const size_t width = 1 + rng->Uniform(columns);
    Walked skipped;
    skipped.visited = tree.ScanSkip(
        width, lo, hi,
        [&](RowId rid) {
          skipped.hits.emplace_back(rid, 0);
          return skipped.hits.size() != limit;
        },
        &skipped.groups_total);
    Walked skip_expected = ref.Skip(width, lo, hi, limit);
    for (auto& hit : skip_expected.hits) hit.second = 0;
    skip_expected.groups.clear();
    EXPECT_EQ(skipped, skip_expected) << "ScanSkip width=" << width
                                      << " limit=" << limit;

    std::vector<IndexHit> skip_hits;
    Walked skip_gathered;
    skip_gathered.visited =
        tree.GatherSkip(width, lo, hi, &skip_hits, &skip_gathered.groups,
                        &skip_gathered.groups_total);
    for (const IndexHit& h : skip_hits) {
      skip_gathered.hits.emplace_back(h.rid, h.visited);
    }
    EXPECT_EQ(skip_gathered, ref.Skip(width, lo, hi, 0))
        << "GatherSkip width=" << width;
  }

  // Batched gathers with duplicate probes: every span equals the probe's
  // own GatherPrefix.
  const size_t prefix_len = rng->Uniform(columns + 1);
  std::vector<Row> distinct;
  for (int i = 0; i < 4; ++i) {
    Row p = RandomPrefix(rng, m, columns, small);
    p.resize(std::min(p.size(), prefix_len), Value::Null());
    while (p.size() < prefix_len) p.push_back(RandomPart(rng, small));
    distinct.push_back(p);
  }
  std::vector<Row> rows;
  std::vector<std::string> probes;
  for (int i = 0; i < 12; ++i) {
    Row p = distinct[rng->Uniform(distinct.size())];
    if (rng->Bernoulli(0.5)) p = TwinRow(p);
    probes.push_back(EncodeKey(p));
    rows.push_back(std::move(p));
  }
  std::vector<size_t> order(probes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return probes[x] < probes[y]; });
  const Bound lo = RandomBound(rng, small);
  const Bound hi = RandomBound(rng, small);
  std::vector<IndexHit> batch_hits;
  std::vector<ProbeSpan> spans;
  tree.GatherPrefixBatch(probes, order, lo, hi, &batch_hits, &spans);
  ASSERT_EQ(spans.size(), probes.size());
  for (size_t i = 0; i < probes.size(); ++i) {
    Walked span;
    span.visited = spans[i].visited;
    for (size_t k = spans[i].begin; k < spans[i].end; ++k) {
      span.hits.emplace_back(batch_hits[k].rid, batch_hits[k].visited);
    }
    EXPECT_EQ(span, ref.Prefix(rows[i], lo, hi, 0)) << "batch probe " << i;
  }
}

/// One random mutation, applied to both sides.
void Mutate(Model* m, size_t columns, bool small, Rng* rng) {
  const auto random_key = [&] {
    Row key;
    for (size_t c = 0; c < columns; ++c) key.push_back(RandomPart(rng, small));
    return key;
  };
  const uint64_t op = rng->Uniform(10);
  if (op < 6 || m->live.empty()) {
    Row key = random_key();
    const RowId rid = m->next_rid++;
    m->tree.Insert(EncodeKey(key), rid);
    m->ref.Insert(key, rid);
    m->live.emplace_back(std::move(key), rid);
    return;
  }
  const size_t victim = rng->Uniform(m->live.size());
  const auto [key, rid] = m->live[victim];
  // Erase through the twin spelling half the time: equal keys must encode
  // to the same bytes.
  const Row erase_key = rng->Bernoulli(0.5) ? TwinRow(key) : key;
  EXPECT_TRUE(m->tree.Erase(EncodeKey(erase_key), rid));
  EXPECT_TRUE(m->ref.Erase(erase_key, rid));
  EXPECT_FALSE(m->tree.Erase(EncodeKey(erase_key), rid));
  if (op < 8) {
    m->live.erase(m->live.begin() + victim);
    return;
  }
  // Update: the same rid re-inserted under a new key.
  Row moved = random_key();
  m->tree.Insert(EncodeKey(moved), rid);
  m->ref.Insert(moved, rid);
  m->live[victim] = {std::move(moved), rid};
}

class BTreeModelTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BTreeModelTest, MatchesMultimapReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const size_t columns = 1 + seed % 6;
  const bool small = seed % 4 == 0;
  Model m;

  // Bulk-load a first batch, mirrored by in-order reference inserts.
  BTreeBuilder builder;
  const size_t loaded = rng.Uniform(small ? 700 : 400);
  for (size_t i = 0; i < loaded; ++i) {
    Row key;
    for (size_t c = 0; c < columns; ++c) key.push_back(RandomPart(&rng, small));
    builder.Add(EncodeKey(key), m.next_rid);
    m.ref.Insert(key, m.next_rid);
    m.live.emplace_back(std::move(key), m.next_rid++);
  }
  m.tree = std::move(builder).Finish();
  ExpectScansAgree(m.tree, m.ref, m, columns, small, &rng);

  for (int round = 0; round < 6; ++round) {
    for (int i = 0; i < 150; ++i) Mutate(&m, columns, small, &rng);
    ExpectScansAgree(m.tree, m.ref, m, columns, small, &rng);
    if (::testing::Test::HasFailure()) return;
  }

  // A copy is independent of its source; a move carries the entries.
  const BTreeIndex copy = m.tree;
  const ReferenceIndex ref_copy = m.ref;
  const Model snapshot = m;
  for (int i = 0; i < 200; ++i) Mutate(&m, columns, small, &rng);
  ExpectScansAgree(copy, ref_copy, snapshot, columns, small, &rng);
  ExpectScansAgree(m.tree, m.ref, m, columns, small, &rng);
  BTreeIndex moved = std::move(m.tree);
  EXPECT_EQ(moved.entry_count(), m.ref.size());
  ExpectScansAgree(moved, m.ref, m, columns, small, &rng);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BTreeModelTest,
                         ::testing::Range<uint64_t>(1, 25));

TEST(BTreeTieOrderTest, EqualKeyRunsLongerThanALeafKeepInsertionOrder) {
  // One key in two spellings, far more entries than a leaf holds, with
  // erase / re-insert churn: the scan order must stay the multimap's.
  Rng rng(99);
  BTreeIndex tree;
  ReferenceIndex ref;
  std::vector<RowId> live;
  for (RowId rid = 0; rid < 2000; ++rid) {
    const Row key(1, rng.Bernoulli(0.5) ? Value::Int(7) : Value::Real(7.0));
    tree.Insert(EncodeKey(key), rid);
    ref.Insert(key, rid);
    live.push_back(rid);
  }
  for (int i = 0; i < 600; ++i) {
    const size_t victim = rng.Uniform(live.size());
    const Row key = {Value::Int(7)};
    ASSERT_TRUE(tree.Erase(EncodeKey(key), live[victim]));
    ASSERT_TRUE(ref.Erase(key, live[victim]));
    if (rng.Bernoulli(0.5)) {
      tree.Insert(EncodeKey(key), live[victim]);
      ref.Insert(key, live[victim]);
    } else {
      live.erase(live.begin() + victim);
    }
  }
  std::vector<RowId> order;
  tree.ScanAll([&](RowId rid) {
    order.push_back(rid);
    return true;
  });
  std::vector<RowId> expected;
  for (const auto& [key, rid] : ref.Entries()) expected.push_back(rid);
  EXPECT_EQ(order, expected);
}

TEST(KeyEncodingTest, ByteOrderIsValueCompareOrder) {
  const std::vector<Value> values = {
      Value::Null(),        Value::Int(-5),      Value::Real(-0.5),
      Value::Real(-0.0),    Value::Int(0),       Value::Real(0.25),
      Value::Int(3),        Value::Real(3.0),    Value::Int(INT64_MAX),
      Value::Str(""),       Value::Str(std::string("\0", 1)),
      Value::Str("a"),      Value::Str(std::string("a\0", 2)),
      Value::Str("ab"),     Value::Str("\xff"),  Value::Max()};
  for (const Value& a : values) {
    for (const Value& b : values) {
      const int want = a.Compare(b);
      const int got = EncodeKey({a}).compare(EncodeKey({b}));
      EXPECT_EQ(want < 0, got < 0) << a.ToSqlLiteral() << " vs "
                                   << b.ToSqlLiteral();
      EXPECT_EQ(want == 0, got == 0) << a.ToSqlLiteral() << " vs "
                                     << b.ToSqlLiteral();
    }
  }
}

}  // namespace
}  // namespace aim::storage
