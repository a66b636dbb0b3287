// Copy-on-write isolation of storage::HeapTable and storage::BTreeIndex.
//
// A seeded differential interleaves Insert / Update / Delete (with range
// deletes that empty and compact leaves) on a source heap + index and on
// 1-3 copies taken and dropped mid-stream, and checks every replica
// against its own deep-copied std::vector / std::multimap reference: each
// replica sees only its own writes, row ids stay stable, and Scan,
// ScanChunk and the index scans and gathers agree with the reference.
// Further tests pin the mutation-stamp rules, that a copy really shares
// storage, that the chunk diff between copies (HeapTable::NextChangedSlot)
// finds every changed row and seeds online builds correctly, and the latch
// protocol: a TPC-C writer keeps committing while
// another thread snapshots the database under the latch, reads and writes
// the snapshot without it, and destroys it (run under AIM_SANITIZE=thread).
#include <gtest/gtest.h>

#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "storage/btree_index.h"
#include "storage/database.h"
#include "storage/heap_table.h"
#include "storage/online_index_builder.h"
#include "workload/tpcc_oltp.h"

namespace aim::storage {
namespace {

using sql::Value;

/// A heap and an index over its rows' first two columns, beside a deep
/// reference of both: every slot's row (nullopt once deleted), and the
/// index entries with equal keys in insertion order, as BTreeIndex keeps
/// them (multimap inserts at the upper bound of an equal run).
struct Replica {
  HeapTable heap;
  BTreeIndex tree;
  std::vector<std::optional<Row>> ref_heap;
  std::multimap<std::string, RowId> ref_tree;
};

std::string KeyOf(const Row& row) { return EncodeKey(Row{row[0], row[1]}); }

/// Few distinct keys, so equal runs grow longer than a leaf.
Row RandomRow(Rng* rng) {
  return Row{Value::Int(static_cast<int64_t>(rng->Uniform(6))),
             Value::Int(static_cast<int64_t>(rng->Uniform(40))),
             Value::Int(static_cast<int64_t>(rng->Uniform(1000000)))};
}

void EraseRef(Replica* r, const std::string& key, RowId rid) {
  auto [begin, end] = r->ref_tree.equal_range(key);
  for (auto it = begin; it != end; ++it) {
    if (it->second == rid) {
      r->ref_tree.erase(it);
      return;
    }
  }
  ADD_FAILURE() << "reference lost entry for rid " << rid;
}

void Insert(Replica* r, Row row) {
  const RowId rid = r->heap.Insert(row);
  ASSERT_EQ(rid, r->ref_heap.size()) << "row ids are slot positions";
  r->tree.Insert(KeyOf(row), rid);
  r->ref_tree.emplace(KeyOf(row), rid);
  r->ref_heap.push_back(std::move(row));
}

void Update(Replica* r, RowId rid, Row row) {
  const std::string old_key = KeyOf(*r->ref_heap[rid]);
  ASSERT_TRUE(r->heap.Update(rid, row).ok());
  ASSERT_TRUE(r->tree.Erase(old_key, rid));
  r->tree.Insert(KeyOf(row), rid);
  EraseRef(r, old_key, rid);
  r->ref_tree.emplace(KeyOf(row), rid);
  r->ref_heap[rid] = std::move(row);
}

void Delete(Replica* r, RowId rid) {
  const std::string key = KeyOf(*r->ref_heap[rid]);
  ASSERT_TRUE(r->heap.Delete(rid).ok());
  ASSERT_TRUE(r->tree.Erase(key, rid));
  EraseRef(r, key, rid);
  r->ref_heap[rid].reset();
}

std::vector<RowId> Collect(
    const std::function<uint64_t(const BTreeIndex::Visitor&)>& scan,
    uint64_t* visited) {
  std::vector<RowId> rids;
  *visited = scan([&](RowId rid) {
    rids.push_back(rid);
    return true;
  });
  return rids;
}

std::vector<RowId> RefRange(const Replica& r, const std::string& prefix) {
  std::vector<RowId> rids;
  for (auto it = r.ref_tree.lower_bound(prefix);
       it != r.ref_tree.end() && it->first.starts_with(prefix); ++it) {
    rids.push_back(it->second);
  }
  return rids;
}

void ExpectMatchesReference(const Replica& r) {
  // The heap: ids, liveness, rows, and both scan paths.
  const HeapTable& heap = r.heap;
  ASSERT_EQ(heap.slot_count(), r.ref_heap.size());
  std::vector<RowId> live;
  for (RowId rid = 0; rid < r.ref_heap.size(); ++rid) {
    ASSERT_EQ(heap.IsLive(rid), r.ref_heap[rid].has_value()) << rid;
    if (!r.ref_heap[rid].has_value()) continue;
    ASSERT_EQ(heap.row(rid), *r.ref_heap[rid]) << rid;
    live.push_back(rid);
  }
  EXPECT_FALSE(heap.IsLive(r.ref_heap.size()));
  EXPECT_EQ(heap.live_count(), live.size());
  std::vector<RowId> scanned;
  const uint64_t visited = heap.Scan([&](RowId rid, const Row& row) {
    EXPECT_EQ(row, *r.ref_heap[rid]);
    scanned.push_back(rid);
    return true;
  });
  EXPECT_EQ(visited, live.size());
  EXPECT_EQ(scanned, live);
  for (const size_t batch : {size_t{1}, size_t{7}, size_t{256}, size_t{999}}) {
    std::vector<storage::SlotRef> rows;
    RowId cursor = 0;
    size_t got = 0;
    do {
      const size_t before = rows.size();
      got = heap.ScanChunk(&cursor, batch, &rows);
      EXPECT_EQ(rows.size() - before, got);
    } while (got == batch);
    ASSERT_EQ(rows.size(), live.size()) << "batch " << batch;
    for (size_t i = 0; i < rows.size(); ++i) {
      const Row& want = *r.ref_heap[live[i]];
      Row bound;  // the row read back through the binding's lanes
      for (size_t c = 0; c < want.size(); ++c) {
        bound.push_back(rows[i].value(c).ToValue());
      }
      ASSERT_EQ(bound, want) << "batch " << batch;
    }
  }

  // The index: full scan, prefix scans, batched and skip gathers.
  const BTreeIndex& tree = r.tree;
  EXPECT_EQ(tree.entry_count(), r.ref_tree.size());
  uint64_t all_visited = 0;
  EXPECT_EQ(Collect([&](const auto& v) { return tree.ScanAll(v); },
                    &all_visited),
            RefRange(r, ""));
  EXPECT_EQ(all_visited, r.ref_tree.size());
  std::vector<std::string> probes;
  for (int64_t a = 0; a < 7; ++a) {
    const std::string prefix = EncodeKey(Row{Value::Int(a)});
    const std::vector<RowId> expected = RefRange(r, prefix);
    uint64_t scan_visited = 0;
    EXPECT_EQ(Collect(
                  [&](const auto& v) {
                    return tree.ScanPrefix(prefix, std::nullopt,
                                           std::nullopt, v);
                  },
                  &scan_visited),
              expected);
    std::vector<IndexHit> hits;
    EXPECT_EQ(tree.GatherPrefix(prefix, std::nullopt, std::nullopt, &hits),
              expected.size());
    ASSERT_EQ(hits.size(), expected.size());
    for (size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].rid, expected[i]);
      EXPECT_EQ(hits[i].visited, i + 1);
    }
    probes.push_back(prefix);
    probes.push_back(prefix);  // a duplicate reuses the descent
  }
  std::vector<size_t> order(probes.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<IndexHit> batch_hits;
  std::vector<ProbeSpan> spans;
  tree.GatherPrefixBatch(probes, order, std::nullopt, std::nullopt,
                         &batch_hits, &spans);
  for (size_t i = 0; i < probes.size(); ++i) {
    std::vector<RowId> got;
    for (size_t h = spans[i].begin; h < spans[i].end; ++h) {
      got.push_back(batch_hits[h].rid);
    }
    EXPECT_EQ(got, RefRange(r, probes[i])) << "probe " << i;
  }
  // Skip scan over the first part, second part in [10, 20].
  std::vector<RowId> expected_skip;
  for (const auto& [key, rid] : r.ref_tree) {
    const int64_t b = (*r.ref_heap[rid])[1].AsInt();
    if (b >= 10 && b <= 20) expected_skip.push_back(rid);
  }
  std::vector<IndexHit> skip_hits;
  std::vector<uint64_t> cum_groups;
  uint64_t groups = 0;
  tree.GatherSkip(1, KeyBound{Value::Int(10), true},
                  KeyBound{Value::Int(20), true}, &skip_hits, &cum_groups,
                  &groups);
  std::vector<RowId> got_skip;
  for (const IndexHit& h : skip_hits) got_skip.push_back(h.rid);
  EXPECT_EQ(got_skip, expected_skip);
}

class CowDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CowDifferentialTest, CopiesSeeOnlyTheirOwnWrites) {
  Rng rng(GetParam());
  std::vector<Replica> replicas(1);
  // Start inside a chunk, so the first copies share a partial last chunk
  // and both sides append to it.
  const uint64_t preload = 3 * HeapTable::kChunkRows + 37;
  for (uint64_t i = 0; i < preload; ++i) {
    Insert(&replicas[0], RandomRow(&rng));
  }
  auto random_live = [&](const Replica& r) -> std::optional<RowId> {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const RowId rid = rng.Uniform(r.ref_heap.size());
      if (r.ref_heap[rid].has_value()) return rid;
    }
    return std::nullopt;
  };
  for (int step = 0; step < 6000; ++step) {
    const uint64_t roll = rng.Uniform(1000);
    if (roll < 15 && replicas.size() < 4) {
      Replica copy = replicas[rng.Uniform(replicas.size())];
      replicas.push_back(std::move(copy));
      continue;
    }
    if (roll < 25 && replicas.size() > 1) {
      replicas.erase(replicas.begin() +
                     static_cast<std::ptrdiff_t>(rng.Uniform(replicas.size())));
      continue;
    }
    Replica& r = replicas[rng.Uniform(replicas.size())];
    if (roll < 28) {
      // Delete a whole first-key run: empties leaves and compacts arenas.
      const Value a = Value::Int(static_cast<int64_t>(rng.Uniform(6)));
      for (RowId rid = 0; rid < r.ref_heap.size(); ++rid) {
        if (r.ref_heap[rid].has_value() && (*r.ref_heap[rid])[0] == a) {
          ASSERT_NO_FATAL_FAILURE(Delete(&r, rid));
        }
      }
    } else if (roll < 550) {
      ASSERT_NO_FATAL_FAILURE(Insert(&r, RandomRow(&rng)));
    } else if (roll < 800) {
      if (const auto rid = random_live(r)) {
        ASSERT_NO_FATAL_FAILURE(Update(&r, *rid, RandomRow(&rng)));
      }
    } else if (const auto rid = random_live(r)) {
      ASSERT_NO_FATAL_FAILURE(Delete(&r, *rid));
    }
    if (step % 1000 == 999) {
      for (size_t i = 0; i < replicas.size(); ++i) {
        SCOPED_TRACE("step " + std::to_string(step) + " replica " +
                     std::to_string(i));
        ASSERT_NO_FATAL_FAILURE(ExpectMatchesReference(replicas[i]));
      }
    }
  }
  for (size_t i = 0; i < replicas.size(); ++i) {
    SCOPED_TRACE("final replica " + std::to_string(i));
    ExpectMatchesReference(replicas[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CowDifferentialTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u));

TEST(CowStorageTest, CopySharesRowsUntilAWriteCopiesOneChunk) {
  HeapTable source;
  const RowId n = 2 * HeapTable::kChunkRows + 10;  // partial last chunk
  for (RowId i = 0; i < n; ++i) {
    source.Insert(Row{Value::Int(static_cast<int64_t>(i))});
  }
  HeapTable copy = source;
  const RowId second = HeapTable::kChunkRows;  // first slot of chunk 1
  for (const RowId rid : {RowId{0}, second, n - 1}) {
    EXPECT_EQ(copy.slot(rid).chunk, source.slot(rid).chunk)
        << "copies share rows";
  }
  // An update copies its chunk on the writing side only.
  ASSERT_TRUE(copy.Update(1, Row{Value::Int(-1)}).ok());
  EXPECT_NE(copy.slot(0).chunk, source.slot(0).chunk);
  EXPECT_EQ(copy.slot(second).chunk, source.slot(second).chunk);
  EXPECT_EQ(source.row(1), Row{Value::Int(1)});
  EXPECT_EQ(copy.row(1), Row{Value::Int(-1)});
  // Both sides append to the shared partial last chunk: same row id, own
  // row, and neither sees the other's append.
  const RowId a = source.Insert(Row{Value::Int(100)});
  const RowId b = copy.Insert(Row{Value::Int(200)});
  EXPECT_EQ(a, n);
  EXPECT_EQ(b, n);
  EXPECT_EQ(source.row(n), Row{Value::Int(100)});
  EXPECT_EQ(copy.row(n), Row{Value::Int(200)});
  EXPECT_EQ(source.row(n - 1), copy.row(n - 1));
  EXPECT_NE(source.slot(n - 1).chunk, copy.slot(n - 1).chunk);
  EXPECT_EQ(copy.slot(second).chunk, source.slot(second).chunk);
  // A delete on the source leaves the copy's row live.
  ASSERT_TRUE(source.Delete(second).ok());
  EXPECT_FALSE(source.IsLive(second));
  EXPECT_TRUE(copy.IsLive(second));
  EXPECT_EQ(source.live_count(), n);
  EXPECT_EQ(copy.live_count(), n + 1);
}

TEST(CowStorageTest, CopyKeepsTheStampAndAWriteRenewsItOnItsSideOnly) {
  HeapTable source;
  for (int64_t i = 0; i < 10; ++i) source.Insert(Row{Value::Int(i)});
  const uint64_t original = source.stamp();
  ASSERT_NE(original, 0u);

  HeapTable copy = source;
  EXPECT_EQ(copy.stamp(), original) << "an unmutated copy keeps the stamp";
  ASSERT_TRUE(copy.Update(3, Row{Value::Int(33)}).ok());
  EXPECT_NE(copy.stamp(), original);
  EXPECT_EQ(source.stamp(), original);

  HeapTable second = source;
  ASSERT_TRUE(source.Delete(4).ok());
  EXPECT_NE(source.stamp(), original);
  EXPECT_NE(source.stamp(), copy.stamp());
  EXPECT_EQ(second.stamp(), original);
  second.Insert(Row{Value::Int(10)});
  EXPECT_NE(second.stamp(), original);
  EXPECT_NE(second.stamp(), source.stamp());

  // Through Database: a copy's heaps keep their stamps until written.
  Database db;
  catalog::TableDef def;
  def.name = "t";
  catalog::ColumnDef column;
  column.name = "a";
  def.columns.push_back(column);
  const catalog::TableId t = db.CreateTable(def);
  ASSERT_TRUE(db.InsertRow(t, Row{Value::Int(1)}).ok());
  Database clone = db;
  EXPECT_EQ(clone.heap(t).stamp(), db.heap(t).stamp());
  ASSERT_TRUE(clone.InsertRow(t, Row{Value::Int(2)}).ok());
  EXPECT_NE(clone.heap(t).stamp(), db.heap(t).stamp());
  EXPECT_EQ(db.heap(t).live_count(), 1u);
}

// ---------- the chunk diff ---------------------------------------------------

/// An older copy of the live heap and the chunks either side has written
/// since it was taken.
struct OlderCopy {
  HeapTable heap;
  std::set<RowId> written;  // chunk indexes
};

/// Every slot NextChangedSlot yields for (base, now), in order.
std::set<RowId> ChangedSlots(const HeapTable& base, const HeapTable& now) {
  std::set<RowId> changed;
  for (RowId rid = now.NextChangedSlot(base, 0); rid != HeapTable::kNoSlot;
       rid = now.NextChangedSlot(base, rid + 1)) {
    changed.insert(rid);
  }
  return changed;
}

/// The diff yields every slot whose liveness or row differs, and no slot
/// of a chunk neither side wrote since the copy.
void ExpectExactDiff(const HeapTable& base, const HeapTable& now,
                     const std::set<RowId>& written) {
  const std::set<RowId> changed = ChangedSlots(base, now);
  const RowId end = std::max(base.slot_count(), now.slot_count());
  for (RowId rid = 0; rid < end; ++rid) {
    const bool differs =
        base.IsLive(rid) != now.IsLive(rid) ||
        (base.IsLive(rid) && base.row(rid) != now.row(rid));
    if (differs) {
      ASSERT_EQ(changed.count(rid), 1u) << "missed changed row " << rid;
    }
    ASSERT_EQ(changed.count(rid), written.count(rid >> HeapTable::kChunkShift))
        << "row " << rid << " of a chunk "
        << (changed.count(rid) ? "no side wrote" : "a side wrote");
  }
  EXPECT_TRUE(changed.empty() || *changed.rbegin() < end);
}

/// Every live row of `heap` is in `tree` under its key, and nothing else.
void ExpectTreeIndexes(const BTreeIndex& tree, const HeapTable& heap,
                       const catalog::IndexDef& def) {
  EXPECT_EQ(tree.entry_count(), heap.live_count());
  heap.ForEachLive([&](RowId rid, SlotRef ref) {
    std::string key;
    AppendIndexKey(def, ref, &key);
    bool found = false;
    tree.ScanPrefix(key, std::nullopt, std::nullopt, [&](RowId r) {
      found = r == rid;
      return !found;
    });
    EXPECT_TRUE(found) << "row " << rid << " not under its key";
    return true;
  });
}

class ChunkDiffTest : public ::testing::TestWithParam<uint64_t> {};

// A seeded Insert / Update / Delete storm on a live table that holds 1-3
// older copies of its heap; the copies take writes of their own now and
// then (a validation clone replaying DML). At checkpoints, the diff
// between every copy and the live heap, both ways round, is exactly the
// chunks written since the copy, and an online build seeded with the copy
// and its tree catches up to the index a fresh build makes.
TEST_P(ChunkDiffTest, DiffFindsEveryChangedRowAndSeededBuildsCatchUp) {
  Rng rng(GetParam());
  Database live;
  catalog::TableDef table;
  table.name = "t";
  for (const char* name : {"a", "b", "c"}) {
    catalog::ColumnDef column;
    column.name = name;
    table.columns.push_back(column);
  }
  const catalog::TableId t = live.CreateTable(table);
  catalog::IndexDef def;
  def.table = t;
  def.columns = {0, 1};
  for (RowId i = 0; i < 8 * HeapTable::kChunkRows + 37; ++i) {
    ASSERT_TRUE(live.InsertRow(t, RandomRow(&rng)).ok());
  }
  const auto random_live = [&](const HeapTable& heap) -> std::optional<RowId> {
    for (int attempt = 0; attempt < 8; ++attempt) {
      const RowId rid = rng.Uniform(heap.slot_count());
      if (heap.IsLive(rid)) return rid;
    }
    return std::nullopt;
  };

  std::vector<OlderCopy> copies;
  for (int step = 0; step < 600; ++step) {
    const uint64_t roll = rng.Uniform(100);
    if (copies.empty() || (roll < 4 && copies.size() < 3)) {
      copies.push_back(OlderCopy{live.heap(t), {}});
    } else if (roll < 7 && copies.size() > 1) {
      copies.erase(copies.begin() +
                   static_cast<std::ptrdiff_t>(rng.Uniform(copies.size())));
    } else if (roll < 20) {
      // A copy takes a write of its own.
      OlderCopy& c = copies[rng.Uniform(copies.size())];
      const uint64_t op = rng.Uniform(3);
      if (op == 0) {
        c.written.insert(c.heap.Insert(RandomRow(&rng)) >>
                         HeapTable::kChunkShift);
      } else if (const auto rid = random_live(c.heap)) {
        ASSERT_TRUE(op == 1 ? c.heap.Update(*rid, RandomRow(&rng)).ok()
                            : c.heap.Delete(*rid).ok());
        c.written.insert(*rid >> HeapTable::kChunkShift);
      }
    } else {
      std::optional<RowId> rid;
      if (roll < 60) {
        Result<RowId> inserted = live.InsertRow(t, RandomRow(&rng));
        ASSERT_TRUE(inserted.ok());
        rid = inserted.ValueOrDie();
      } else if ((rid = random_live(live.heap(t)))) {
        ASSERT_TRUE(roll < 85 ? live.UpdateRow(t, *rid, RandomRow(&rng)).ok()
                              : live.DeleteRow(t, *rid).ok());
      }
      if (rid) {
        for (OlderCopy& c : copies) {
          c.written.insert(*rid >> HeapTable::kChunkShift);
        }
      }
    }
    if (step % 60 != 59) continue;
    for (size_t i = 0; i < copies.size(); ++i) {
      SCOPED_TRACE("step " + std::to_string(step) + " copy " +
                   std::to_string(i));
      const OlderCopy& c = copies[i];
      ASSERT_NO_FATAL_FAILURE(ExpectExactDiff(c.heap, live.heap(t), c.written));
      ASSERT_NO_FATAL_FAILURE(ExpectExactDiff(live.heap(t), c.heap, c.written));

      OnlineBuildSeed seed{c.heap, {}};
      ASSERT_TRUE(
          BuildIndexTree(c.heap, def, "storage.build_index_entry", &seed.tree)
              .ok());
      Database online = live;
      Result<OnlineBuildReport> r =
          OnlineIndexBuilder(&online).Build(def, nullptr, std::move(seed));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      Database fresh = live;
      Result<catalog::IndexId> id = fresh.CreateIndex(def);
      ASSERT_TRUE(id.ok());
      ExpectTreeIndexes(*online.btree(r.ValueOrDie().id), live.heap(t), def);
      ExpectTreeIndexes(*fresh.btree(id.ValueOrDie()), live.heap(t), def);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChunkDiffTest,
                         ::testing::Values(1u, 2u, 3u, 4u));

/// Order-sensitive digest of every live row and every index's entries.
uint64_t Digest(const Database& db) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (catalog::TableId t = 0; t < db.catalog().table_count(); ++t) {
    // Lanes, not rows by value: the writer keeps committing while this
    // reads, so the digest must cost no more than a pass over the lanes.
    const size_t width = db.catalog().table(t).columns.size();
    db.heap(t).ForEachLive([&](RowId rid, SlotRef ref) {
      mix(rid);
      for (size_t c = 0; c < width; ++c) {
        mix(static_cast<uint64_t>(ref.value(c).AsInt()));
      }
      return true;
    });
    for (const catalog::IndexDef* idx : db.catalog().TableIndexes(t, false)) {
      db.btree(idx->id)->ScanAll([&](RowId rid) {
        mix(rid);
        return true;
      });
    }
  }
  return h;
}

/// Every index holds exactly its table's live rows.
void ExpectIndexesCoverHeaps(const Database& db) {
  for (catalog::TableId t = 0; t < db.catalog().table_count(); ++t) {
    const HeapTable& heap = db.heap(t);
    for (const catalog::IndexDef* idx : db.catalog().TableIndexes(t, false)) {
      const BTreeIndex* tree = db.btree(idx->id);
      ASSERT_NE(tree, nullptr);
      EXPECT_EQ(tree->entry_count(), heap.live_count());
      tree->ScanAll([&](RowId rid) {
        EXPECT_TRUE(heap.IsLive(rid));
        return true;
      });
    }
  }
}

TEST(CowConcurrencyTest, SnapshotsStayFrozenWhileTheWriterCommits) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  Database& db = tpcc.db();
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> commits{0};
  std::atomic<uint64_t> errors{0};
  // The writer: NewOrder / Payment, each under one exclusive latch hold.
  std::thread writer([&] {
    Rng rng(17);
    while (!stop.load(std::memory_order_relaxed)) {
      const Status st =
          rng.Uniform(2) == 0 ? tpcc.NewOrder(&rng) : tpcc.Payment(&rng);
      if (!st.ok()) errors.fetch_add(1);
      commits.fetch_add(1);
    }
  });
  Rng rng(23);
  for (int i = 0; i < 40; ++i) {
    Database snapshot;
    {
      std::unique_lock<std::shared_mutex> lock(db.latch());
      snapshot = db;
    }
    // From here on the snapshot is read and written without the latch.
    const uint64_t frozen = Digest(snapshot);
    ExpectIndexesCoverHeaps(snapshot);
    // Let the writer commit on the shared chunks and leaves.
    const uint64_t seen = commits.load();
    while (commits.load() < seen + 3) std::this_thread::yield();
    // A clone of the snapshot takes writes of its own, as a validation
    // replay does.
    Database clone = snapshot;
    const catalog::TableId t = rng.Uniform(clone.catalog().table_count());
    const HeapTable& heap = clone.heap(t);
    if (heap.slot_count() > 0) {
      const RowId rid = rng.Uniform(heap.slot_count());
      if (heap.IsLive(rid)) {
        Row row = heap.row(rid);
        ASSERT_TRUE(clone.DeleteRow(t, rid).ok());
        ASSERT_TRUE(clone.InsertRow(t, std::move(row)).ok());
      }
    }
    ExpectIndexesCoverHeaps(clone);
    EXPECT_EQ(Digest(snapshot), frozen) << "snapshot " << i;
  }  // each snapshot and clone is destroyed while the writer runs
  stop.store(true);
  writer.join();
  EXPECT_EQ(errors.load(), 0u);
  std::shared_lock<std::shared_mutex> lock(db.latch());
  ExpectIndexesCoverHeaps(db);
}

}  // namespace
}  // namespace aim::storage
