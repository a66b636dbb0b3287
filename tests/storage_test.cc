#include <gtest/gtest.h>

#include <map>
#include <set>

#include "tests/test_util.h"

namespace aim::storage {
namespace {

using sql::Value;

TEST(HeapTableTest, InsertAndScan) {
  HeapTable heap;
  RowId a = heap.Insert({Value::Int(1)});
  RowId b = heap.Insert({Value::Int(2)});
  EXPECT_EQ(a, 0u);
  EXPECT_EQ(b, 1u);
  EXPECT_EQ(heap.live_count(), 2u);
  int seen = 0;
  uint64_t visited = heap.Scan([&](RowId, const Row&) {
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 2);
  EXPECT_EQ(visited, 2u);
}

TEST(HeapTableTest, DeleteTombstones) {
  HeapTable heap;
  RowId a = heap.Insert({Value::Int(1)});
  heap.Insert({Value::Int(2)});
  ASSERT_TRUE(heap.Delete(a).ok());
  EXPECT_FALSE(heap.IsLive(a));
  EXPECT_EQ(heap.live_count(), 1u);
  EXPECT_EQ(heap.slot_count(), 2u);
  EXPECT_FALSE(heap.Delete(a).ok());    // double delete
  EXPECT_FALSE(heap.Update(a, {}).ok());  // update dead row
}

TEST(HeapTableTest, ScanEarlyStop) {
  HeapTable heap;
  for (int i = 0; i < 10; ++i) heap.Insert({Value::Int(i)});
  int seen = 0;
  heap.Scan([&](RowId, const Row&) {
    ++seen;
    return seen < 3;
  });
  EXPECT_EQ(seen, 3);
}

TEST(HeapTableTest, UpdateReplacesRow) {
  HeapTable heap;
  RowId a = heap.Insert({Value::Int(1)});
  ASSERT_TRUE(heap.Update(a, {Value::Int(99)}).ok());
  EXPECT_EQ(heap.row(a)[0].AsInt(), 99);
}

TEST(HeapTableTest, StampChangesOnEveryMutationAndSurvivesCopies) {
  HeapTable heap;
  std::set<uint64_t> stamps = {heap.stamp()};
  const RowId a = heap.Insert({Value::Int(1)});
  EXPECT_TRUE(stamps.insert(heap.stamp()).second);
  const RowId b = heap.Insert({Value::Int(2)});
  EXPECT_TRUE(stamps.insert(heap.stamp()).second);

  const HeapTable copy = heap;
  EXPECT_EQ(copy.stamp(), heap.stamp());

  ASSERT_TRUE(heap.Update(a, {Value::Int(3)}).ok());
  EXPECT_TRUE(stamps.insert(heap.stamp()).second);
  ASSERT_TRUE(heap.Delete(b).ok());
  EXPECT_TRUE(stamps.insert(heap.stamp()).second);
  // A mutated heap never shares a stamp with another heap's past state,
  // not even with the copy taken before the mutation.
  EXPECT_NE(copy.stamp(), heap.stamp());

  // Refused mutations leave the rows, and so the stamp, as they were.
  const uint64_t settled = heap.stamp();
  EXPECT_FALSE(heap.Delete(b).ok());
  EXPECT_FALSE(heap.Update(b, {Value::Int(4)}).ok());
  EXPECT_EQ(heap.stamp(), settled);
}

TEST(DatabaseTest, CopyKeepsHeapStampsAndDmlChangesThem) {
  Database db = aim::testing::MakeUsersDb(50);
  const Database copy = db;
  EXPECT_EQ(copy.heap(0).stamp(), db.heap(0).stamp());
  Row row = db.heap(0).row(3);
  ASSERT_TRUE(db.UpdateRow(0, 3, row).ok());
  EXPECT_NE(copy.heap(0).stamp(), db.heap(0).stamp());
  const uint64_t updated = db.heap(0).stamp();
  ASSERT_TRUE(db.DeleteRow(0, 3).ok());
  EXPECT_NE(db.heap(0).stamp(), updated);
  const uint64_t deleted = db.heap(0).stamp();
  ASSERT_TRUE(db.InsertRow(0, row).ok());
  EXPECT_NE(db.heap(0).stamp(), deleted);
  // DDL reads the heap but does not change it.
  const uint64_t inserted = db.heap(0).stamp();
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  ASSERT_TRUE(db.CreateIndex(def).ok());
  EXPECT_EQ(db.heap(0).stamp(), inserted);
}

TEST(BTreeIndexTest, PrefixScanExactMatch) {
  BTreeIndex idx;
  idx.Insert(EncodeKey({Value::Int(1), Value::Int(10)}), 0);
  idx.Insert(EncodeKey({Value::Int(1), Value::Int(20)}), 1);
  idx.Insert(EncodeKey({Value::Int(2), Value::Int(10)}), 2);
  std::vector<RowId> hits;
  idx.ScanPrefix(EncodeKey({Value::Int(1)}), std::nullopt, std::nullopt,
                 [&](RowId rid) {
                   hits.push_back(rid);
                   return true;
                 });
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
}

TEST(BTreeIndexTest, RangeBounds) {
  BTreeIndex idx;
  for (int i = 0; i < 10; ++i) {
    idx.Insert(EncodeKey({Value::Int(1), Value::Int(i)}), i);
  }
  std::vector<RowId> hits;
  idx.ScanPrefix(EncodeKey({Value::Int(1)}),
                 KeyBound{Value::Int(3), /*inclusive=*/true},
                 KeyBound{Value::Int(6), /*inclusive=*/false},
                 [&](RowId rid) {
                   hits.push_back(rid);
                   return true;
                 });
  EXPECT_EQ(hits, (std::vector<RowId>{3, 4, 5}));
}

TEST(BTreeIndexTest, ExclusiveLowerBound) {
  BTreeIndex idx;
  for (int i = 0; i < 5; ++i) {
    idx.Insert(EncodeKey({Value::Int(1), Value::Int(i)}), i);
  }
  std::vector<RowId> hits;
  idx.ScanPrefix(EncodeKey({Value::Int(1)}),
                 KeyBound{Value::Int(2), /*inclusive=*/false}, std::nullopt,
                 [&](RowId rid) {
                   hits.push_back(rid);
                   return true;
                 });
  EXPECT_EQ(hits, (std::vector<RowId>{3, 4}));
}

TEST(BTreeIndexTest, EraseSpecificEntry) {
  BTreeIndex idx;
  idx.Insert(EncodeKey({Value::Int(1)}), 0);
  idx.Insert(EncodeKey({Value::Int(1)}), 1);
  EXPECT_TRUE(idx.Erase(EncodeKey({Value::Int(1)}), 0));
  EXPECT_FALSE(idx.Erase(EncodeKey({Value::Int(1)}), 0));
  EXPECT_EQ(idx.entry_count(), 1u);
}

TEST(BTreeIndexTest, EmptyPrefixScansAll) {
  BTreeIndex idx;
  for (int i = 0; i < 5; ++i) idx.Insert(EncodeKey({Value::Int(i)}), i);
  int count = 0;
  idx.ScanPrefix("", std::nullopt, std::nullopt,
                 [&](RowId) {
                   ++count;
                   return true;
                 });
  EXPECT_EQ(count, 5);
}

TEST(BTreeIndexTest, StringKeys) {
  BTreeIndex idx;
  idx.Insert(EncodeKey({Value::Str("apple")}), 0);
  idx.Insert(EncodeKey({Value::Str("banana")}), 1);
  idx.Insert(EncodeKey({Value::Str("apricot")}), 2);
  std::vector<RowId> hits;
  idx.ScanPrefix("", KeyBound{Value::Str("ap"), true},
                 KeyBound{Value::Str("aq"), false},
                 [&](RowId rid) {
                   hits.push_back(rid);
                   return true;
                 });
  EXPECT_EQ(hits, (std::vector<RowId>{0, 2}));
}

TEST(DatabaseTest, CreateIndexMaterializes) {
  Database db = aim::testing::MakeUsersDb(500);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};  // org_id
  Result<catalog::IndexId> id = db.CreateIndex(def);
  ASSERT_TRUE(id.ok());
  const BTreeIndex* btree = db.btree(id.ValueOrDie());
  ASSERT_NE(btree, nullptr);
  EXPECT_EQ(btree->entry_count(), 500u);
}

TEST(DatabaseTest, HypotheticalIndexHasNoBTree) {
  Database db = aim::testing::MakeUsersDb(100);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  def.hypothetical = true;
  Result<catalog::IndexId> id = db.CreateIndex(def);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(db.btree(id.ValueOrDie()), nullptr);
}

TEST(DatabaseTest, InsertMaintainsIndexes) {
  Database db = aim::testing::MakeUsersDb(100);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2};  // status
  catalog::IndexId id = db.CreateIndex(def).ValueOrDie();
  MaintenanceCost mc;
  Row row = db.heap(0).row(0);
  row[0] = Value::Int(100000);
  ASSERT_TRUE(db.InsertRow(0, row, &mc).ok());
  // The secondary index plus the clustered primary index.
  EXPECT_EQ(mc.index_entries_written, 2u);
  EXPECT_EQ(db.btree(id)->entry_count(), 101u);
}

TEST(DatabaseTest, UpdateOnlyTouchesAffectedIndexes) {
  Database db = aim::testing::MakeUsersDb(100);
  catalog::IndexDef on_status;
  on_status.table = 0;
  on_status.columns = {2};
  catalog::IndexDef on_org;
  on_org.table = 0;
  on_org.columns = {1};
  db.CreateIndex(on_status).ValueOrDie();
  db.CreateIndex(on_org).ValueOrDie();

  Row row = db.heap(0).row(0);
  row[2] = Value::Int(row[2].AsInt() + 1000);  // change status only
  MaintenanceCost mc;
  ASSERT_TRUE(db.UpdateRow(0, 0, row, &mc).ok());
  EXPECT_EQ(mc.indexes_touched, 1u);
  EXPECT_EQ(mc.index_entries_written, 2u);  // delete + insert
}

TEST(DatabaseTest, DeleteRemovesFromAllIndexes) {
  Database db = aim::testing::MakeUsersDb(100);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2};
  catalog::IndexId id = db.CreateIndex(def).ValueOrDie();
  MaintenanceCost mc;
  ASSERT_TRUE(db.DeleteRow(0, 0, &mc).ok());
  EXPECT_EQ(db.btree(id)->entry_count(), 99u);
  EXPECT_EQ(db.heap(0).live_count(), 99u);
}

TEST(DatabaseTest, DropIndexRemovesBTree) {
  Database db = aim::testing::MakeUsersDb(100);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  catalog::IndexId id = db.CreateIndex(def).ValueOrDie();
  ASSERT_TRUE(db.DropIndex(id).ok());
  EXPECT_EQ(db.btree(id), nullptr);
  EXPECT_EQ(db.catalog().index(id), nullptr);
}

TEST(DatabaseTest, DeepCopyIsolation) {
  Database db = aim::testing::MakeUsersDb(100);
  Database copy = db;
  MaintenanceCost mc;
  ASSERT_TRUE(copy.DeleteRow(0, 0, &mc).ok());
  EXPECT_EQ(db.heap(0).live_count(), 100u);
  EXPECT_EQ(copy.heap(0).live_count(), 99u);
}

TEST(DatabaseTest, AnalyzeRefreshesStats) {
  Database db = aim::testing::MakeUsersDb(1000);
  const auto& stats = db.catalog().table(0).stats;
  EXPECT_EQ(stats.row_count, 1000u);
  // org_id has ndv 100 by construction.
  EXPECT_NEAR(static_cast<double>(stats.columns[1].ndv), 100.0, 10.0);
  // status has ndv 5.
  EXPECT_LE(stats.columns[2].ndv, 5u);
  // id is unique.
  EXPECT_EQ(stats.columns[0].ndv, 1000u);
}

TEST(DatabaseTest, RowArityValidated) {
  Database db = aim::testing::MakeUsersDb(10);
  EXPECT_FALSE(db.InsertRow(0, {Value::Int(1)}).ok());
  EXPECT_FALSE(db.InsertRow(99, {}).ok());
}

TEST(DataGeneratorTest, SequentialPkIsUnique) {
  Database db = aim::testing::MakeUsersDb(500);
  std::set<int64_t> ids;
  db.heap(0).Scan([&](RowId, const Row& row) {
    ids.insert(row[0].AsInt());
    return true;
  });
  EXPECT_EQ(ids.size(), 500u);
}

TEST(DataGeneratorTest, NdvRoughlyRespected) {
  Database db = aim::testing::MakeUsersDb(2000);
  std::set<int64_t> statuses;
  db.heap(0).Scan([&](RowId, const Row& row) {
    statuses.insert(row[2].AsInt());
    return true;
  });
  EXPECT_LE(statuses.size(), 5u);
  EXPECT_GE(statuses.size(), 2u);
}

TEST(DataGeneratorTest, ZipfSkewsValues) {
  Database db = aim::testing::MakeUsersDb(5000);
  std::map<int64_t, int> counts;
  db.heap(0).Scan([&](RowId, const Row& row) {
    counts[row[3].AsInt()]++;  // score: zipf(1000, 0.6)
    return true;
  });
  // The most frequent value should appear far more often than uniform
  // (5000/1000 = 5 expected under uniform).
  int max_count = 0;
  for (const auto& [v, c] : counts) max_count = std::max(max_count, c);
  EXPECT_GT(max_count, 50);
}

TEST(DataGeneratorTest, StringColumnsGetPrefix) {
  Database db = aim::testing::MakeUsersDb(50);
  db.heap(0).Scan([&](RowId, const Row& row) {
    EXPECT_EQ(row[5].AsString().rfind("user", 0), 0u);
    return true;
  });
}

}  // namespace
}  // namespace aim::storage
