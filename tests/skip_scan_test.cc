// Index skip scan (MySQL 8 "skip scan range access", Sec. VIII-a):
// B+Tree-level group jumps, optimizer costing, executor correctness, and
// the feature switch.
#include <gtest/gtest.h>

#include "executor/executor.h"
#include "optimizer/optimizer.h"
#include "tests/test_util.h"

namespace aim {
namespace {

using aim::testing::MakeUsersDb;
using aim::testing::MustParse;
using sql::Value;

// ---------- Value sentinel ---------------------------------------------------

TEST(ValueMaxTest, SortsAfterEverything) {
  EXPECT_GT(Value::Max().Compare(Value::Int(INT64_MAX)), 0);
  EXPECT_GT(Value::Max().Compare(Value::Str("\xff\xff")), 0);
  EXPECT_GT(Value::Max().Compare(Value::Null()), 0);
  EXPECT_EQ(Value::Max().Compare(Value::Max()), 0);
  EXPECT_LT(Value::Int(5).Compare(Value::Max()), 0);
}

// ---------- BTree ScanSkip ---------------------------------------------------

TEST(ScanSkipTest, VisitsEveryGroupOnce) {
  storage::BTreeIndex index;
  // Keys (g, v): groups 0..4, values 0..9 each.
  for (int64_t g = 0; g < 5; ++g) {
    for (int64_t v = 0; v < 10; ++v) {
      index.Insert(storage::EncodeKey({Value::Int(g), Value::Int(v)}),
                   static_cast<storage::RowId>(g * 10 + v));
    }
  }
  uint64_t groups = 0;
  std::vector<storage::RowId> hits;
  index.ScanSkip(1, storage::KeyBound{Value::Int(3), true},
                 storage::KeyBound{Value::Int(4), true},
                 [&](storage::RowId rid) {
                   hits.push_back(rid);
                   return true;
                 },
                 &groups);
  EXPECT_EQ(groups, 5u);
  ASSERT_EQ(hits.size(), 10u);  // 2 qualifying values x 5 groups
  for (storage::RowId rid : hits) {
    const int64_t v = static_cast<int64_t>(rid) % 10;
    EXPECT_GE(v, 3);
    EXPECT_LE(v, 4);
  }
}

TEST(ScanSkipTest, UnboundedScansWholeIndexGroupwise) {
  storage::BTreeIndex index;
  for (int64_t g = 0; g < 3; ++g) {
    for (int64_t v = 0; v < 4; ++v) {
      index.Insert(storage::EncodeKey({Value::Int(g), Value::Int(v)}),
                   static_cast<storage::RowId>(g * 4 + v));
    }
  }
  uint64_t groups = 0;
  uint64_t visited = index.ScanSkip(
      1, std::nullopt, std::nullopt,
      [](storage::RowId) { return true; }, &groups);
  EXPECT_EQ(groups, 3u);
  EXPECT_EQ(visited, 12u);
}

TEST(ScanSkipTest, EarlyStopPropagates) {
  storage::BTreeIndex index;
  for (int64_t g = 0; g < 4; ++g) {
    index.Insert(storage::EncodeKey({Value::Int(g), Value::Int(1)}),
                 static_cast<storage::RowId>(g));
  }
  int seen = 0;
  index.ScanSkip(1, std::nullopt, std::nullopt,
                 [&](storage::RowId) {
                   return ++seen < 2;
                 });
  EXPECT_EQ(seen, 2);
}

TEST(ScanSkipTest, StringGroups) {
  storage::BTreeIndex index;
  int rid = 0;
  for (const char* g : {"alpha", "beta", "gamma"}) {
    for (int64_t v = 0; v < 3; ++v) {
      index.Insert(storage::EncodeKey({Value::Str(g), Value::Int(v)}), rid++);
    }
  }
  uint64_t groups = 0;
  uint64_t visited = index.ScanSkip(
      1, storage::KeyBound{Value::Int(2), true}, std::nullopt,
      [](storage::RowId) { return true; }, &groups);
  EXPECT_EQ(groups, 3u);
  EXPECT_EQ(visited, 3u);  // one qualifying value per group
}

// ---------- optimizer --------------------------------------------------------

optimizer::Plan PlanWith(const storage::Database& db, const char* sql,
                         optimizer::OptimizeOptions options = {}) {
  optimizer::Optimizer opt(db.catalog(), optimizer::CostModel());
  return opt.Optimize(MustParse(sql), options).MoveValue();
}

TEST(SkipScanPlanTest, ChosenWhenLeadingColumnHasFewValues) {
  storage::Database db = MakeUsersDb(8000);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2, 4};  // (status ndv 5, created_at quasi-unique)
  ASSERT_TRUE(db.CreateIndex(def).ok());
  // Filter on created_at only: without skip scan this index is useless.
  optimizer::Plan plan =
      PlanWith(db, "SELECT id FROM users WHERE created_at = 4242");
  ASSERT_FALSE(plan.steps[0].path.is_full_scan());
  EXPECT_TRUE(plan.steps[0].path.skip_scan);
  EXPECT_EQ(plan.steps[0].path.skip_width, 1u);
}

TEST(SkipScanPlanTest, SwitchDisables) {
  storage::Database db = MakeUsersDb(8000);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2, 4};
  ASSERT_TRUE(db.CreateIndex(def).ok());
  optimizer::OptimizeOptions off;
  off.switches.index_skip_scan = false;
  optimizer::Plan plan = PlanWith(
      db, "SELECT id FROM users WHERE created_at = 4242", off);
  // Without skip scan the index may still serve as a covering skinny
  // scan, but never with group jumps — and it must examine everything.
  EXPECT_FALSE(plan.steps[0].path.skip_scan);
  EXPECT_GE(plan.steps[0].path.index_selectivity, 1.0);
  optimizer::Plan on = PlanWith(
      db, "SELECT id FROM users WHERE created_at = 4242");
  EXPECT_LT(on.total_cost(), plan.total_cost());
}

TEST(SkipScanPlanTest, NotChosenWhenLeadingColumnWide) {
  // Skipping over a quasi-unique column means one descent per row:
  // strictly worse than scanning.
  storage::Database db = MakeUsersDb(8000);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {4, 2};  // (created_at quasi-unique, status)
  ASSERT_TRUE(db.CreateIndex(def).ok());
  optimizer::Plan plan =
      PlanWith(db, "SELECT id FROM users WHERE status = 2");
  EXPECT_FALSE(plan.steps[0].path.skip_scan);
}

TEST(SkipScanPlanTest, RealPrefixBeatsSkip) {
  storage::Database db = MakeUsersDb(8000);
  catalog::IndexDef skip_idx;
  skip_idx.table = 0;
  skip_idx.columns = {2, 4};
  ASSERT_TRUE(db.CreateIndex(skip_idx).ok());
  catalog::IndexDef direct;
  direct.table = 0;
  direct.columns = {4};
  ASSERT_TRUE(db.CreateIndex(direct).ok());
  optimizer::Plan plan =
      PlanWith(db, "SELECT id FROM users WHERE created_at = 4242");
  ASSERT_FALSE(plan.steps[0].path.is_full_scan());
  EXPECT_FALSE(plan.steps[0].path.skip_scan);
  EXPECT_EQ(plan.steps[0].path.index->columns,
            (std::vector<catalog::ColumnId>{4}));
}

// ---------- executor ---------------------------------------------------------

TEST(SkipScanExecTest, ResultsMatchBruteForce) {
  storage::Database db = MakeUsersDb(6000);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2, 4};
  ASSERT_TRUE(db.CreateIndex(def).ok());
  executor::Executor exec(&db, optimizer::CostModel());
  const char* sql =
      "SELECT id FROM users WHERE created_at BETWEEN 100 AND 300";
  uint64_t expected = 0;
  db.heap(0).Scan([&](storage::RowId, const storage::Row& row) {
    if (row[4].AsInt() >= 100 && row[4].AsInt() <= 300) ++expected;
    return true;
  });
  Result<executor::ExecuteResult> r = exec.Execute(MustParse(sql));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows.size(), expected);
  // Far fewer entries touched than a 6000-row scan.
  EXPECT_LT(r.ValueOrDie().metrics.rows_examined, 2000u);
  EXPECT_EQ(r.ValueOrDie().metrics.used_indexes.size(), 1u);
}

TEST(SkipScanExecTest, EqualityPointLookupPerGroup) {
  storage::Database db = MakeUsersDb(6000);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2, 4};
  ASSERT_TRUE(db.CreateIndex(def).ok());
  executor::Executor exec(&db, optimizer::CostModel());
  const char* sql = "SELECT id FROM users WHERE created_at = 777";
  uint64_t expected = 0;
  db.heap(0).Scan([&](storage::RowId, const storage::Row& row) {
    if (row[4].AsInt() == 777) ++expected;
    return true;
  });
  Result<executor::ExecuteResult> r = exec.Execute(MustParse(sql));
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().rows.size(), expected);
  EXPECT_LE(r.ValueOrDie().metrics.rows_examined, 10u);
}

TEST(SkipScanExecTest, ObservedBeatsFullScan) {
  storage::Database db = MakeUsersDb(6000);
  executor::Executor exec(&db, optimizer::CostModel());
  const char* sql = "SELECT id FROM users WHERE created_at = 777";
  const double scan_cpu =
      exec.Execute(MustParse(sql)).ValueOrDie().metrics.cpu_seconds;
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2, 4};
  ASSERT_TRUE(db.CreateIndex(def).ok());
  const double skip_cpu =
      exec.Execute(MustParse(sql)).ValueOrDie().metrics.cpu_seconds;
  EXPECT_LT(skip_cpu, scan_cpu * 0.2);
}

}  // namespace
}  // namespace aim
