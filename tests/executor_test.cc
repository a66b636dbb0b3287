#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "executor/executor.h"
#include "tests/test_util.h"

namespace aim::executor {
namespace {

using aim::testing::MakeOrdersDb;
using aim::testing::MakeUsersDb;
using aim::testing::MustParse;
using sql::Value;

ExecuteResult MustExecute(storage::Database* db, const std::string& sql) {
  Executor exec(db, optimizer::CostModel());
  Result<ExecuteResult> r = exec.Execute(MustParse(sql));
  EXPECT_TRUE(r.ok()) << r.status().ToString() << " sql=" << sql;
  return r.ok() ? r.MoveValue() : ExecuteResult{};
}

/// Brute-force row count matching a simple predicate on `users`.
uint64_t CountWhere(const storage::Database& db,
                    const std::function<bool(const storage::Row&)>& pred) {
  uint64_t n = 0;
  db.heap(0).Scan([&](storage::RowId, const storage::Row& row) {
    if (pred(row)) ++n;
    return true;
  });
  return n;
}

catalog::IndexId AddIndex(storage::Database* db,
                          std::vector<catalog::ColumnId> cols,
                          catalog::TableId table = 0) {
  catalog::IndexDef def;
  def.table = table;
  def.columns = std::move(cols);
  return db->CreateIndex(def).ValueOrDie();
}

TEST(ExecutorTest, ScanMatchesBruteForce) {
  storage::Database db = MakeUsersDb(2000);
  ExecuteResult r = MustExecute(&db, "SELECT id FROM users WHERE org_id = 7");
  const uint64_t expected = CountWhere(
      db, [](const storage::Row& row) { return row[1].AsInt() == 7; });
  EXPECT_EQ(r.rows.size(), expected);
  EXPECT_EQ(r.metrics.rows_sent, expected);
  EXPECT_EQ(r.metrics.rows_examined, 2000u);
}

TEST(ExecutorTest, IndexScanSameResultLessWork) {
  storage::Database db = MakeUsersDb(2000);
  const ExecuteResult scan =
      MustExecute(&db, "SELECT id FROM users WHERE org_id = 7");
  AddIndex(&db, {1});
  const ExecuteResult indexed =
      MustExecute(&db, "SELECT id FROM users WHERE org_id = 7");
  EXPECT_EQ(indexed.rows.size(), scan.rows.size());
  EXPECT_LT(indexed.metrics.rows_examined, scan.metrics.rows_examined);
  EXPECT_LT(indexed.metrics.cpu_seconds, scan.metrics.cpu_seconds);
  ASSERT_EQ(indexed.metrics.used_indexes.size(), 1u);
}

TEST(ExecutorTest, RangePredicateViaIndex) {
  storage::Database db = MakeUsersDb(2000);
  AddIndex(&db, {2, 4});  // (status, created_at)
  ExecuteResult r = MustExecute(
      &db,
      "SELECT id FROM users WHERE status = 1 AND created_at > 1500");
  const uint64_t expected =
      CountWhere(db, [](const storage::Row& row) {
        return row[2].AsInt() == 1 && row[4].AsInt() > 1500;
      });
  EXPECT_EQ(r.rows.size(), expected);
  EXPECT_LT(r.metrics.rows_examined, 2000u);
}

TEST(ExecutorTest, InListExpandsRanges) {
  storage::Database db = MakeUsersDb(2000);
  AddIndex(&db, {1});
  ExecuteResult r = MustExecute(
      &db, "SELECT id FROM users WHERE org_id IN (3, 5, 9)");
  const uint64_t expected = CountWhere(db, [](const storage::Row& row) {
    const int64_t v = row[1].AsInt();
    return v == 3 || v == 5 || v == 9;
  });
  EXPECT_EQ(r.rows.size(), expected);
}

TEST(ExecutorTest, BetweenInclusive) {
  storage::Database db = MakeUsersDb(500);
  ExecuteResult r = MustExecute(
      &db, "SELECT id FROM users WHERE created_at BETWEEN 100 AND 200");
  const uint64_t expected = CountWhere(db, [](const storage::Row& row) {
    return row[4].AsInt() >= 100 && row[4].AsInt() <= 200;
  });
  EXPECT_EQ(r.rows.size(), expected);
}

TEST(ExecutorTest, LikePrefix) {
  storage::Database db = MakeUsersDb(500);
  ExecuteResult r =
      MustExecute(&db, "SELECT id FROM users WHERE email LIKE 'user1%'");
  const uint64_t expected = CountWhere(db, [](const storage::Row& row) {
    return row[5].AsString().rfind("user1", 0) == 0;
  });
  EXPECT_EQ(r.rows.size(), expected);
}

TEST(ExecutorTest, LikeGeneralPattern) {
  storage::Database db = MakeUsersDb(200);
  ExecuteResult r =
      MustExecute(&db, "SELECT id FROM users WHERE email LIKE '%7'");
  const uint64_t expected = CountWhere(db, [](const storage::Row& row) {
    const std::string& s = row[5].AsString();
    return !s.empty() && s.back() == '7';
  });
  EXPECT_EQ(r.rows.size(), expected);
}

TEST(ExecutorTest, OrPredicate) {
  storage::Database db = MakeUsersDb(1000);
  ExecuteResult r = MustExecute(
      &db,
      "SELECT id FROM users WHERE (org_id = 3 AND status = 1) OR "
      "(org_id = 5 AND status = 2)");
  const uint64_t expected = CountWhere(db, [](const storage::Row& row) {
    return (row[1].AsInt() == 3 && row[2].AsInt() == 1) ||
           (row[1].AsInt() == 5 && row[2].AsInt() == 2);
  });
  EXPECT_EQ(r.rows.size(), expected);
}

TEST(ExecutorTest, NotPredicate) {
  storage::Database db = MakeUsersDb(300);
  ExecuteResult r = MustExecute(
      &db, "SELECT id FROM users WHERE NOT (status = 1)");
  const uint64_t expected = CountWhere(db, [](const storage::Row& row) {
    return row[2].AsInt() != 1;
  });
  EXPECT_EQ(r.rows.size(), expected);
}

TEST(ExecutorTest, OrderByAscDesc) {
  storage::Database db = MakeUsersDb(300);
  ExecuteResult asc = MustExecute(
      &db, "SELECT created_at FROM users ORDER BY created_at");
  ASSERT_FALSE(asc.rows.empty());
  for (size_t i = 1; i < asc.rows.size(); ++i) {
    EXPECT_LE(asc.rows[i - 1][0].AsInt(), asc.rows[i][0].AsInt());
  }
  ExecuteResult desc = MustExecute(
      &db, "SELECT created_at FROM users ORDER BY created_at DESC");
  for (size_t i = 1; i < desc.rows.size(); ++i) {
    EXPECT_GE(desc.rows[i - 1][0].AsInt(), desc.rows[i][0].AsInt());
  }
}

TEST(ExecutorTest, OrderViaIndexSkipsSort) {
  storage::Database db = MakeUsersDb(2000);
  AddIndex(&db, {4});
  ExecuteResult r = MustExecute(
      &db, "SELECT created_at FROM users ORDER BY created_at LIMIT 20");
  ASSERT_EQ(r.rows.size(), 20u);
  for (size_t i = 1; i < r.rows.size(); ++i) {
    EXPECT_LE(r.rows[i - 1][0].AsInt(), r.rows[i][0].AsInt());
  }
  EXPECT_EQ(r.metrics.rows_sorted, 0u);
  // Early termination: far fewer than 2000 rows examined.
  EXPECT_LT(r.metrics.rows_examined, 200u);
}

TEST(ExecutorTest, LimitWithoutOrder) {
  storage::Database db = MakeUsersDb(500);
  ExecuteResult r = MustExecute(&db, "SELECT id FROM users LIMIT 7");
  EXPECT_EQ(r.rows.size(), 7u);
  EXPECT_LT(r.metrics.rows_examined, 500u);
}

TEST(ExecutorTest, GroupByCounts) {
  storage::Database db = MakeUsersDb(1000);
  ExecuteResult r = MustExecute(
      &db, "SELECT status, COUNT(*) FROM users GROUP BY status");
  uint64_t total = 0;
  std::set<int64_t> seen;
  for (const auto& row : r.rows) {
    EXPECT_TRUE(seen.insert(row[0].AsInt()).second);
    total += static_cast<uint64_t>(row[1].AsInt());
  }
  EXPECT_EQ(total, 1000u);
}

TEST(ExecutorTest, GroupByWithFilterAndSum) {
  storage::Database db = MakeUsersDb(1000);
  ExecuteResult r = MustExecute(
      &db,
      "SELECT status, SUM(score) FROM users WHERE org_id = 3 GROUP BY "
      "status");
  // Verify per-group sums against brute force.
  std::map<int64_t, double> expected;
  db.heap(0).Scan([&](storage::RowId, const storage::Row& row) {
    if (row[1].AsInt() == 3) {
      expected[row[2].AsInt()] += static_cast<double>(row[3].AsInt());
    }
    return true;
  });
  EXPECT_EQ(r.rows.size(), expected.size());
  for (const auto& row : r.rows) {
    EXPECT_NEAR(row[1].AsDouble(), expected[row[0].AsInt()], 1e-6);
  }
}

TEST(ExecutorTest, AggregatesMinMaxAvg) {
  storage::Database db = MakeUsersDb(500);
  ExecuteResult r = MustExecute(
      &db, "SELECT MIN(score), MAX(score), AVG(score), COUNT(*) FROM "
           "users WHERE status = 2");
  ASSERT_EQ(r.rows.size(), 1u);
  int64_t mn = INT64_MAX;
  int64_t mx = INT64_MIN;
  double sum = 0;
  uint64_t count = 0;
  db.heap(0).Scan([&](storage::RowId, const storage::Row& row) {
    if (row[2].AsInt() == 2) {
      mn = std::min(mn, row[3].AsInt());
      mx = std::max(mx, row[3].AsInt());
      sum += static_cast<double>(row[3].AsInt());
      ++count;
    }
    return true;
  });
  ASSERT_GT(count, 0u);
  EXPECT_EQ(r.rows[0][0].AsInt(), mn);
  EXPECT_EQ(r.rows[0][1].AsInt(), mx);
  EXPECT_NEAR(r.rows[0][2].AsDouble(), sum / count, 1e-6);
  EXPECT_EQ(r.rows[0][3].AsInt(), static_cast<int64_t>(count));
}

TEST(ExecutorTest, JoinMatchesBruteForce) {
  storage::Database db = MakeOrdersDb(200, 1000);
  ExecuteResult r = MustExecute(
      &db,
      "SELECT users.id FROM users, orders WHERE users.id = "
      "orders.user_id AND orders.status = 2");
  // Brute force.
  uint64_t expected = 0;
  db.heap(1).Scan([&](storage::RowId, const storage::Row& order) {
    if (order[2].AsInt() != 2) return true;
    db.heap(0).Scan([&](storage::RowId, const storage::Row& user) {
      if (user[0].AsInt() == order[1].AsInt()) ++expected;
      return true;
    });
    return true;
  });
  EXPECT_EQ(r.rows.size(), expected);
}

TEST(ExecutorTest, JoinWithIndexSameResult) {
  storage::Database db = MakeOrdersDb(200, 1000);
  const ExecuteResult before = MustExecute(
      &db,
      "SELECT users.id FROM users, orders WHERE users.id = "
      "orders.user_id AND users.org_id = 5");
  AddIndex(&db, {1}, 1);  // orders(user_id)
  const ExecuteResult after = MustExecute(
      &db,
      "SELECT users.id FROM users, orders WHERE users.id = "
      "orders.user_id AND users.org_id = 5");
  EXPECT_EQ(before.rows.size(), after.rows.size());
  EXPECT_LE(after.metrics.rows_examined, before.metrics.rows_examined);
}

TEST(ExecutorTest, SelectStarWidth) {
  storage::Database db = MakeUsersDb(50);
  ExecuteResult r = MustExecute(&db, "SELECT * FROM users WHERE id = 5");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0].size(), 7u);
}

TEST(ExecutorTest, InsertAddsRow) {
  storage::Database db = MakeUsersDb(100);
  ExecuteResult r = MustExecute(
      &db,
      "INSERT INTO users (id, org_id, status, score, created_at, email, "
      "payload) VALUES (50000, 1, 2, 3, 4, 'new', 'p')");
  EXPECT_EQ(r.metrics.rows_modified, 1u);
  EXPECT_EQ(db.heap(0).live_count(), 101u);
}

TEST(ExecutorTest, UpdateChangesMatchingRows) {
  storage::Database db = MakeUsersDb(200);
  ExecuteResult r = MustExecute(
      &db, "UPDATE users SET score = 12345 WHERE org_id = 9");
  const uint64_t updated = CountWhere(db, [](const storage::Row& row) {
    return row[3].AsInt() == 12345;
  });
  EXPECT_EQ(r.metrics.rows_modified, updated);
  EXPECT_GT(updated, 0u);
}

TEST(ExecutorTest, UpdateMaintainsIndexes) {
  storage::Database db = MakeUsersDb(200);
  catalog::IndexId idx = AddIndex(&db, {3});  // score
  MustExecute(&db, "UPDATE users SET score = 777777 WHERE org_id = 3");
  // The index must now find the new values.
  uint64_t via_index = 0;
  db.btree(idx)->ScanPrefix(storage::EncodeKey({Value::Int(777777)}),
                            std::nullopt, std::nullopt,
                            [&](storage::RowId) {
                              ++via_index;
                              return true;
                            });
  const uint64_t expected = CountWhere(db, [](const storage::Row& row) {
    return row[3].AsInt() == 777777;
  });
  EXPECT_EQ(via_index, expected);
  EXPECT_GT(expected, 0u);
}

TEST(ExecutorTest, DeleteRemovesRows) {
  storage::Database db = MakeUsersDb(300);
  const uint64_t before = db.heap(0).live_count();
  ExecuteResult r =
      MustExecute(&db, "DELETE FROM users WHERE status = 4");
  EXPECT_EQ(db.heap(0).live_count(), before - r.metrics.rows_modified);
  EXPECT_EQ(CountWhere(db, [](const storage::Row& row) {
              return row[2].AsInt() == 4;
            }),
            0u);
}

TEST(ExecutorTest, DeleteViaIndexPath) {
  storage::Database db = MakeUsersDb(2000);
  AddIndex(&db, {1});
  ExecuteResult r =
      MustExecute(&db, "DELETE FROM users WHERE org_id = 11");
  EXPECT_GT(r.metrics.rows_modified, 0u);
  EXPECT_LT(r.metrics.rows_examined, 2000u);
  EXPECT_EQ(CountWhere(db, [](const storage::Row& row) {
              return row[1].AsInt() == 11;
            }),
            0u);
}

TEST(ExecutorTest, MetricsSentToReadRatio) {
  storage::Database db = MakeUsersDb(1000);
  ExecuteResult selective =
      MustExecute(&db, "SELECT id FROM users WHERE created_at = 17");
  // Full scan for ~1 row: ddr ingredient near 0.
  EXPECT_LT(selective.metrics.SentToReadRatio(), 0.01);
  ExecuteResult all = MustExecute(&db, "SELECT id FROM users");
  EXPECT_NEAR(all.metrics.SentToReadRatio(), 1.0, 1e-9);
}

TEST(ExecutorTest, CoveringQueryDoesNoPkLookups) {
  storage::Database db = MakeUsersDb(2000);
  AddIndex(&db, {1, 2});
  ExecuteResult r = MustExecute(
      &db, "SELECT status FROM users WHERE org_id = 5");
  EXPECT_EQ(r.metrics.pk_lookups, 0u);
  ExecuteResult fetch = MustExecute(
      &db, "SELECT email FROM users WHERE org_id = 5");
  EXPECT_GT(fetch.metrics.pk_lookups, 0u);
}

TEST(ExecutorTest, ParameterizedStatementYieldsNoRows) {
  // Executor requires literals; a parameterized predicate evaluates to
  // unknown and matches nothing (documented behaviour).
  storage::Database db = MakeUsersDb(50);
  ExecuteResult r =
      MustExecute(&db, "SELECT id FROM users WHERE org_id = ?");
  EXPECT_EQ(r.rows.size(), 0u);
}

}  // namespace
}  // namespace aim::executor
