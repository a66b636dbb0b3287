// Model-based and metamorphic robustness tests:
//  * index maintenance: after random DML storms, every secondary index
//    must exactly mirror a brute-force recomputation from the heap;
//  * metamorphic executor property: query results must be independent of
//    which indexes exist (indexes change cost, never answers);
//  * parser robustness: random token soup never crashes, and everything
//    that parses round-trips.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "executor/executor.h"
#include "sql/parser.h"
#include "sql/printer.h"
#include "tests/test_util.h"

namespace aim {
namespace {

using aim::testing::MakeUsersDb;
using sql::Value;

// ---------- index maintenance model ------------------------------------------

class DmlStormTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DmlStormTest, IndexesMirrorHeapAfterRandomOps) {
  Rng rng(GetParam());
  storage::Database db = MakeUsersDb(300, GetParam());
  catalog::IndexDef on_org;
  on_org.table = 0;
  on_org.columns = {1};
  catalog::IndexDef on_status_score;
  on_status_score.table = 0;
  on_status_score.columns = {2, 3};
  const catalog::IndexId idx1 = db.CreateIndex(on_org).ValueOrDie();
  const catalog::IndexId idx2 =
      db.CreateIndex(on_status_score).ValueOrDie();

  // Random DML storm.
  for (int op = 0; op < 400; ++op) {
    const double r = rng.NextDouble();
    if (r < 0.4) {
      storage::Row row(7);
      row[0] = Value::Int(static_cast<int64_t>(10000 + op));
      row[1] = Value::Int(static_cast<int64_t>(rng.Uniform(100)));
      row[2] = Value::Int(static_cast<int64_t>(rng.Uniform(5)));
      row[3] = Value::Int(static_cast<int64_t>(rng.Uniform(1000)));
      row[4] = Value::Int(static_cast<int64_t>(rng.Uniform(100000)));
      row[5] = Value::Str('u' + std::to_string(op));
      row[6] = Value::Str('p' + std::to_string(op));
      ASSERT_TRUE(db.InsertRow(0, std::move(row)).ok());
    } else if (r < 0.75) {
      // Update a random live row's indexed columns.
      const storage::RowId rid = rng.Uniform(db.heap(0).slot_count());
      if (!db.heap(0).IsLive(rid)) continue;
      storage::Row row = db.heap(0).row(rid);
      row[1] = Value::Int(static_cast<int64_t>(rng.Uniform(100)));
      row[3] = Value::Int(static_cast<int64_t>(rng.Uniform(1000)));
      ASSERT_TRUE(db.UpdateRow(0, rid, std::move(row)).ok());
    } else {
      const storage::RowId rid = rng.Uniform(db.heap(0).slot_count());
      if (!db.heap(0).IsLive(rid)) continue;
      ASSERT_TRUE(db.DeleteRow(0, rid).ok());
    }
  }

  // Brute-force model: recompute what each index must contain.
  auto verify = [&](catalog::IndexId id) {
    const catalog::IndexDef& def = *db.catalog().index(id);
    std::multiset<std::pair<std::string, storage::RowId>> expected;
    db.heap(0).Scan([&](storage::RowId rid, const storage::Row& row) {
      std::string key;
      for (catalog::ColumnId c : def.columns) {
        key += row[c].ToSqlLiteral() + "|";
      }
      expected.emplace(key, rid);
      return true;
    });
    // The tree stores encoded keys only: each entry's key is read from
    // its heap row and confirmed by probing the tree with it.
    std::multiset<std::pair<std::string, storage::RowId>> actual;
    const storage::BTreeIndex& tree = *db.btree(id);
    tree.ScanAll([&](storage::RowId rid) {
      if (!db.heap(0).IsLive(rid)) {
        actual.emplace("<dead row>", rid);
        return true;
      }
      const storage::Row& row = db.heap(0).row(rid);
      bool stored = false;
      tree.ScanPrefix(db.MakeIndexKey(def, row), std::nullopt, std::nullopt,
                      [&](storage::RowId r) {
                        stored = r == rid;
                        return !stored;
                      });
      std::string k;
      for (catalog::ColumnId c : def.columns) {
        k += row[c].ToSqlLiteral() + "|";
      }
      actual.emplace(stored ? k : "<not stored under its heap key>", rid);
      return true;
    });
    EXPECT_EQ(actual, expected) << "index "
                                << db.catalog().DescribeIndex(def);
  };
  verify(idx1);
  verify(idx2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DmlStormTest,
                         ::testing::Range<uint64_t>(1, 11));

// ---------- metamorphic: results independent of indexes ----------------------

class IndexIndependenceTest : public ::testing::TestWithParam<uint64_t> {};

std::string RandomQuery(Rng* rng) {
  // Random single-table query mixing eq / IN / BETWEEN / OR / ORDER BY.
  std::string sql = "SELECT id, score FROM users WHERE ";
  const int shape = static_cast<int>(rng->Uniform(5));
  auto eq = [&](const char* col, uint64_t ndv) {
    return std::string(col) + " = " + std::to_string(rng->Uniform(ndv));
  };
  switch (shape) {
    case 0:
      sql += eq("org_id", 100);
      break;
    case 1:
      sql += eq("org_id", 100) + " AND " + eq("status", 5);
      break;
    case 2:
      sql += "status IN (1, 3) AND created_at BETWEEN " +
             std::to_string(rng->Uniform(1000)) + " AND " +
             std::to_string(1000 + rng->Uniform(2000));
      break;
    case 3:
      sql += "(" + eq("org_id", 100) + " AND " + eq("status", 5) +
             ") OR (created_at BETWEEN 50 AND 90)";
      break;
    default:
      // ORDER BY a unique key: ties at the LIMIT boundary would make
      // two different answers equally correct.
      sql += "score > " + std::to_string(rng->Uniform(500)) +
             " ORDER BY id LIMIT 40";
      break;
  }
  return sql;
}

TEST_P(IndexIndependenceTest, SameRowsWithAndWithoutIndexes) {
  Rng rng(GetParam());
  storage::Database bare = MakeUsersDb(1500, GetParam() + 100);
  storage::Database indexed = bare;
  // A random pile of indexes on the indexed copy.
  const std::vector<std::vector<catalog::ColumnId>> pool = {
      {1}, {2}, {4}, {1, 2}, {2, 4}, {3, 4}, {2, 3, 4}, {1, 4}};
  for (const auto& cols : pool) {
    if (rng.Bernoulli(0.6)) {
      catalog::IndexDef def;
      def.table = 0;
      def.columns = cols;
      (void)indexed.CreateIndex(def);
    }
  }

  executor::Executor bare_exec(&bare, optimizer::CostModel());
  executor::Executor indexed_exec(&indexed, optimizer::CostModel());
  for (int q = 0; q < 8; ++q) {
    const std::string sql = RandomQuery(&rng);
    sql::Statement stmt = aim::testing::MustParse(sql);
    Result<executor::ExecuteResult> a = bare_exec.Execute(stmt);
    Result<executor::ExecuteResult> b = indexed_exec.Execute(stmt);
    ASSERT_TRUE(a.ok() && b.ok()) << sql;
    // Compare result multisets (ORDER BY ties make row order ambiguous).
    auto key_of = [](const storage::Row& row) {
      std::string k;
      for (const Value& v : row) k += v.ToSqlLiteral() + "|";
      return k;
    };
    std::multiset<std::string> rows_a;
    std::multiset<std::string> rows_b;
    for (const auto& row : a.ValueOrDie().rows) rows_a.insert(key_of(row));
    for (const auto& row : b.ValueOrDie().rows) rows_b.insert(key_of(row));
    EXPECT_EQ(rows_a, rows_b) << sql;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, IndexIndependenceTest,
                         ::testing::Range<uint64_t>(1, 16));

// ---------- parser robustness -------------------------------------------------

class ParserFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ParserFuzzTest, RandomTokenSoupNeverCrashes) {
  Rng rng(GetParam());
  const std::vector<std::string> pool = {
      "SELECT", "FROM",  "WHERE", "AND",   "OR",    "NOT",   "IN",
      "BETWEEN", "IS",   "NULL",  "LIKE",  "ORDER", "GROUP", "BY",
      "LIMIT",  "users", "id",    "org_id", "=",    "<",     ">",
      "(",      ")",     ",",     "5",     "'x'",   "?",     "*",
      "COUNT",  ".",     "<=>",   "!=",    "1.5",   "JOIN",  "ON"};
  for (int trial = 0; trial < 60; ++trial) {
    std::string sql;
    const int len = 1 + static_cast<int>(rng.Uniform(24));
    for (int t = 0; t < len; ++t) {
      sql += pool[rng.Uniform(pool.size())];
      sql += " ";
    }
    Result<sql::Statement> r = sql::Parse(sql);
    if (r.ok()) {
      // Anything accepted must round-trip through the printer.
      const std::string printed = sql::ToSql(r.ValueOrDie());
      Result<sql::Statement> again = sql::Parse(printed);
      ASSERT_TRUE(again.ok()) << "round-trip failed for: " << printed;
      EXPECT_EQ(printed, sql::ToSql(again.ValueOrDie()));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserFuzzTest,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace aim
