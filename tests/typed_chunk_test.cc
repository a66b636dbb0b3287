// Typed column chunks (DESIGN.md §18): heap chunks store one lane per
// column — a kind byte and an 8-byte payload per slot, plus a per-chunk
// string store — and every reader works off lanes through
// storage::ValueView. These tests pin the lanes to the sql::Value
// semantics they replace:
//   - every Value kind round-trips exactly (kind and bits: an int64 in a
//     double column, -0.0 vs 0.0, NaN, NULL, strings with NUL bytes and
//     past the small-string length), through updates, string-store
//     compaction and copies;
//   - ValueView::Compare equals sql::Value::Compare over a seeded
//     cross-product of kinds;
//   - keys encoded from lanes equal EncodeKey over the row's values;
//   - a copy-on-write first write leaves the other side's lanes and stamp
//     untouched;
//   - ANALYZE statistics equal a reference built from rows by value;
//   - encoded-key grouping yields the groups, in the order, of the row
//     oracle's std::map<Row, RowLess> sink, at 1/2/8 threads.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/aim.h"
#include "tests/row_oracle.h"
#include "tests/test_util.h"
#include "workload/tpch.h"

namespace aim {
namespace {

using sql::Value;
using storage::HeapTable;
using storage::Row;
using storage::RowId;
using storage::ValueView;

/// Exact identity: same kind and same bits (Value::operator== calls
/// -0.0 equal to 0.0 and NaN equal to any number).
bool Same(const Value& a, const Value& b) {
  if (a.kind() != b.kind()) return false;
  switch (a.kind()) {
    case Value::Kind::kInt64:
      return a.AsInt() == b.AsInt();
    case Value::Kind::kDouble:
      return std::bit_cast<uint64_t>(a.AsDouble()) ==
             std::bit_cast<uint64_t>(b.AsDouble());
    case Value::Kind::kString:
      return a.AsString() == b.AsString();
    default:
      return true;
  }
}

std::string Describe(const Value& v) {
  std::ostringstream out;
  out << "kind=" << static_cast<int>(v.kind());
  if (v.kind() == Value::Kind::kDouble) {
    out << " bits=" << std::hex << std::bit_cast<uint64_t>(v.AsDouble());
  } else if (v.kind() == Value::Kind::kString) {
    out << " len=" << v.AsString().size();
  } else if (v.kind() == Value::Kind::kInt64) {
    out << " int=" << v.AsInt();
  }
  return out.str();
}

void ExpectSameRow(const Row& got, const Row& want, const std::string& where) {
  ASSERT_EQ(got.size(), want.size()) << where;
  for (size_t c = 0; c < want.size(); ++c) {
    EXPECT_TRUE(Same(got[c], want[c]))
        << where << " column " << c << ": got " << Describe(got[c])
        << ", want " << Describe(want[c]);
  }
}

/// Every edge the lanes must keep apart or together.
std::vector<Value> EdgeValues() {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return {
      Value::Null(),
      Value::Int(0),
      Value::Int(-1),
      Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(std::numeric_limits<int64_t>::max()),
      Value::Int((int64_t{1} << 53) + 1),  // not a double
      Value::Real(0.0),
      Value::Real(-0.0),
      Value::Real(1.0),
      Value::Real(-2.5),
      Value::Real(nan),
      Value::Real(-nan),
      Value::Real(std::numeric_limits<double>::infinity()),
      Value::Real(-std::numeric_limits<double>::infinity()),
      Value::Real(std::numeric_limits<double>::denorm_min()),
      Value::Str(""),
      Value::Str("a"),
      Value::Str(std::string("a\0b", 3)),
      Value::Str(std::string("\0", 1)),
      Value::Str(std::string(15, 'x')),  // the SSO boundary
      Value::Str(std::string(16, 'x')),
      Value::Str(std::string(300, 'y') + std::string("\0z", 2)),
  };
}

/// A row of `width` values drawn from every kind.
Row RandomRow(Rng* rng, size_t width) {
  const std::vector<Value> edges = EdgeValues();
  Row row;
  for (size_t c = 0; c < width; ++c) {
    switch (rng->Uniform(4)) {
      case 0:
        row.push_back(edges[rng->Uniform(edges.size())]);
        break;
      case 1:
        row.push_back(Value::Int(static_cast<int64_t>(rng->Uniform(50)) - 25));
        break;
      case 2:
        row.push_back(
            Value::Real(static_cast<double>(rng->Uniform(50)) / 4.0 - 6.0));
        break;
      default: {
        std::string s(rng->Uniform(40), 'a');
        for (char& ch : s) ch = static_cast<char>(rng->Uniform(256));
        row.push_back(Value::Str(std::move(s)));
        break;
      }
    }
  }
  return row;
}

TEST(TypedChunkTest, EveryValueKindRoundTripsExactly) {
  HeapTable heap;
  std::vector<Row> want;
  // Each edge value in every column position, next to every other kind
  // (an int64 beside doubles is an int64 in a double column: lanes never
  // assume the column's type).
  const std::vector<Value> edges = EdgeValues();
  for (size_t i = 0; i < edges.size(); ++i) {
    Row row;
    for (size_t c = 0; c < edges.size(); ++c) {
      row.push_back(edges[(i + c) % edges.size()]);
    }
    want.push_back(row);
    heap.Insert(row);
  }
  Rng rng(41);
  for (int i = 0; i < 700; ++i) {  // spans three chunks
    want.push_back(RandomRow(&rng, edges.size()));
    heap.Insert(want.back());
  }
  for (RowId rid = 0; rid < want.size(); ++rid) {
    ExpectSameRow(heap.row(rid), want[rid], "row " + std::to_string(rid));
    for (size_t c = 0; c < want[rid].size(); ++c) {
      ASSERT_TRUE(Same(heap.value(rid, c).ToValue(), want[rid][c]));
      ASSERT_TRUE(Same(heap.slot(rid).value(c).ToValue(), want[rid][c]));
      ASSERT_TRUE(Same(ValueView::Of(want[rid][c]).ToValue(), want[rid][c]));
    }
  }

  // Updates: shorter strings reuse their bytes, longer ones append, and
  // repeated growth compacts the chunk's string store; every row still
  // reads back exactly.
  for (int round = 0; round < 60; ++round) {
    for (RowId rid = 0; rid < want.size(); rid += 7) {
      Row row = RandomRow(&rng, edges.size());
      row[round % row.size()] =
          Value::Str(std::string(static_cast<size_t>(round) * 9, 'g'));
      ASSERT_TRUE(heap.Update(rid, row).ok());
      want[rid] = row;
    }
  }
  for (RowId rid = 0; rid < want.size(); ++rid) {
    ExpectSameRow(heap.row(rid), want[rid],
                  "updated row " + std::to_string(rid));
  }
  // Scan builds the same rows.
  RowId next = 0;
  heap.Scan([&](RowId rid, const Row& row) {
    EXPECT_EQ(rid, next++);
    ExpectSameRow(row, want[rid], "scanned row " + std::to_string(rid));
    return true;
  });
  EXPECT_EQ(next, want.size());
}

TEST(TypedChunkTest, LaneCompareMirrorsValueCompare) {
  Rng rng(7);
  std::vector<Value> pool = EdgeValues();
  pool.push_back(Value::Max());
  for (int i = 0; i < 40; ++i) {
    const Row extra = RandomRow(&rng, 1);
    pool.push_back(extra[0]);
    pool.push_back(Value::Int(static_cast<int64_t>(rng.Uniform(9)) - 4));
    pool.push_back(Value::Real(static_cast<double>(rng.Uniform(9)) - 4.0));
  }
  // Views of Values and views read off lanes (Max is never stored).
  HeapTable heap;
  for (const Value& v : pool) heap.Insert(Row(1, v));
  for (size_t i = 0; i < pool.size(); ++i) {
    for (size_t j = 0; j < pool.size(); ++j) {
      const int want = pool[i].Compare(pool[j]);
      ASSERT_EQ(ValueView::Of(pool[i]).Compare(ValueView::Of(pool[j])), want)
          << Describe(pool[i]) << " vs " << Describe(pool[j]);
      ASSERT_EQ(heap.value(i, 0).Compare(heap.value(j, 0)), want)
          << Describe(pool[i]) << " vs " << Describe(pool[j]);
    }
  }
}

TEST(TypedChunkTest, LaneKeyEncodingMatchesEncodeKey) {
  storage::Database db;
  catalog::TableDef t;
  t.name = "t";
  for (int c = 0; c < 6; ++c) {
    catalog::ColumnDef col;
    col.name = "c" + std::to_string(c);
    t.columns.push_back(col);
  }
  const catalog::TableId table = db.CreateTable(t);
  Rng rng(19);
  std::vector<Row> rows;
  for (int i = 0; i < 600; ++i) {
    rows.push_back(RandomRow(&rng, 6));
    ASSERT_TRUE(db.InsertRow(table, rows.back()).ok());
  }
  const std::vector<std::vector<catalog::ColumnId>> keys = {
      {0}, {5}, {2, 3}, {4, 1, 0}, {0, 1, 2, 3, 4, 5}, {3, 3}};
  for (const auto& columns : keys) {
    catalog::IndexDef def;
    def.table = table;
    def.columns = columns;
    for (RowId rid = 0; rid < rows.size(); ++rid) {
      Row parts;
      for (catalog::ColumnId c : columns) parts.push_back(rows[rid][c]);
      ASSERT_EQ(db.MakeIndexKey(def, rid), storage::EncodeKey(parts)) << rid;
      ASSERT_EQ(db.MakeIndexKey(def, rid), db.MakeIndexKey(def, rows[rid]));
    }
    // A built index holds exactly those keys, in key order.
    Result<catalog::IndexId> id = db.CreateIndex(def);
    ASSERT_TRUE(id.ok()) << id.status().ToString();
    std::vector<std::pair<std::string, RowId>> want;
    for (RowId rid = 0; rid < rows.size(); ++rid) {
      want.emplace_back(db.MakeIndexKey(def, rows[rid]), rid);
    }
    std::stable_sort(want.begin(), want.end(), [](const auto& a, const auto& b) {
      return a.first < b.first;
    });
    std::vector<RowId> got;
    db.btree(id.ValueOrDie())->ScanAll([&](RowId rid) {
      got.push_back(rid);
      return true;
    });
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(db.MakeIndexKey(def, got[i]), want[i].first) << i;
    }
  }
}

TEST(TypedChunkTest, CowFirstWriteLeavesTheOtherSideUntouched) {
  Rng rng(5);
  HeapTable source;
  const RowId n = 2 * HeapTable::kChunkRows + 40;  // partial last chunk
  for (RowId i = 0; i < n; ++i) source.Insert(RandomRow(&rng, 5));
  std::vector<Row> before;
  for (RowId rid = 0; rid < n; ++rid) before.push_back(source.row(rid));
  const uint64_t stamp = source.stamp();

  HeapTable copy = source;
  const RowId second = HeapTable::kChunkRows;  // first slot of chunk 1
  for (const RowId rid : {RowId{0}, second, n - 1}) {
    EXPECT_EQ(copy.slot(rid).chunk, source.slot(rid).chunk)
        << "a copy shares its chunks";
  }
  // Writes on the copy: a longer string (appends to the string store), a
  // shorter one (rewrites in place), an append to the shared partial
  // chunk, and a delete.
  Row longer = copy.row(3);
  longer[0] = Value::Str(std::string(500, 'L'));
  ASSERT_TRUE(copy.Update(3, longer).ok());
  Row shorter = copy.row(4);
  shorter[1] = Value::Str("s");
  ASSERT_TRUE(copy.Update(4, shorter).ok());
  copy.Insert(RandomRow(&rng, 5));
  ASSERT_TRUE(copy.Delete(n - 1).ok());

  EXPECT_NE(copy.slot(3).chunk, source.slot(3).chunk);
  EXPECT_NE(copy.slot(n - 1).chunk, source.slot(n - 1).chunk);
  EXPECT_EQ(copy.slot(second).chunk, source.slot(second).chunk)
      << "an unwritten chunk stays shared";
  EXPECT_EQ(source.stamp(), stamp);
  EXPECT_NE(copy.stamp(), stamp);
  EXPECT_EQ(source.slot_count(), n);
  EXPECT_TRUE(source.IsLive(n - 1));
  for (RowId rid = 0; rid < n; ++rid) {
    ExpectSameRow(source.row(rid), before[rid],
                  "source row " + std::to_string(rid));
  }
  ExpectSameRow(copy.row(3), longer, "copy row 3");
  ExpectSameRow(copy.row(4), shorter, "copy row 4");

  // And the other way round: the source's write leaves the copy alone.
  const uint64_t copy_stamp = copy.stamp();
  const Row copy_second = copy.row(second);
  Row changed = source.row(second);
  changed[2] = Value::Real(-0.0);
  ASSERT_TRUE(source.Update(second, changed).ok());
  EXPECT_EQ(copy.stamp(), copy_stamp);
  ExpectSameRow(copy.row(second), copy_second, "copy row after source write");
  ExpectSameRow(source.row(second), changed, "source row after its write");
}

/// ANALYZE's statistics recomputed from rows built by value.
catalog::TableStats ReferenceStats(const storage::Database& db,
                                   catalog::TableId table, int buckets) {
  const storage::HeapTable& heap = db.heap(table);
  catalog::TableStats out;
  out.row_count = heap.live_count();
  const size_t width = db.catalog().table(table).columns.size();
  for (size_t c = 0; c < width; ++c) {
    std::vector<int64_t> sample;
    uint64_t nulls = 0;
    heap.Scan([&](RowId, const Row& row) {
      const Value& v = row[c];
      switch (v.kind()) {
        case Value::Kind::kNull:
          ++nulls;
          break;
        case Value::Kind::kInt64:
          sample.push_back(v.AsInt());
          break;
        case Value::Kind::kDouble:
          sample.push_back(static_cast<int64_t>(v.AsDouble()));
          break;
        case Value::Kind::kString: {
          uint64_t h = 1469598103934665603ULL;
          for (char ch : v.AsString()) {
            h ^= static_cast<uint8_t>(ch);
            h *= 1099511628211ULL;
          }
          sample.push_back(static_cast<int64_t>(h >> 1));
          break;
        }
        case Value::Kind::kMax:
          break;
      }
      return true;
    });
    catalog::ColumnStats stats =
        catalog::ColumnStats::FromSample(std::move(sample), 0, buckets);
    const uint64_t total = heap.live_count();
    stats.null_fraction =
        total == 0 ? 0.0 : static_cast<double>(nulls) / total;
    out.columns.push_back(stats);
  }
  return out;
}

void ExpectStatsIdentical(const catalog::TableStats& got,
                          const catalog::TableStats& want,
                          const std::string& table) {
  EXPECT_EQ(got.row_count, want.row_count) << table;
  ASSERT_EQ(got.columns.size(), want.columns.size()) << table;
  for (size_t c = 0; c < want.columns.size(); ++c) {
    const catalog::ColumnStats& g = got.columns[c];
    const catalog::ColumnStats& w = want.columns[c];
    EXPECT_EQ(g.ndv, w.ndv) << table << "." << c;
    EXPECT_EQ(std::bit_cast<uint64_t>(g.null_fraction),
              std::bit_cast<uint64_t>(w.null_fraction))
        << table << "." << c;
    EXPECT_EQ(g.min, w.min) << table << "." << c;
    EXPECT_EQ(g.max, w.max) << table << "." << c;
    EXPECT_EQ(g.histogram, w.histogram) << table << "." << c;
  }
}

TEST(TypedChunkTest, AnalyzeStatisticsMatchRowBuiltReference) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database tpch;
  workload::TpchOptions topt;
  topt.materialized_sf = 0.005;
  ASSERT_TRUE(workload::BuildTpch(&tpch, topt).ok());
  storage::Database users = aim::testing::MakeUsersDb(3000, 3);
  // Deletes and updates leave tombstones and rewritten lanes behind.
  for (RowId rid = 0; rid < 3000; rid += 5) {
    ASSERT_TRUE(users.DeleteRow(0, rid).ok());
  }
  for (RowId rid = 1; rid < 3000; rid += 5) {
    Row row = users.heap(0).row(rid);
    row[5] = rid % 2 == 0 ? Value::Null() : Value::Str("rewritten");
    ASSERT_TRUE(users.UpdateRow(0, rid, row).ok());
  }
  for (storage::Database* db : {&tpch, &users}) {
    for (const int buckets : {8, 32}) {
      db->AnalyzeAll(buckets);
      for (catalog::TableId t = 0; t < db->catalog().table_count(); ++t) {
        ExpectStatsIdentical(db->catalog().table(t).stats,
                             ReferenceStats(*db, t, buckets),
                             db->catalog().table(t).name);
      }
    }
  }
}

/// Rows in order, every value with its exact kind and bits.
std::string RowsSignature(const std::vector<Row>& rows) {
  std::ostringstream out;
  for (const Row& row : rows) {
    for (const Value& v : row) out << Describe(v) << ":" << v.ToSqlLiteral() << "|";
    out << "\n";
  }
  return out.str();
}

/// Runs every statement on the batch engine and the oracle, fanned over a
/// pool of `threads` workers, and demands identical rows in identical
/// order. Returns how many groups the batch engine produced.
size_t ExpectGroupsAgree(storage::Database* db,
                         const std::vector<std::string>& sqls, int threads) {
  common::ThreadPool pool(threads);
  std::vector<std::string> batch(sqls.size());
  std::vector<std::string> oracle(sqls.size());
  std::vector<size_t> groups(sqls.size(), 0);
  common::ParallelFor(&pool, sqls.size(), [&](size_t i) {
    Result<sql::Statement> stmt = sql::Parse(sqls[i]);
    if (!stmt.ok()) return;
    Result<executor::ExecuteResult> b =
        executor::Executor(db, optimizer::CostModel()).Execute(stmt.ValueOrDie());
    Result<executor::ExecuteResult> o =
        aim::testing::RowOracle(db, optimizer::CostModel())
            .Execute(stmt.ValueOrDie());
    if (b.ok()) {
      batch[i] = RowsSignature(b.ValueOrDie().rows);
      groups[i] = b.ValueOrDie().rows.size();
    }
    if (o.ok()) oracle[i] = RowsSignature(o.ValueOrDie().rows);
  });
  size_t total = 0;
  for (size_t i = 0; i < sqls.size(); ++i) {
    EXPECT_FALSE(batch[i].empty() && oracle[i].empty() && groups[i] != 0);
    EXPECT_EQ(batch[i], oracle[i]) << sqls[i] << " threads=" << threads;
    total += groups[i];
  }
  return total;
}

TEST(TypedChunkTest, EncodedKeyGroupsMatchRowLessSinkOnTpch) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db;
  workload::TpchOptions topt;
  topt.materialized_sf = 0.005;
  ASSERT_TRUE(workload::BuildTpch(&db, topt).ok());
  Result<workload::Workload> w = workload::TpchQueries();
  ASSERT_TRUE(w.ok());
  std::vector<std::string> grouped;
  for (const workload::Query& q : w.ValueOrDie().queries) {
    if (q.sql.find("GROUP BY") != std::string::npos ||
        q.sql.find("group by") != std::string::npos) {
      grouped.push_back(q.sql);
    }
  }
  ASSERT_FALSE(grouped.empty());
  for (const int threads : {1, 2, 8}) {
    EXPECT_GT(ExpectGroupsAgree(&db, grouped, threads), 0u);
  }
}

TEST(TypedChunkTest, EncodedKeyGroupsMatchRowLessSinkOnGeneratedWorkloads) {
  FaultRegistry::Instance().DisarmAll();
  Rng rng(29);
  std::vector<std::string> sqls = {
      "SELECT status, COUNT(*) FROM users GROUP BY status",
      "SELECT org_id, status, MIN(score), MAX(score), SUM(score) FROM users "
      "WHERE score > 300 GROUP BY org_id, status",
      "SELECT email, COUNT(*) FROM users GROUP BY email",
      "SELECT status, MIN(email), MAX(email), AVG(created_at) FROM users "
      "GROUP BY status",
      "SELECT COUNT(*), MIN(email) FROM users WHERE org_id = 100000",
  };
  static constexpr const char* kCols[] = {"org_id", "status", "score",
                                          "created_at", "email"};
  for (int i = 0; i < 60; ++i) {
    const char* a = kCols[rng.Uniform(5)];
    const char* b = kCols[rng.Uniform(5)];
    sqls.push_back(std::string("SELECT ") + a + ", " + b +
                   ", COUNT(*), MIN(score), MAX(email) FROM users WHERE "
                   "org_id < " +
                   std::to_string(rng.Uniform(100)) + " GROUP BY " + a + ", " +
                   b);
  }
  storage::Database heap_db = aim::testing::MakeUsersDb(1500, 11);
  storage::Database tuned = heap_db;
  workload::Workload w;
  for (const std::string& sql : sqls) ASSERT_TRUE(w.Add(sql, 1.0).ok()) << sql;
  core::AimOptions options;
  options.num_threads = 2;
  ASSERT_TRUE(core::AutomaticIndexManager(&tuned, optimizer::CostModel(),
                                          options)
                  .RunOnce(w, nullptr)
                  .ok());

  // Mixed kinds in one column: Int(1) and Real(1.0), -0.0 and 0, NULL and
  // strings with NUL bytes must group as the RowLess map groups them.
  storage::Database mixed;
  catalog::TableDef t;
  t.name = "m";
  for (const char* name : {"k", "v"}) {
    catalog::ColumnDef col;
    col.name = name;
    t.columns.push_back(col);
  }
  mixed.CreateTable(t);
  const std::vector<Value> keys = {
      Value::Int(1),  Value::Real(1.0),          Value::Real(-0.0),
      Value::Int(0),  Value::Null(),             Value::Str("x"),
      Value::Str(std::string("x\0y", 3)),        Value::Str(""),
      Value::Real(2.5), Value::Int(-7)};
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(mixed
                    .InsertRow(0, {keys[rng.Uniform(keys.size())],
                                   Value::Int(static_cast<int64_t>(i))})
                    .ok());
  }
  const std::vector<std::string> mixed_sqls = {
      "SELECT k, COUNT(*), MIN(v), MAX(v) FROM m GROUP BY k",
      "SELECT k, v, COUNT(*) FROM m WHERE v < 40 GROUP BY k, v",
      "SELECT MIN(k), MAX(k), COUNT(*) FROM m",
  };

  for (const int threads : {1, 2, 8}) {
    EXPECT_GT(ExpectGroupsAgree(&heap_db, sqls, threads), 0u);
    EXPECT_GT(ExpectGroupsAgree(&tuned, sqls, threads), 0u);
    EXPECT_GT(ExpectGroupsAgree(&mixed, mixed_sqls, threads), 0u);
  }
}

}  // namespace
}  // namespace aim
