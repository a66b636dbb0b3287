// Row-vs-batch differential suite: the vectorized batch executor must be
// *bit-identical* to the row-at-a-time interpreter — same rows in the
// same order, and the same ExecutionMetrics down to the last bit of
// cost_units / cpu_seconds (doubles compare in hexfloat, so "close"
// never passes for "identical"). Per-operator batch counters are
// observational and deliberately excluded, like tracing spans.
//
// Coverage: the 22 TPC-H templates (heap and AIM-tuned), seeded random
// query storms over a tuned single-table schema, hand-written edge
// statements (skip scans, index-merge ORs, IS NULL, LIKE, '?' params,
// LIMIT early-stop), TPC-C analytical probes with interleaved DML on
// database copies, and whole AIM pipeline runs replayed under either
// engine at 1/2/8 threads with the what-if cache on and off.
//
// Run with `ctest -L batch` (and under TSan: AIM_SANITIZE=thread).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/aim.h"
#include "executor/executor.h"
#include "sql/parser.h"
#include "tests/test_util.h"
#include "workload/tpcc_oltp.h"
#include "workload/tpch.h"

namespace aim {
namespace {

using aim::testing::MakeOrdersDb;
using aim::testing::MakeUsersDb;
using aim::testing::MustParse;

// ---------------------------------------------------------------------------
// Signatures

/// Everything observable about one execution except the per-operator
/// batch counters: output rows in exact order, every metric counter, the
/// used-index sequence, and the cost doubles in hexfloat.
std::string ResultSignature(const executor::ExecuteResult& r) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const storage::Row& row : r.rows) {
    for (const sql::Value& v : row) out << v.ToSqlLiteral() << "|";
    out << "\n";
  }
  const executor::ExecutionMetrics& m = r.metrics;
  out << "examined=" << m.rows_examined
      << " idx_read=" << m.index_entries_read
      << " heap_read=" << m.heap_rows_read << " pk=" << m.pk_lookups
      << " sent=" << m.rows_sent << " modified=" << m.rows_modified
      << " idx_written=" << m.index_entries_written
      << " sorted=" << m.rows_sorted << "\n";
  out << "cost=" << m.cost_units << " cpu=" << m.cpu_seconds << "\n";
  out << "used=";
  for (catalog::IndexId id : m.used_indexes) out << id << ",";
  out << "\n";
  return out.str();
}

executor::ExecutorOptions EngineOptions(executor::EngineKind kind) {
  executor::ExecutorOptions options;
  options.engine = kind;
  return options;
}

/// Executes `sql` under both engines against the same database and
/// demands identical signatures. Returns the batch result for callers
/// that want to assert more.
executor::ExecuteResult ExpectEnginesAgree(storage::Database* db,
                                           const std::string& sql) {
  const sql::Statement stmt = MustParse(sql);
  executor::Executor row_exec(
      db, optimizer::CostModel(),
      EngineOptions(executor::EngineKind::kRowAtATime));
  executor::Executor batch_exec(
      db, optimizer::CostModel(),
      EngineOptions(executor::EngineKind::kBatch));
  Result<executor::ExecuteResult> row = row_exec.Execute(stmt);
  Result<executor::ExecuteResult> batch = batch_exec.Execute(stmt);
  EXPECT_TRUE(row.ok()) << sql << ": " << row.status().ToString();
  EXPECT_TRUE(batch.ok()) << sql << ": " << batch.status().ToString();
  if (!row.ok() || !batch.ok()) return executor::ExecuteResult{};
  EXPECT_EQ(ResultSignature(row.ValueOrDie()),
            ResultSignature(batch.ValueOrDie()))
      << sql;
  return batch.MoveValue();
}

/// Installs AIM's recommendation for `w` on `db` (so the comparisons
/// exercise real index paths, not just heap scans).
void TuneFor(storage::Database* db, const workload::Workload& w) {
  core::AimOptions options;
  options.num_threads = 2;
  core::AutomaticIndexManager aim(db, optimizer::CostModel(), options);
  Result<core::AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
}

// ---------------------------------------------------------------------------
// TPC-H templates

TEST(BatchEquivalenceTest, TpchTemplatesHeapAndTuned) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db;
  workload::TpchOptions topt;
  topt.materialized_sf = 0.005;
  ASSERT_TRUE(workload::BuildTpch(&db, topt).ok());
  Result<workload::Workload> w = workload::TpchQueries();
  ASSERT_TRUE(w.ok());

  uint64_t rows_total = 0;
  for (const workload::Query& q : w.ValueOrDie().queries) {
    rows_total += ExpectEnginesAgree(&db, q.sql).rows.size();
  }
  EXPECT_GT(rows_total, 0u) << "every TPC-H template came back empty";

  // Same templates against the configuration AIM recommends for them:
  // join steps become batched index probes instead of scans.
  TuneFor(&db, w.ValueOrDie());
  uint64_t index_entries = 0;
  for (const workload::Query& q : w.ValueOrDie().queries) {
    index_entries +=
        ExpectEnginesAgree(&db, q.sql).metrics.index_entries_read;
  }
  EXPECT_GT(index_entries, 0u)
      << "tuned TPC-H run never took an index path";
}

// ---------------------------------------------------------------------------
// Seeded random storms (single-table) + join shapes

class BatchOracleTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BatchOracleTest, RandomQueriesAgree) {
  FaultRegistry::Instance().DisarmAll();
  constexpr uint64_t kRows = 1500;
  Rng rng(GetParam());

  // The oracle_test generator grammar, inlined: random conjunctions /
  // disjunctions of =, <, >, BETWEEN, IN, LIKE over the users columns,
  // with occasional aggregates and ORDER BY.
  auto int_col = [&](uint64_t* domain) -> std::string {
    static constexpr const char* kNames[] = {"id", "org_id", "status",
                                             "score", "created_at"};
    const uint64_t domains[] = {kRows, 100, 5, 1000, kRows};
    const size_t i = rng.Uniform(5);
    *domain = domains[i];
    return kNames[i];
  };
  auto predicate = [&]() -> std::string {
    uint64_t domain = 0;
    const std::string col = int_col(&domain);
    const auto lit = [&]() {
      return std::to_string(rng.Uniform(
          rng.Bernoulli(0.1) ? domain * 2 + 1 : domain));
    };
    switch (rng.Uniform(6)) {
      case 0:
        return col + " = " + lit();
      case 1:
        return col + " < " + lit();
      case 2:
        return col + " > " + lit();
      case 3: {
        const uint64_t lo = rng.Uniform(domain);
        return col + " BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(lo + 1 + rng.Uniform(domain / 4 + 1));
      }
      case 4: {
        std::string in = col + " IN (";
        const int n = 2 + static_cast<int>(rng.Uniform(3));
        for (int i = 0; i < n; ++i) {
          if (i > 0) in += ", ";
          in += lit();
        }
        return in + ")";
      }
      default:
        return "email LIKE 'user" + std::to_string(rng.Uniform(10)) + "%'";
    }
  };
  auto where = [&]() {
    std::string out = predicate();
    const int extra = static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < extra; ++i) {
      if (rng.Bernoulli(0.25)) {
        out = "(" + out + ") OR (" + predicate() + ")";
      } else {
        out += " AND " + predicate();
      }
    }
    return out;
  };
  auto next_query = [&]() -> std::string {
    if (rng.Bernoulli(0.1)) {
      if (rng.Bernoulli(0.5)) {
        return "SELECT status, COUNT(*) FROM users WHERE " + where() +
               " GROUP BY status";
      }
      return "SELECT MIN(score), MAX(score), COUNT(*) FROM users WHERE " +
             where();
    }
    static constexpr const char* kCols[] = {"id",         "org_id",
                                            "status",     "score",
                                            "created_at", "email"};
    std::string cols;
    const int n = 1 + static_cast<int>(rng.Uniform(3));
    for (int i = 0; i < n; ++i) {
      if (i > 0) cols += ", ";
      cols += kCols[rng.Uniform(6)];
    }
    std::string sql = "SELECT " + cols + " FROM users WHERE " + where();
    if (rng.Bernoulli(0.2)) {
      sql += std::string(" ORDER BY ") + kCols[rng.Uniform(6)];
      if (rng.Bernoulli(0.5)) sql += " DESC";
      // LIMIT is safe here (unlike the config oracle): both engines run
      // the *same* plan, so tie-breaks are deterministic and must match.
      if (rng.Bernoulli(0.5)) {
        sql += " LIMIT " + std::to_string(1 + rng.Uniform(20));
      }
    } else if (rng.Bernoulli(0.15)) {
      sql += " LIMIT " + std::to_string(1 + rng.Uniform(20));
    }
    return sql;
  };

  constexpr int kQueries = 220;
  workload::Workload w;
  std::vector<std::string> queries;
  queries.reserve(kQueries);
  for (int i = 0; i < kQueries; ++i) {
    std::string sql = next_query();
    ASSERT_TRUE(w.Add(sql, 1.0).ok()) << sql;
    queries.push_back(std::move(sql));
  }

  storage::Database heap_db = MakeUsersDb(kRows, GetParam() + 31);
  storage::Database tuned_db = heap_db;
  TuneFor(&tuned_db, w);

  uint64_t tuned_index_entries = 0;
  for (const std::string& sql : queries) {
    ExpectEnginesAgree(&heap_db, sql);
    tuned_index_entries +=
        ExpectEnginesAgree(&tuned_db, sql).metrics.index_entries_read;
  }
  EXPECT_GT(tuned_index_entries, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatchOracleTest,
                         ::testing::Values<uint64_t>(1, 2, 3));

TEST(BatchEquivalenceTest, JoinShapesAgree) {
  FaultRegistry::Instance().DisarmAll();
  Rng rng(17);
  workload::Workload w;
  std::vector<std::string> queries;
  for (int i = 0; i < 40; ++i) {
    std::string sql =
        "SELECT users.id, orders.total FROM users, orders WHERE "
        "users.id = orders.user_id AND orders.status = " +
        std::to_string(rng.Uniform(5));
    if (rng.Bernoulli(0.5)) {
      sql += " AND users.org_id = " + std::to_string(rng.Uniform(100));
    }
    ASSERT_TRUE(w.Add(sql, 1.0).ok());
    queries.push_back(std::move(sql));
  }
  storage::Database db = MakeOrdersDb(800, 4000, 11);
  TuneFor(&db, w);
  uint64_t index_entries = 0;
  for (const std::string& sql : queries) {
    index_entries +=
        ExpectEnginesAgree(&db, sql).metrics.index_entries_read;
  }
  // Join probes must actually be index probes somewhere (the batched
  // sorted-probe path), or this test degenerates to scans only.
  EXPECT_GT(index_entries, 0u);
}

// ---------------------------------------------------------------------------
// Hand-written edge shapes: skip scan, index merge, IS NULL, params,
// LIMIT early-stop.

TEST(BatchEquivalenceTest, EdgeShapesAgree) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(4000, 5);
  // (status, created_at): first column low-NDV -> skip-scan candidate.
  catalog::IndexDef skip;
  skip.table = 0;
  skip.columns = {2, 4};
  ASSERT_TRUE(db.CreateIndex(skip).ok());
  // Single-column indexes on org_id and score -> OR index-merge fodder.
  catalog::IndexDef org;
  org.table = 0;
  org.columns = {1};
  ASSERT_TRUE(db.CreateIndex(org).ok());
  catalog::IndexDef score;
  score.table = 0;
  score.columns = {3};
  ASSERT_TRUE(db.CreateIndex(score).ok());

  const char* kStatements[] = {
      // Skip scan (leading column unconstrained).
      "SELECT id FROM users WHERE created_at = 1234",
      "SELECT id, status FROM users WHERE created_at BETWEEN 100 AND 160",
      // Index merge over the OR arms.
      "SELECT id FROM users WHERE org_id = 3 OR score = 512",
      "SELECT id FROM users WHERE org_id = 7 OR org_id = 9 OR score < 4",
      // IS NULL / IS NOT NULL.
      "SELECT id FROM users WHERE email IS NULL",
      "SELECT id FROM users WHERE email IS NOT NULL AND org_id = 3",
      // LIKE with '_' and non-prefix '%'.
      "SELECT id FROM users WHERE email LIKE '%user1_@%'",
      // '?' params never bind: both engines must reject every row the
      // same way (and charge the same scan costs doing it).
      "SELECT id FROM users WHERE org_id = ?",
      "SELECT id FROM users WHERE org_id = 3 AND score > ?",
      // LIMIT without sort: the strict early-stop path.
      "SELECT id FROM users WHERE status = 2 LIMIT 7",
      "SELECT id FROM users WHERE org_id = 3 LIMIT 1",
      "SELECT id FROM users LIMIT 13",
      // LIMIT with sort: bulk path + finalization truncation.
      "SELECT id, score FROM users WHERE status = 2 ORDER BY score DESC "
      "LIMIT 5",
      // Grouping with and without matching rows.
      "SELECT org_id, COUNT(*) FROM users WHERE score > 900 "
      "GROUP BY org_id",
      "SELECT COUNT(*) FROM users WHERE org_id = 100000",
      // Duplicate IN literals (deduped per probe, kept per filter).
      "SELECT id FROM users WHERE org_id IN (9, 3, 9)",
  };
  for (const char* sql : kStatements) {
    ExpectEnginesAgree(&db, sql);
  }
}

// ---------------------------------------------------------------------------
// TPC-C: analytical probes + interleaved DML on database copies

TEST(BatchEquivalenceTest, TpccAnalyticalWithInterleavedDml) {
  FaultRegistry::Instance().DisarmAll();
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  Rng rng(23);
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(tpcc.NewOrder(&rng).ok());
    if (i % 3 == 0) {
      ASSERT_TRUE(tpcc.Payment(&rng).ok());
    }
    if (i % 7 == 0) {
      ASSERT_TRUE(tpcc.Delivery(&rng).ok());
    }
  }
  Result<workload::Workload> w = tpcc.AnalyticalWorkload();
  ASSERT_TRUE(w.ok());
  for (const workload::Query& q : w.ValueOrDie().queries) {
    ExpectEnginesAgree(&tpcc.db(), q.sql);
  }
}

TEST(BatchEquivalenceTest, DmlSequencesKeepCopiesIdentical) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(1200, 3);
  // Two copies, each driven by a different SELECT engine; DML shares one
  // code path but its locate step must behave identically, and every
  // SELECT in between must see the same mutated heap.
  storage::Database db_row = base;
  storage::Database db_batch = base;
  executor::Executor row_exec(
      &db_row, optimizer::CostModel(),
      EngineOptions(executor::EngineKind::kRowAtATime));
  executor::Executor batch_exec(
      &db_batch, optimizer::CostModel(),
      EngineOptions(executor::EngineKind::kBatch));

  const char* kScript[] = {
      "SELECT id, score FROM users WHERE org_id = 3",
      "UPDATE users SET score = 1 WHERE org_id = 3",
      "SELECT id, score FROM users WHERE org_id = 3",
      "DELETE FROM users WHERE status = 4 AND score > 800",
      "SELECT COUNT(*) FROM users WHERE status = 4",
      "INSERT INTO users (id, org_id, status, score, created_at) "
      "VALUES (999991, 3, 2, 512, 77)",
      "SELECT id FROM users WHERE org_id = 3 AND score = 512",
      "UPDATE users SET status = 0 WHERE score < 10",
      "SELECT status, COUNT(*) FROM users WHERE score < 20 "
      "GROUP BY status",
      // Heap fingerprint: the whole surviving table, both engines.
      "SELECT id, org_id, status, score, created_at FROM users "
      "ORDER BY id",
  };
  for (const char* sql : kScript) {
    const sql::Statement stmt = MustParse(sql);
    Result<executor::ExecuteResult> a = row_exec.Execute(stmt);
    Result<executor::ExecuteResult> b = batch_exec.Execute(stmt);
    ASSERT_TRUE(a.ok()) << sql << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << sql << ": " << b.status().ToString();
    EXPECT_EQ(ResultSignature(a.ValueOrDie()),
              ResultSignature(b.ValueOrDie()))
        << sql;
  }
}

// ---------------------------------------------------------------------------
// Whole-pipeline equivalence: the AIM run's validation replay under
// either engine, across thread counts and cache settings.

std::string PipelineSignature(const storage::Database& base,
                              const workload::Workload& w,
                              executor::EngineKind engine, int threads,
                              size_t cache_entries) {
  storage::Database db = base;
  core::AimOptions options;
  options.num_threads = threads;
  options.what_if_cache_entries = cache_entries;
  options.validation.replay_engine = engine;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<core::AimReport> r = aim.RunOnce(w, nullptr);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  const core::AimReport& report = r.ValueOrDie();
  std::ostringstream out;
  out << std::hexfloat;
  for (const core::CandidateIndex& c : report.recommended) {
    out << "idx t" << c.def.table;
    for (catalog::ColumnId col : c.def.columns) out << "," << col;
    out << " benefit=" << c.benefit << " maint=" << c.maintenance << "\n";
  }
  for (const core::QueryValidation& v : report.validation.per_query) {
    out << "q" << v.fingerprint << " before=" << v.cpu_before
        << " after=" << v.cpu_after << " imp=" << v.improved
        << " reg=" << v.regressed << "\n";
  }
  out << "exec=" << report.validation.executed
      << " failed=" << report.validation.failed << "\n";
  for (const catalog::IndexDef* idx :
       db.catalog().AllIndexes(false, true)) {
    out << "final t" << idx->table;
    for (catalog::ColumnId col : idx->columns) out << "," << col;
    out << "\n";
  }
  return out.str();
}

TEST(BatchEquivalenceTest, PipelineBitIdenticalAcrossEngines) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, 7);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 3", 50.0).ok());
  ASSERT_TRUE(
      w.Add("SELECT email FROM users WHERE status = 2 AND score > 500",
            20.0)
          .ok());
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE created_at BETWEEN 10 AND 40",
            10.0)
          .ok());
  ASSERT_TRUE(
      w.Add("UPDATE users SET score = 1 WHERE org_id = 3", 4.0).ok());

  for (size_t cache : {size_t{4096}, size_t{0}}) {
    const std::string row_serial = PipelineSignature(
        base, w, executor::EngineKind::kRowAtATime, 1, cache);
    ASSERT_NE(row_serial.find("idx "), std::string::npos)
        << "pipeline recommended nothing:\n"
        << row_serial;
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(row_serial,
                PipelineSignature(base, w, executor::EngineKind::kBatch,
                                  threads, cache))
          << "threads=" << threads << " cache=" << cache;
      EXPECT_EQ(row_serial,
                PipelineSignature(base, w,
                                  executor::EngineKind::kRowAtATime,
                                  threads, cache))
          << "threads=" << threads << " cache=" << cache;
    }
  }
}

}  // namespace
}  // namespace aim
