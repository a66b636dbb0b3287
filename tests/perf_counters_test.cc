// Deterministic work counters of one tuning interval, pinned exactly.
//
// One seeded serial RunOnce on TPC-H (SF 0.001 materialized, SF 10
// statistics, two shuffled streams of the 22 templates), then the
// selected workload replayed on the untuned copy (control) and on the
// tuned database (test). Every counter below is a pure function of the
// code's decisions and its storage visit order, never of the hardware:
// a drift means the tuning decisions, the plans or the index tie order
// changed. Updating an expectation is an explicit, reviewed edit — a
// storage or executor optimization must pass this file unchanged.
//
// Run with `ctest -L perf_counters`.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/aim.h"
#include "executor/executor.h"
#include "workload/tpch.h"

namespace aim {
namespace {

/// The checked-in expectation.
const std::map<std::string, uint64_t>& Expected() {
  static const std::map<std::string, uint64_t> kExpected = {
      {"whatif_calls", 49},
      {"candidates_evaluated", 207},
      {"indexes_recommended", 26},
      {"indexes_rejected", 4},
      {"control.rows_examined", 154318},
      {"control.index_entries_read", 35978},
      {"control.rows_sent", 646},
      {"control.rows_hash", 12318575446318961737ULL},
      {"test.rows_examined", 42112},
      {"test.index_entries_read", 42062},
      {"test.rows_sent", 646},
      {"test.rows_hash", 12318575446318961737ULL},
      {"index_entries_built", 61555},
  };
  return kExpected;
}

/// FNV-1a over the returned rows in order: pins the visit (tie) order of
/// every index read, not only how many entries were read.
void HashRows(const std::vector<storage::Row>& rows, uint64_t* h) {
  for (const storage::Row& row : rows) {
    for (const sql::Value& v : row) {
      for (const char c : v.ToSqlLiteral() + "|") {
        *h ^= static_cast<uint8_t>(c);
        *h *= 1099511628211ULL;
      }
    }
  }
}

TEST(PerfCountersTest, TpchIntervalCountersMatchExpectation) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database base;
  workload::TpchOptions topt;
  topt.materialized_sf = 0.001;
  topt.stats_sf = 10.0;
  ASSERT_TRUE(workload::BuildTpch(&base, topt).ok());
  workload::Workload w;
  Rng order(1);
  for (int stream = 0; stream < 2; ++stream) {
    Result<workload::Workload> templates = workload::TpchQueries();
    ASSERT_TRUE(templates.ok());
    std::vector<workload::Query> queries = templates.MoveValue().queries;
    order.Shuffle(&queries);
    for (workload::Query& q : queries) w.queries.push_back(std::move(q));
  }

  storage::Database tuned = base;
  core::AimOptions options;
  options.num_threads = 1;
  core::AutomaticIndexManager aim(&tuned, optimizer::CostModel(), options);
  Result<core::AimReport> report = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  const core::AimRunStats& s = report.ValueOrDie().stats;

  std::map<std::string, uint64_t> actual;
  actual["whatif_calls"] = s.what_if_calls;
  actual["candidates_evaluated"] = s.candidates_evaluated;
  actual["indexes_recommended"] = s.indexes_recommended;
  actual["indexes_rejected"] = s.indexes_rejected_by_validation;

  storage::Database control = base;
  const auto replay = [&](storage::Database* db, const std::string& name) {
    executor::Executor exec(db, optimizer::CostModel());
    executor::ExecutionMetrics sum;
    uint64_t hash = 1469598103934665603ULL;
    for (const core::SelectedQuery& sq :
         report.ValueOrDie().selected_workload) {
      Result<executor::ExecuteResult> r = exec.Execute(sq.query->stmt);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      sum.MergeFrom(r.ValueOrDie().metrics);
      HashRows(r.ValueOrDie().rows, &hash);
    }
    actual[name + ".rows_examined"] = sum.rows_examined;
    actual[name + ".index_entries_read"] = sum.index_entries_read;
    actual[name + ".rows_sent"] = sum.rows_sent;
    actual[name + ".rows_hash"] = hash;
  };
  replay(&control, "control");
  replay(&tuned, "test");

  uint64_t built = 0;
  for (const catalog::IndexDef* idx :
       tuned.catalog().AllIndexes(false, false)) {
    if (!idx->created_by_automation) continue;
    const storage::BTreeIndex* tree = tuned.btree(idx->id);
    ASSERT_NE(tree, nullptr) << tuned.catalog().DescribeIndex(*idx);
    built += tree->entry_count();
  }
  actual["index_entries_built"] = built;

  for (const auto& [name, value] : actual) {
    std::printf("perf_counter %s %llu\n", name.c_str(),
                static_cast<unsigned long long>(value));
  }
  EXPECT_EQ(actual, Expected());
}

}  // namespace
}  // namespace aim
