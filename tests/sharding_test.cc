#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "core/sharding.h"
#include "executor/executor.h"
#include "tests/test_util.h"

namespace aim::core {
namespace {

using aim::testing::ExpectAutomationIndexesMatchFreshBuilds;
using aim::testing::IndexSignature;
using aim::testing::MakeUsersDb;

/// Builds `n` schema-identical shards with different seeds (different row
/// contents, same distributions).
std::vector<storage::Database> MakeShards(int n, uint64_t rows = 2000) {
  std::vector<storage::Database> dbs;
  for (int i = 0; i < n; ++i) {
    dbs.push_back(MakeUsersDb(rows, /*seed=*/100 + i));
  }
  return dbs;
}

std::vector<Shard> Wrap(std::vector<storage::Database>* dbs,
                        const std::vector<workload::WorkloadMonitor>*
                            monitors = nullptr) {
  std::vector<Shard> shards;
  for (size_t i = 0; i < dbs->size(); ++i) {
    Shard s;
    s.db = &(*dbs)[i];
    if (monitors != nullptr && i < monitors->size()) {
      s.monitor = &(*monitors)[i];
    }
    shards.push_back(s);
  }
  return shards;
}

TEST(ShardingTest, RecommendAggregatesStatsAcrossShards) {
  std::vector<storage::Database> dbs = MakeShards(3);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 1.0).ok());

  // The query is hot on shard 0 only; per-shard stats alone would be
  // below threshold, but the aggregate clears it.
  std::vector<workload::WorkloadMonitor> monitors(3);
  executor::ExecutionMetrics m;
  m.rows_examined = 2000;
  m.rows_sent = 20;
  m.cpu_seconds = 0.5;
  for (int i = 0; i < 120; ++i) {
    monitors[0].RecordKeyed(w.queries[0].fingerprint,
                            w.queries[0].normalized_sql, m);
  }

  ShardedOptions options;
  options.aim.selection.min_executions = 50;
  options.aim.selection.min_benefit_cores = 1e-9;
  ShardedIndexManager manager(options);
  std::vector<Shard> shards = Wrap(&dbs, &monitors);
  Result<ShardedReport> r =
      manager.Recommend(w, shards, optimizer::CostModel());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_FALSE(r.ValueOrDie().aim.recommended.empty());
}

TEST(ShardingTest, ReplicationFactorTightensBudget) {
  // An index that fits a budget once does not fit when every shard must
  // store it.
  std::vector<storage::Database> dbs = MakeShards(4);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 100.0).ok());

  const double one_copy_bytes =
      dbs[0].catalog().IndexSizeBytes([&] {
        catalog::IndexDef def;
        def.table = 0;
        def.columns = {1};
        return def;
      }());

  ShardedOptions options;
  options.aim.ranking.storage_budget_bytes = one_copy_bytes * 2.0;
  ShardedIndexManager manager(options);
  std::vector<Shard> shards = Wrap(&dbs);
  Result<ShardedReport> r =
      manager.Recommend(w, shards, optimizer::CostModel());
  ASSERT_TRUE(r.ok());
  // 4 shards x size > 2 x size: nothing fits.
  EXPECT_TRUE(r.ValueOrDie().aim.recommended.empty());

  // The same budget with a single shard accepts the index.
  std::vector<Shard> single = {Shard{&dbs[0], nullptr}};
  Result<ShardedReport> r1 =
      manager.Recommend(w, single, optimizer::CostModel());
  ASSERT_TRUE(r1.ok());
  EXPECT_FALSE(r1.ValueOrDie().aim.recommended.empty());
}

TEST(ShardingTest, RunOnceAppliesCommonDesignEverywhere) {
  std::vector<storage::Database> dbs = MakeShards(3);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 100.0).ok());
  ShardedIndexManager manager;
  std::vector<Shard> shards = Wrap(&dbs);
  Result<ShardedReport> r =
      manager.RunOnce(w, shards, optimizer::CostModel());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_FALSE(r.ValueOrDie().aim.recommended.empty());
  for (const storage::Database& db : dbs) {
    EXPECT_EQ(db.catalog().AllIndexes(false, false).size(),
              r.ValueOrDie().aim.recommended.size());
  }
}

TEST(ShardingTest, ComprehensiveValidationCoversAllShards) {
  std::vector<storage::Database> dbs = MakeShards(3, 1500);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 100.0).ok());
  ShardedOptions options;
  options.comprehensive_validation = true;
  ShardedIndexManager manager(options);
  std::vector<Shard> shards = Wrap(&dbs);
  Result<ShardedReport> r =
      manager.RunOnce(w, shards, optimizer::CostModel());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie().validations.size(), 3u);
  // Default validation covers only the first shard.
  ShardedIndexManager cheap;
  std::vector<storage::Database> dbs2 = MakeShards(3, 1500);
  std::vector<Shard> shards2 = Wrap(&dbs2);
  Result<ShardedReport> r2 =
      cheap.RunOnce(w, shards2, optimizer::CostModel());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.ValueOrDie().validations.size(), 1u);
}

TEST(ShardingTest, UnusedEverywhereRejected) {
  std::vector<storage::Database> dbs = MakeShards(2);
  workload::Workload w;
  // The workload never filters payload; force a payload candidate by
  // running RunOnce on a workload that generates it plus one that uses
  // org_id.
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 100.0).ok());
  ShardedOptions options;
  options.comprehensive_validation = true;
  ShardedIndexManager manager(options);
  std::vector<Shard> shards = Wrap(&dbs);
  Result<ShardedReport> r =
      manager.RunOnce(w, shards, optimizer::CostModel());
  ASSERT_TRUE(r.ok());
  // Everything materialized must be used by the validation replay.
  for (const auto& v : r.ValueOrDie().validations) {
    EXPECT_TRUE(v.result.rejected_unused.empty());
  }
}

TEST(ShardingTest, NoShardsIsAnError) {
  workload::Workload w;
  ShardedIndexManager manager;
  Result<ShardedReport> r =
      manager.Recommend(w, {}, optimizer::CostModel());
  EXPECT_FALSE(r.ok());
}

// ---------- Build-once sharded apply ----------------------------------------

/// Read-only, so every validated shard's test clone keeps production's
/// heaps and the apply can adopt its trees.
workload::Workload ReadOnlyWorkload() {
  workload::Workload w;
  EXPECT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 100.0).ok());
  EXPECT_TRUE(
      w.Add("SELECT email FROM users WHERE status = 2 AND score > 500",
            50.0)
          .ok());
  return w;
}

TEST(ShardedAdoptionTest, ComprehensiveValidationAdoptsOnEveryShard) {
  FaultRegistry::Instance().DisarmAll();
  for (int threads : {1, 4}) {
    std::vector<storage::Database> dbs = MakeShards(3);
    const std::vector<storage::Database> untouched = dbs;
    ShardedOptions options;
    options.comprehensive_validation = true;
    options.aim.num_threads = threads;
    ShardedIndexManager manager(options);
    std::vector<Shard> shards = Wrap(&dbs);
    Result<ShardedReport> r =
        manager.RunOnce(ReadOnlyWorkload(), shards, optimizer::CostModel());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ShardedReport& report = r.ValueOrDie();
    const size_t applied = report.aim.recommended.size();
    ASSERT_GE(applied, 1u);
    // Every shard validated, so every shard adopts every applied index.
    EXPECT_EQ(report.aim.stats.indexes_adopted, dbs.size() * applied)
        << "threads=" << threads;
    for (size_t i = 0; i < dbs.size(); ++i) {
      EXPECT_TRUE(report.validations[i].result.trees.empty());
      EXPECT_EQ(dbs[i].catalog().AllIndexes(false, false).size(), applied);
      ExpectAutomationIndexesMatchFreshBuilds(dbs[i], untouched[i]);
    }
  }
}

TEST(ShardedAdoptionTest, DefaultValidationAdoptsOnShardZeroOnly) {
  FaultRegistry::Instance().DisarmAll();
  std::vector<storage::Database> dbs = MakeShards(3);
  const std::vector<storage::Database> untouched = dbs;
  ShardedIndexManager manager;
  std::vector<Shard> shards = Wrap(&dbs);
  Result<ShardedReport> r =
      manager.RunOnce(ReadOnlyWorkload(), shards, optimizer::CostModel());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ShardedReport& report = r.ValueOrDie();
  const size_t applied = report.aim.recommended.size();
  ASSERT_GE(applied, 1u);
  // Only shard 0 has a test clone to adopt from; the others build.
  EXPECT_EQ(report.validations.size(), 1u);
  EXPECT_EQ(report.aim.stats.indexes_adopted, applied);
  for (size_t i = 0; i < dbs.size(); ++i) {
    EXPECT_EQ(dbs[i].catalog().AllIndexes(false, false).size(), applied);
    ExpectAutomationIndexesMatchFreshBuilds(dbs[i], untouched[i]);
  }
}

TEST(ShardedAdoptionTest, FaultOnShardAdoptionRollsBackEveryShard) {
  FaultRegistry::Instance().DisarmAll();
  ShardedOptions options;
  options.comprehensive_validation = true;  // serial: faults land in order
  // Fault-free run: how many creates validation makes, and that every
  // shard adopts every applied index.
  size_t validated = 0;
  size_t applied = 0;
  {
    std::vector<storage::Database> dbs = MakeShards(3);
    ShardedIndexManager manager(options);
    std::vector<Shard> shards = Wrap(&dbs);
    Result<ShardedReport> r =
        manager.RunOnce(ReadOnlyWorkload(), shards, optimizer::CostModel());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const ShardedReport& report = r.ValueOrDie();
    applied = report.aim.recommended.size();
    for (const ShardValidation& sv : report.validations) {
      validated += sv.result.accepted.size() + sv.result.rejected_unused.size();
    }
    ASSERT_GE(applied, 1u);
    ASSERT_EQ(report.aim.stats.indexes_adopted, 3 * applied);
  }
  // Validation crosses `storage.create_index` once per candidate and
  // shard, then each shard's apply once per adoption, shard by shard.
  for (size_t k = 0; k < 3; ++k) {
    std::vector<storage::Database> dbs = MakeShards(3);
    std::vector<std::multiset<std::string>> before;
    for (const storage::Database& db : dbs) {
      before.push_back(IndexSignature(db));
    }
    FaultSpec spec;
    spec.code = Status::Code::kInternal;  // hard failure: no retry rescue
    spec.skip = static_cast<int>(validated + k * applied + applied - 1);
    spec.fail_times = 1;
    ScopedFault fault("storage.create_index", spec);
    ShardedIndexManager manager(options);
    std::vector<Shard> shards = Wrap(&dbs);
    Result<ShardedReport> r =
        manager.RunOnce(ReadOnlyWorkload(), shards, optimizer::CostModel());
    EXPECT_FALSE(r.ok()) << "k=" << k;
    EXPECT_EQ(
        FaultRegistry::Instance().stats("storage.create_index").triggers, 1u)
        << "k=" << k;
    for (size_t i = 0; i < dbs.size(); ++i) {
      EXPECT_EQ(IndexSignature(dbs[i]), before[i])
          << "k=" << k << " shard " << i;
    }
  }
  // A transient fault on an adoption is retried with the tree intact, as
  // in the single-database apply.
  std::vector<storage::Database> dbs = MakeShards(3);
  const std::vector<storage::Database> untouched = dbs;
  FaultSpec transient;
  transient.code = Status::Code::kUnavailable;
  transient.skip = static_cast<int>(validated + applied);  // shard 1
  transient.fail_times = 1;
  ScopedFault fault("storage.create_index", transient);
  ShardedIndexManager manager(options);
  std::vector<Shard> shards = Wrap(&dbs);
  Result<ShardedReport> r =
      manager.RunOnce(ReadOnlyWorkload(), shards, optimizer::CostModel());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().aim.stats.indexes_adopted, 3 * applied);
  for (size_t i = 0; i < dbs.size(); ++i) {
    ExpectAutomationIndexesMatchFreshBuilds(dbs[i], untouched[i]);
  }
}

TEST(RankingReplicationTest, FactorScalesBudgetConsumption) {
  storage::Database db = MakeUsersDb(3000);
  optimizer::WhatIfOptimizer what_if(db.catalog(), optimizer::CostModel());
  workload::Query q = aim::testing::MustQuery(
      "SELECT id FROM users WHERE org_id = 5", 100.0);
  SelectedQuery sq;
  sq.query = &q;
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  const double size = db.catalog().IndexSizeBytes(def);

  RankingOptions options;
  options.storage_budget_bytes = size * 3.0;
  options.storage_replication_factor = 2.0;
  RankingResult fits = RankAndSelect({def}, {sq}, &what_if, options);
  EXPECT_EQ(fits.selected.size(), 1u);
  EXPECT_NEAR(fits.selected_bytes, size * 2.0, size * 0.01);

  options.storage_replication_factor = 4.0;
  RankingResult too_big = RankAndSelect({def}, {sq}, &what_if, options);
  EXPECT_TRUE(too_big.selected.empty());
}

}  // namespace
}  // namespace aim::core
