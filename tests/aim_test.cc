#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/snapshot_file.h"
#include "core/aim.h"
#include "core/continuous.h"
#include "executor/executor.h"
#include "tests/test_util.h"

namespace aim::core {
namespace {

using aim::testing::ExpectAutomationIndexesMatchFreshBuilds;
using aim::testing::MakeOrdersDb;
using aim::testing::MakeUsersDb;

workload::Workload SimpleWorkload() {
  workload::Workload w;
  EXPECT_TRUE(
      w.Add("SELECT id FROM users WHERE org_id = 5", 100.0).ok());
  EXPECT_TRUE(
      w.Add("SELECT email FROM users WHERE status = 2 AND score > 500",
            50.0)
          .ok());
  EXPECT_TRUE(
      w.Add("SELECT id FROM users ORDER BY created_at DESC LIMIT 10",
            30.0)
          .ok());
  return w;
}

TEST(AimTest, BootstrapRecommendsUsefulIndexes) {
  storage::Database db = MakeUsersDb(5000);
  AimOptions options;
  options.validate_on_clone = false;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w = SimpleWorkload();
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AimReport& report = r.ValueOrDie();
  ASSERT_FALSE(report.recommended.empty());
  // An index on org_id must be among the picks.
  bool has_org = false;
  for (const auto& c : report.recommended) {
    if (!c.def.columns.empty() && c.def.columns[0] == 1) has_org = true;
  }
  EXPECT_TRUE(has_org);
  EXPECT_EQ(report.explanations.size(), report.recommended.size());
  EXPECT_GT(report.stats.what_if_calls, 0u);
  EXPECT_GT(report.stats.partial_orders_generated, 0u);
}

TEST(AimTest, RecommendRespectsBudget) {
  storage::Database db = MakeUsersDb(5000);
  AimOptions options;
  options.validate_on_clone = false;
  options.ranking.storage_budget_bytes = 1.0;  // nothing fits
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w = SimpleWorkload();
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().recommended.empty());
}

TEST(AimTest, RunOnceMaterializesIndexes) {
  storage::Database db = MakeUsersDb(3000);
  AimOptions options;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w = SimpleWorkload();
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const auto indexes = db.catalog().AllIndexes(false, false);
  EXPECT_EQ(indexes.size(), r.ValueOrDie().recommended.size());
  for (const auto* idx : indexes) {
    EXPECT_TRUE(idx->created_by_automation);
    EXPECT_NE(db.btree(idx->id), nullptr);  // actually materialized
  }
}

TEST(AimTest, RunOnceImprovesObservedCpu) {
  storage::Database db = MakeUsersDb(5000);
  workload::Workload w = SimpleWorkload();
  executor::Executor exec(&db, optimizer::CostModel());
  double before = 0;
  for (const auto& q : w.queries) {
    before += exec.Execute(q.stmt).ValueOrDie().metrics.cpu_seconds;
  }
  AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
  ASSERT_TRUE(aim.RunOnce(w, nullptr).ok());
  double after = 0;
  for (const auto& q : w.queries) {
    after += exec.Execute(q.stmt).ValueOrDie().metrics.cpu_seconds;
  }
  EXPECT_LT(after, before * 0.5);
}

TEST(AimTest, NoRegressionGuaranteeOnClone) {
  storage::Database db = MakeUsersDb(3000);
  workload::Workload w = SimpleWorkload();
  AimOptions options;  // validation on
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok());
  for (const auto& v : r.ValueOrDie().validation.per_query) {
    EXPECT_FALSE(v.regressed);
  }
  EXPECT_TRUE(r.ValueOrDie().validation.no_regressions);
  EXPECT_TRUE(r.ValueOrDie().validation.any_query_improved);
}

TEST(AimTest, ValidationDropsUnusedIndexes) {
  storage::Database db = MakeUsersDb(2000);
  workload::Workload w = SimpleWorkload();

  // Inject a bogus candidate by running validation directly.
  CandidateIndex good;
  good.def.table = 0;
  good.def.columns = {1};  // org_id: used
  good.benefit = 1.0;
  CandidateIndex useless;
  useless.def.table = 0;
  useless.def.columns = {6};  // payload: never filtered
  useless.benefit = 1.0;

  std::vector<SelectedQuery> selected;
  for (const auto& q : w.queries) {
    SelectedQuery sq;
    sq.query = &q;
    selected.push_back(sq);
  }
  Result<CloneValidationResult> r = ValidateOnClone(
      db, {good, useless}, selected, optimizer::CostModel(), {});
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.ValueOrDie().accepted.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().accepted[0].def.columns[0], 1u);
  ASSERT_EQ(r.ValueOrDie().rejected_unused.size(), 1u);
}

TEST(AimTest, CloneValidationLeavesProductionUntouched) {
  storage::Database db = MakeUsersDb(1000);
  workload::Workload w = SimpleWorkload();
  CandidateIndex c;
  c.def.table = 0;
  c.def.columns = {1};
  std::vector<SelectedQuery> selected;
  for (const auto& q : w.queries) {
    SelectedQuery sq;
    sq.query = &q;
    selected.push_back(sq);
  }
  ASSERT_TRUE(
      ValidateOnClone(db, {c}, selected, optimizer::CostModel(), {}).ok());
  EXPECT_TRUE(db.catalog().AllIndexes(true, false).empty());
}

TEST(AimTest, CloneValidationBuildsHypotheticalCandidatesReal) {
  storage::Database db = MakeUsersDb(1000);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 10.0).ok());
  CandidateIndex c;
  c.def.table = 0;
  c.def.columns = {1};
  c.def.hypothetical = true;  // must be built as a real B+Tree on the clone
  std::vector<SelectedQuery> selected(1);
  selected[0].query = &w.queries[0];
  Result<CloneValidationResult> r =
      ValidateOnClone(db, {c}, selected, optimizer::CostModel(), {});
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // The clone's plan used the index and the executor read a real tree:
  // every replay succeeded and the query got cheaper.
  ASSERT_EQ(r.ValueOrDie().accepted.size(), 1u);
  EXPECT_EQ(r.ValueOrDie().failed, 0u);
  ASSERT_EQ(r.ValueOrDie().per_query.size(), 1u);
  EXPECT_LT(r.ValueOrDie().per_query[0].cpu_after,
            r.ValueOrDie().per_query[0].cpu_before);
  // Production untouched, hypothetical entries included.
  EXPECT_TRUE(db.catalog().AllIndexes(true, false).empty());
}

// ---------- Build-once apply ------------------------------------------------

TEST(BuildOnceApplyTest, AdoptedTreesEqualFreshBuilds) {
  FaultRegistry::Instance().DisarmAll();
  // The classic single-transaction apply and ordered deployment share one
  // install step.
  for (bool ordered : {false, true}) {
    SCOPED_TRACE(ordered ? "ordered deployment" : "classic apply");
    storage::Database db = MakeUsersDb(3000);
    const storage::Database untouched = db;
    AimOptions options;
    options.deployment.ordered = ordered;
    AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
    Result<AimReport> r = aim.RunOnce(SimpleWorkload(), nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const AimReport& report = r.ValueOrDie();
    ASSERT_FALSE(report.recommended.empty());
    EXPECT_EQ(report.deployment.ordered, ordered);
    // A read-only workload leaves the test clone's heaps as production's:
    // every applied index is the clone's tree, none is built twice.
    EXPECT_EQ(report.stats.indexes_adopted, report.recommended.size());
    EXPECT_TRUE(report.validation.trees.empty());  // moved into production
    ExpectAutomationIndexesMatchFreshBuilds(db, untouched);
  }
}

TEST(BuildOnceApplyTest, DmlOnIndexedTableFallsBackToBuild) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(3000);
  const storage::Database untouched = db;
  workload::Workload w = SimpleWorkload();
  ASSERT_TRUE(
      w.Add("UPDATE users SET org_id = 7 WHERE id = 10", 1.0).ok());
  AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AimReport& report = r.ValueOrDie();
  ASSERT_FALSE(report.recommended.empty());
  // The replayed UPDATE changed the test clone's users heap, so its trees
  // no longer describe production's rows: every index is built afresh.
  EXPECT_EQ(report.stats.indexes_adopted, 0u);
  // Production itself was not updated (the replay ran on the clones).
  EXPECT_EQ(db.heap(0).stamp(), untouched.heap(0).stamp());
  ExpectAutomationIndexesMatchFreshBuilds(db, untouched);
}

TEST(BuildOnceApplyTest, OnlineApplyTargetBuildsOnline) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database snapshot = MakeUsersDb(3000);
  storage::Database live = snapshot;
  TuningResources resources;
  resources.online_apply_db = &live;
  AutomaticIndexManager aim(&snapshot, optimizer::CostModel(), AimOptions{},
                            resources);
  Result<AimReport> r = aim.RunOnce(SimpleWorkload(), nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AimReport& report = r.ValueOrDie();
  ASSERT_FALSE(report.recommended.empty());
  EXPECT_EQ(report.stats.online_builds, report.recommended.size());
  EXPECT_EQ(report.stats.indexes_adopted, 0u);
  EXPECT_TRUE(snapshot.catalog().AllIndexes(false, false).empty());
  ExpectAutomationIndexesMatchFreshBuilds(live, snapshot);
}

TEST(BuildOnceApplyTest, FaultOnKthAdoptionRollsBackEarlierAdoptions) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(2000);
  // Fault-free run: how many creates validation makes, and that every
  // applied index is adopted.
  size_t validated = 0;
  size_t applied = 0;
  {
    storage::Database db = base;
    AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
    Result<AimReport> r = aim.RunOnce(SimpleWorkload(), nullptr);
    ASSERT_TRUE(r.ok());
    const AimReport& report = r.ValueOrDie();
    validated = report.validation.accepted.size() +
                report.validation.rejected_unused.size();
    applied = report.recommended.size();
    ASSERT_EQ(report.stats.indexes_adopted, applied);
    ASSERT_GE(applied, 2u);
  }
  for (size_t k = 1; k <= applied; ++k) {
    storage::Database db = base;
    FaultSpec spec;
    spec.code = Status::Code::kInternal;  // hard failure: no retry rescue
    spec.skip = static_cast<int>(validated + k - 1);
    spec.fail_times = 1;
    ScopedFault fault("storage.create_index", spec);
    AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
    Result<AimReport> r = aim.RunOnce(SimpleWorkload(), nullptr);
    EXPECT_FALSE(r.ok()) << "k=" << k;
    EXPECT_EQ(FaultRegistry::Instance().stats("storage.create_index")
                  .triggers,
              1u)
        << "k=" << k;
    EXPECT_TRUE(db.catalog().AllIndexes(true, true).size() ==
                base.catalog().AllIndexes(true, true).size())
        << "k=" << k;
    EXPECT_TRUE(db.catalog().AllIndexes(false, false).empty()) << "k=" << k;
  }
  // A transient fault on an adoption is retried with the tree intact.
  storage::Database db = base;
  FaultSpec transient;
  transient.code = Status::Code::kUnavailable;
  transient.skip = static_cast<int>(validated);
  transient.fail_times = 1;
  ScopedFault fault("storage.create_index", transient);
  AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
  Result<AimReport> r = aim.RunOnce(SimpleWorkload(), nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().stats.indexes_adopted, applied);
  ExpectAutomationIndexesMatchFreshBuilds(db, base);
}

TEST(AimTest, SkipsExistingIndexes) {
  storage::Database db = MakeUsersDb(3000);
  catalog::IndexDef existing;
  existing.table = 0;
  existing.columns = {1};
  ASSERT_TRUE(db.CreateIndex(existing).ok());
  AimOptions options;
  options.validate_on_clone = false;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 5", 10.0).ok());
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok());
  for (const auto& c : r.ValueOrDie().recommended) {
    EXPECT_NE(c.def.columns, existing.columns);
  }
}

TEST(AimTest, EmptyWorkloadNoop) {
  storage::Database db = MakeUsersDb(100);
  AutomaticIndexManager aim(&db, optimizer::CostModel(), AimOptions{});
  workload::Workload w;
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.ValueOrDie().recommended.empty());
}

TEST(AimTest, MonitorDrivenSelection) {
  storage::Database db = MakeUsersDb(3000);
  workload::Workload w = SimpleWorkload();
  // Execute the workload to populate the monitor with real stats.
  workload::WorkloadMonitor monitor;
  executor::Executor exec(&db, optimizer::CostModel());
  for (int rep = 0; rep < 50; ++rep) {
    for (const auto& q : w.queries) {
      auto res = exec.Execute(q.stmt);
      ASSERT_TRUE(res.ok());
      monitor.RecordKeyed(q.fingerprint, q.normalized_sql,
                          res.ValueOrDie().metrics);
    }
  }
  AimOptions options;
  options.validate_on_clone = false;
  options.selection.min_benefit_cores = 1e-9;
  options.selection.min_executions = 2;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<AimReport> r = aim.Recommend(w, &monitor);
  ASSERT_TRUE(r.ok());
  EXPECT_GT(r.ValueOrDie().stats.queries_selected, 0u);
  EXPECT_FALSE(r.ValueOrDie().recommended.empty());
}

TEST(AimTest, JoinWorkloadGetsJoinSupportingIndexes) {
  storage::Database db = MakeOrdersDb(500, 5000);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT users.id FROM users, orders WHERE "
                    "users.id = orders.user_id AND users.org_id = 3",
                    100.0)
                  .ok());
  AimOptions options;
  options.validate_on_clone = false;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<AimReport> r = aim.Recommend(w, nullptr);
  ASSERT_TRUE(r.ok());
  // orders(user_id) must be recommended to support the join.
  bool has_orders_user_id = false;
  for (const auto& c : r.ValueOrDie().recommended) {
    if (c.def.table == 1 && !c.def.columns.empty() &&
        c.def.columns[0] == 1) {
      has_orders_user_id = true;
    }
  }
  EXPECT_TRUE(has_orders_user_id);
}

// ---------- continuous tuning ------------------------------------------------

TEST(ContinuousTest, DropsUnusedAutomationIndexes) {
  storage::Database db = MakeUsersDb(2000);
  catalog::IndexDef stale;
  stale.table = 0;
  stale.columns = {6};  // payload: no query uses it
  stale.created_by_automation = true;
  ASSERT_TRUE(db.CreateIndex(stale).ok());

  ContinuousTunerOptions options;
  options.drop_after_idle_intervals = 2;
  options.aim.validate_on_clone = false;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());

  ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  EXPECT_EQ(db.catalog().TableIndexes(0, false).size() >= 1, true);
  ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  Result<IntervalReport> third = tuner.Tick(w, nullptr);
  ASSERT_TRUE(third.ok());
  // The payload index must be gone by now.
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    EXPECT_NE(idx->columns, stale.columns);
  }
}

TEST(ContinuousTest, ManualIndexesNeverDropped) {
  storage::Database db = MakeUsersDb(500);
  catalog::IndexDef manual;
  manual.table = 0;
  manual.columns = {6};
  manual.created_by_automation = false;  // DBA-created
  ASSERT_TRUE(db.CreateIndex(manual).ok());
  ContinuousTunerOptions options;
  options.drop_after_idle_intervals = 1;
  options.aim.validate_on_clone = false;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());
  for (int i = 0; i < 3; ++i) ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  bool found = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (idx->columns == manual.columns) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(ContinuousTest, ShrinksPartiallyUsedIndex) {
  storage::Database db = MakeUsersDb(3000);
  catalog::IndexDef wide;
  wide.table = 0;
  wide.columns = {1, 2, 6};  // (org_id, status, payload)
  wide.created_by_automation = true;
  ASSERT_TRUE(db.CreateIndex(wide).ok());

  ContinuousTunerOptions options;
  options.shrink_after_idle_intervals = 2;
  options.drop_after_idle_intervals = 100;  // don't drop
  options.aim.validate_on_clone = false;
  options.aim.ranking.storage_budget_bytes = 1.0;  // AIM adds nothing new
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  // Only org_id is filtered: the used prefix is 1 of 3 columns.
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());
  bool shrunk = false;
  for (int i = 0; i < 5 && !shrunk; ++i) {
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok());
    shrunk = !r.ValueOrDie().shrunk.empty();
  }
  EXPECT_TRUE(shrunk);
  bool narrow_exists = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (idx->columns == std::vector<catalog::ColumnId>{1}) {
      narrow_exists = true;
    }
    EXPECT_NE(idx->columns, wide.columns);
  }
  EXPECT_TRUE(narrow_exists);
}

TEST(ContinuousTest, AdaptsToWorkloadShift) {
  storage::Database db = MakeUsersDb(3000);
  ContinuousTunerOptions options;
  options.aim.validate_on_clone = false;
  options.drop_after_idle_intervals = 2;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  workload::Workload w1;
  ASSERT_TRUE(w1.Add("SELECT id FROM users WHERE org_id = 1", 100.0).ok());
  ASSERT_TRUE(tuner.Tick(w1, nullptr).ok());
  bool has_org = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->columns.empty() && idx->columns[0] == 1) has_org = true;
  }
  ASSERT_TRUE(has_org);

  // Workload shifts to created_at lookups; org index should eventually
  // be dropped and a created_at index added.
  workload::Workload w2;
  ASSERT_TRUE(
      w2.Add("SELECT id FROM users WHERE created_at = 55", 100.0).ok());
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(tuner.Tick(w2, nullptr).ok());
  bool has_created = false;
  bool still_org = false;
  for (const auto* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->columns.empty() && idx->columns[0] == 4) has_created = true;
    if (!idx->columns.empty() && idx->columns[0] == 1) still_org = true;
  }
  EXPECT_TRUE(has_created);
  EXPECT_FALSE(still_org);
}

// ---------------------------------------------------------------------------
// Cross-interval what-if cache carry

TEST(ContinuousTest, SecondIntervalWarmStartsFromCarriedCache) {
  storage::Database db = MakeUsersDb(3000);
  ContinuousTunerOptions options;  // carry_what_if_cache defaults on
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  const workload::Workload w = SimpleWorkload();

  Result<IntervalReport> first = tuner.Tick(w, nullptr);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_FALSE(first.ValueOrDie().aim.stats.cache_warm_start);
  EXPECT_GT(first.ValueOrDie().aim.stats.cache_misses, 0u);

  // Interval 2 starts warm but costs everything under the configuration
  // interval 1 *installed* — a fingerprint interval 1 never costed, so
  // the carried entries are unreachable (stale-proof by construction).
  Result<IntervalReport> second = tuner.Tick(w, nullptr);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_GT(second.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_TRUE(second.ValueOrDie().aim.stats.cache_warm_start);
  EXPECT_GT(second.ValueOrDie().aim.stats.cache_entries_at_start, 0u);

  // Interval 3 runs at the now-stable configuration interval 2 also ran
  // at: interval 2's entries answer interval 3's costing directly.
  Result<IntervalReport> third = tuner.Tick(w, nullptr);
  ASSERT_TRUE(third.ok()) << third.status().ToString();
  EXPECT_GT(third.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_TRUE(third.ValueOrDie().aim.stats.cache_warm_start);
  EXPECT_GT(third.ValueOrDie().aim.stats.cache_hits, 0u);
}

TEST(ContinuousTest, CacheInvalidatedWhenStatisticsDrift) {
  storage::Database db = MakeUsersDb(3000);
  ContinuousTunerOptions options;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  const workload::Workload w = SimpleWorkload();

  ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
  // Re-analyze with a different histogram resolution: same data, new
  // statistics — every carried cost is now computed against a stale
  // cost-model input and must be dropped, not reused.
  db.AnalyzeAll(/*histogram_buckets=*/8);
  Result<IntervalReport> second = tuner.Tick(w, nullptr);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_TRUE(second.ValueOrDie().cache_invalidated);
  EXPECT_EQ(second.ValueOrDie().cache_entries_carried, 0u);
  EXPECT_FALSE(second.ValueOrDie().aim.stats.cache_warm_start);

  // Stable statistics afterwards: the carry resumes.
  Result<IntervalReport> third = tuner.Tick(w, nullptr);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.ValueOrDie().cache_invalidated);
  EXPECT_GT(third.ValueOrDie().cache_entries_carried, 0u);
}

/// Kernel ids of this process's live threads. Unlike std::thread::id,
/// which glibc recycles with cached thread stacks, a kernel id names one
/// thread: a pool rebuilt per tick shows up as new ids.
std::set<std::string> LiveThreadIds() {
  std::set<std::string> ids;
  for (const auto& task :
       std::filesystem::directory_iterator("/proc/self/task")) {
    ids.insert(task.path().filename().string());
  }
  return ids;
}

TEST(ContinuousTest, StandaloneTunerBuildsItsPoolOnce) {
  if (!std::filesystem::exists("/proc/self/task")) {
    GTEST_SKIP() << "no /proc/self/task to list threads from";
  }
  storage::Database db = MakeUsersDb(2000);
  const workload::Workload w = SimpleWorkload();
  ContinuousTunerOptions options;
  options.aim.num_threads = 3;
  const std::set<std::string> before = LiveThreadIds();
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  std::set<std::string> workers;
  for (int k = 0; k < 4; ++k) {
    ASSERT_TRUE(tuner.Tick(w, nullptr).ok());
    std::set<std::string> since_tuner;
    for (const std::string& id : LiveThreadIds()) {
      if (before.count(id) == 0) since_tuner.insert(id);
    }
    if (k == 0) workers = since_tuner;
    // The same workers serve every tick and outlive it.
    EXPECT_EQ(since_tuner, workers) << "after tick " << k;
  }
  EXPECT_EQ(workers.size(), 3u);
}

TEST(ContinuousTest, CacheSnapshotWarmStartsAcrossTunerInstances) {
  FleetCacheStoreOptions store_options;
  store_options.snapshot_dir = ::testing::TempDir() + "/tuner_whatif_cache";
  std::filesystem::create_directories(store_options.snapshot_dir);
  const storage::Database base = MakeUsersDb(3000);
  const workload::Workload w = SimpleWorkload();
  // The actual file is namespaced by the schema/statistics fingerprint
  // (so fleets of tuners sharing one snapshot dir never collide).
  const std::string real_path = SnapshotPathForFingerprint(
      store_options.snapshot_dir + "/whatif_cache",
      base.catalog().SchemaStatsFingerprint());
  std::remove(real_path.c_str());

  {
    storage::Database db = base;
    FleetCacheStore store(store_options);
    ContinuousTuner tuner(&db, optimizer::CostModel(), {}, &store);
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    // Nothing to load on the very first interval ever.
    EXPECT_FALSE(r.ValueOrDie().cache_loaded_from_snapshot);
    // The store's owner persists it.
    ASSERT_TRUE(store.SaveAll().ok());
  }
  {
    // A brand-new tuner process on the same database state: interval 1
    // starts warm from the snapshot the previous instance saved.
    storage::Database db = base;
    FleetCacheStore store(store_options);
    ContinuousTuner tuner(&db, optimizer::CostModel(), {}, &store);
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_TRUE(r.ValueOrDie().cache_loaded_from_snapshot);
    EXPECT_GT(r.ValueOrDie().cache_entries_carried, 0u);
    EXPECT_TRUE(r.ValueOrDie().aim.stats.cache_warm_start);
    EXPECT_GT(r.ValueOrDie().aim.stats.cache_hits, 0u);
  }
  {
    // Corrupt the snapshot: the next instance must start cold — same
    // decisions, no error, no degraded interval.
    std::ofstream out(real_path, std::ios::binary | std::ios::trunc);
    out << "not a snapshot";
    out.close();
    storage::Database db = base;
    FleetCacheStore store(store_options);
    ContinuousTuner tuner(&db, optimizer::CostModel(), {}, &store);
    Result<IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.ValueOrDie().cache_loaded_from_snapshot);
    EXPECT_FALSE(r.ValueOrDie().degraded);
    EXPECT_EQ(r.ValueOrDie().cache_entries_carried, 0u);
  }
}

}  // namespace
}  // namespace aim::core
