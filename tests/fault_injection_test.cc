#include "common/fault_injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/retry.h"
#include "storage/index_transaction.h"
#include "tests/test_util.h"

namespace aim {
namespace {

using aim::testing::MakeUsersDb;

/// Disarms everything before and after each test so no schedule leaks
/// across tests (the registry is process-wide).
class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

Status GuardedOp() {
  AIM_FAULT_POINT("test.op");
  return Status::OK();
}

Result<int> GuardedValueOp() {
  AIM_FAULT_POINT("test.value_op");
  return 11;
}

TEST_F(FaultInjectionTest, DisarmedPointIsTransparent) {
  EXPECT_FALSE(FaultRegistry::ArmedGlobally());
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_EQ(FaultRegistry::Instance().stats("test.op").hits, 0u);
}

TEST_F(FaultInjectionTest, ArmedPointInjectsConfiguredStatus) {
  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  spec.message = "boom";
  ScopedFault fault("test.op", spec);
  EXPECT_TRUE(FaultRegistry::ArmedGlobally());
  Status st = GuardedOp();
  EXPECT_EQ(st.code(), Status::Code::kInternal);
  EXPECT_EQ(st.message(), "boom");
  EXPECT_EQ(FaultRegistry::Instance().stats("test.op").triggers, 1u);
}

TEST_F(FaultInjectionTest, WorksInResultReturningFunctions) {
  ScopedFault fault("test.value_op", FaultSpec{});
  Result<int> r = GuardedValueOp();
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kUnavailable);
}

TEST_F(FaultInjectionTest, ArmingOnePointLeavesOthersAlone) {
  ScopedFault fault("test.value_op", FaultSpec{});
  EXPECT_TRUE(GuardedOp().ok());
  EXPECT_FALSE(GuardedValueOp().ok());
}

TEST_F(FaultInjectionTest, SkipThenFailSchedule) {
  FaultSpec spec;
  spec.skip = 2;
  spec.fail_times = 3;
  ScopedFault fault("test.op", spec);
  std::vector<bool> outcomes;
  for (int i = 0; i < 8; ++i) outcomes.push_back(GuardedOp().ok());
  EXPECT_EQ(outcomes, (std::vector<bool>{true, true, false, false, false,
                                         true, true, true}));
  FaultStats stats = FaultRegistry::Instance().stats("test.op");
  EXPECT_EQ(stats.hits, 8u);
  EXPECT_EQ(stats.triggers, 3u);
}

TEST_F(FaultInjectionTest, ProbabilisticTriggeringIsSeedDeterministic) {
  auto run = [](uint64_t seed) {
    FaultRegistry::Instance().DisarmAll();
    FaultSpec spec;
    spec.probability = 0.5;
    FaultRegistry::Instance().Arm("test.op", spec, seed);
    std::vector<bool> outcomes;
    for (int i = 0; i < 64; ++i) outcomes.push_back(GuardedOp().ok());
    return outcomes;
  };
  std::vector<bool> a = run(123);
  std::vector<bool> b = run(123);
  std::vector<bool> c = run(321);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  // Both failures and successes occur.
  EXPECT_NE(std::count(a.begin(), a.end(), true), 0);
  EXPECT_NE(std::count(a.begin(), a.end(), false), 0);
}

TEST_F(FaultInjectionTest, LatencyIsVirtual) {
  FaultSpec spec;
  spec.latency_ms = 25.0;
  spec.skip = 1000;  // never actually fails in this test
  ScopedFault fault("test.op", spec);
  for (int i = 0; i < 4; ++i) EXPECT_TRUE(GuardedOp().ok());
  EXPECT_DOUBLE_EQ(
      FaultRegistry::Instance().stats("test.op").injected_latency_ms,
      100.0);
  EXPECT_DOUBLE_EQ(FaultRegistry::Instance().total_injected_latency_ms(),
                   100.0);
}

TEST_F(FaultInjectionTest, SuppressionMakesCheckTransparent) {
  ScopedFault fault("test.op", FaultSpec{});
  EXPECT_FALSE(GuardedOp().ok());
  {
    FaultRegistry::ScopedFaultSuppression suppress;
    EXPECT_TRUE(GuardedOp().ok());
  }
  EXPECT_FALSE(GuardedOp().ok());
}

TEST_F(FaultInjectionTest, ScopedFaultDisarmsOnDestruction) {
  {
    ScopedFault fault("test.op", FaultSpec{});
    EXPECT_EQ(FaultRegistry::Instance().ArmedPoints().size(), 1u);
  }
  EXPECT_TRUE(FaultRegistry::Instance().ArmedPoints().empty());
  EXPECT_FALSE(FaultRegistry::ArmedGlobally());
  EXPECT_TRUE(GuardedOp().ok());
}

// ---------------------------------------------------------------------------
// RetryPolicy

TEST_F(FaultInjectionTest, RetryRecoversFromTransientFailures) {
  FaultSpec spec;
  spec.fail_times = 2;  // kUnavailable twice, then fine
  ScopedFault fault("test.op", spec);
  RetryPolicy retry;
  Status st = retry.Run([] { return GuardedOp(); });
  EXPECT_TRUE(st.ok());
  EXPECT_EQ(retry.attempts(), 3);
  EXPECT_GT(retry.total_backoff_ms(), 0.0);
}

TEST_F(FaultInjectionTest, RetryGivesUpAfterMaxAttempts) {
  ScopedFault fault("test.op", FaultSpec{});  // fails forever
  RetryOptions options;
  options.max_attempts = 3;
  RetryPolicy retry(options);
  Status st = retry.Run([] { return GuardedOp(); });
  EXPECT_EQ(st.code(), Status::Code::kUnavailable);
  EXPECT_EQ(retry.attempts(), 3);
}

TEST_F(FaultInjectionTest, RetryDoesNotRetryHardFailures) {
  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  ScopedFault fault("test.op", spec);
  RetryPolicy retry;
  Status st = retry.Run([] { return GuardedOp(); });
  EXPECT_EQ(st.code(), Status::Code::kInternal);
  EXPECT_EQ(retry.attempts(), 1);
  EXPECT_DOUBLE_EQ(retry.total_backoff_ms(), 0.0);
}

TEST_F(FaultInjectionTest, RetryWorksWithResultValues) {
  FaultSpec spec;
  spec.fail_times = 1;
  ScopedFault fault("test.value_op", spec);
  RetryPolicy retry;
  Result<int> r = retry.Run([] { return GuardedValueOp(); });
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.ValueOrDie(), 11);
  EXPECT_EQ(retry.attempts(), 2);
}

TEST(RetryPolicyTest, BackoffIsExponentialCappedAndSeedDeterministic) {
  RetryOptions options;
  options.initial_backoff_ms = 10.0;
  options.backoff_multiplier = 2.0;
  options.max_backoff_ms = 50.0;
  options.jitter_fraction = 0.2;
  options.seed = 99;
  RetryPolicy a(options);
  RetryPolicy b(options);
  for (int attempt = 1; attempt <= 6; ++attempt) {
    const double base =
        std::min(10.0 * std::pow(2.0, attempt - 1), 50.0);
    const double ms = a.NextBackoffMs(attempt);
    EXPECT_GE(ms, base * 0.8) << "attempt " << attempt;
    EXPECT_LE(ms, base * 1.2) << "attempt " << attempt;
    // Same options + seed => identical jittered sequence.
    EXPECT_DOUBLE_EQ(ms, b.NextBackoffMs(attempt));
  }
}

TEST(RetryPolicyTest, SleepHookObservesVirtualClock) {
  RetryOptions options;
  options.max_attempts = 4;
  RetryPolicy retry(options);
  double slept = 0.0;
  retry.set_sleep_fn([&](double ms) { slept += ms; });
  int calls = 0;
  Status st = retry.Run([&] {
    ++calls;
    return Status::Unavailable("still warming up");
  });
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(calls, 4);
  EXPECT_DOUBLE_EQ(slept, retry.total_backoff_ms());
  EXPECT_GT(slept, 0.0);
}

// ---------------------------------------------------------------------------
// IndexSetTransaction

std::multiset<std::string> IndexSignature(const storage::Database& db) {
  std::multiset<std::string> sig;
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(true, true)) {
    std::string key = std::to_string(idx->table);
    for (catalog::ColumnId c : idx->columns) {
      key += ',' + std::to_string(c);
    }
    key += idx->hypothetical ? "|hypo" : "|real";
    sig.insert(std::move(key));
  }
  return sig;
}

TEST_F(FaultInjectionTest, TransactionCommitKeepsIndexes) {
  storage::Database db = MakeUsersDb(200);
  storage::IndexSetTransaction txn(&db);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  ASSERT_TRUE(txn.CreateIndex(def).ok());
  txn.Commit();
  EXPECT_NE(db.catalog().FindIndex(0, {1}), nullptr);
}

TEST_F(FaultInjectionTest, TransactionRollbackDropsCreatedIndexes) {
  storage::Database db = MakeUsersDb(200);
  const std::multiset<std::string> before = IndexSignature(db);
  {
    storage::IndexSetTransaction txn(&db);
    catalog::IndexDef def;
    def.table = 0;
    def.columns = {1};
    ASSERT_TRUE(txn.CreateIndex(def).ok());
    // No commit: destructor rolls back.
  }
  EXPECT_EQ(IndexSignature(db), before);
}

TEST_F(FaultInjectionTest, TransactionRollbackRebuildsDroppedIndexes) {
  storage::Database db = MakeUsersDb(200);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {2, 3};
  ASSERT_TRUE(db.CreateIndex(def).ok());
  const std::multiset<std::string> before = IndexSignature(db);
  {
    storage::IndexSetTransaction txn(&db);
    const catalog::IndexDef* idx = db.catalog().FindIndex(0, {2, 3});
    ASSERT_NE(idx, nullptr);
    ASSERT_TRUE(txn.DropIndex(idx->id).ok());
    EXPECT_EQ(db.catalog().FindIndex(0, {2, 3}), nullptr);
  }
  EXPECT_EQ(IndexSignature(db), before);
  // The rebuilt index is materialized, not just catalog metadata.
  const catalog::IndexDef* rebuilt = db.catalog().FindIndex(0, {2, 3});
  ASSERT_NE(rebuilt, nullptr);
  EXPECT_NE(db.btree(rebuilt->id), nullptr);
}

// The acceptance-criteria schedule: for n index builds, fail the k-th one
// for every k and prove the catalog always rolls back to exactly the
// original set.
TEST_F(FaultInjectionTest, RollbackIsExactForEveryFailurePosition) {
  const std::vector<std::vector<catalog::ColumnId>> column_sets = {
      {1}, {2}, {3}, {1, 2}, {2, 3}};
  const size_t n = column_sets.size();
  for (size_t k = 1; k <= n; ++k) {
    storage::Database db = MakeUsersDb(200);
    const std::multiset<std::string> before = IndexSignature(db);

    FaultSpec spec;
    spec.code = Status::Code::kInternal;  // hard failure: no retry rescue
    spec.skip = static_cast<int>(k) - 1;
    spec.fail_times = 1;
    ScopedFault fault("storage.create_index", spec);

    storage::IndexSetTransaction txn(&db);
    Status failure;
    for (const auto& columns : column_sets) {
      catalog::IndexDef def;
      def.table = 0;
      def.columns = columns;
      Result<catalog::IndexId> id = txn.CreateIndex(def);
      if (!id.ok()) {
        failure = id.status();
        break;
      }
    }
    ASSERT_FALSE(failure.ok()) << "k=" << k;
    EXPECT_EQ(txn.pending_ops(), k - 1) << "k=" << k;
    Status rollback = txn.Rollback();
    EXPECT_TRUE(rollback.ok()) << "k=" << k << ": " << rollback.ToString();
    EXPECT_EQ(IndexSignature(db), before) << "k=" << k;
  }
}

// Same schedule but failing during materialization (mid-scan): CreateIndex
// itself must clean up its partial B+Tree and catalog entry.
TEST_F(FaultInjectionTest, PartialMaterializationIsRolledBack) {
  storage::Database db = MakeUsersDb(200);
  const std::multiset<std::string> before = IndexSignature(db);
  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  spec.skip = 50;  // fail after 50 rows of the build scan
  spec.fail_times = 1;
  ScopedFault fault("storage.build_index_entry", spec);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  Result<catalog::IndexId> id = db.CreateIndex(def);
  ASSERT_FALSE(id.ok());
  EXPECT_EQ(IndexSignature(db), before);
  EXPECT_EQ(db.catalog().FindIndex(0, {1}), nullptr);
}

TEST_F(FaultInjectionTest, TransactionRollbackSurvivesArmedFaults) {
  storage::Database db = MakeUsersDb(200);
  catalog::IndexDef existing;
  existing.table = 0;
  existing.columns = {4};
  ASSERT_TRUE(db.CreateIndex(existing).ok());
  const std::multiset<std::string> before = IndexSignature(db);

  // Fail the second create; the still-armed fault must not be able to
  // fail the rollback's recovery work (suppression).
  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  spec.skip = 1;
  ScopedFault fault("storage.create_index", spec);

  storage::IndexSetTransaction txn(&db);
  const catalog::IndexDef* idx = db.catalog().FindIndex(0, {4});
  ASSERT_NE(idx, nullptr);
  ASSERT_TRUE(txn.DropIndex(idx->id).ok());
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  ASSERT_TRUE(txn.CreateIndex(def).ok());  // consumes the skip
  def.columns = {2};
  ASSERT_FALSE(txn.CreateIndex(def).ok());  // injected failure
  EXPECT_TRUE(txn.Rollback().ok());
  EXPECT_EQ(IndexSignature(db), before);
}

}  // namespace
}  // namespace aim
