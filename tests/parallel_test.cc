// Tests for the parallel what-if engine: the worker pool, the memoizing
// plan-cost cache, and — the load-bearing property — bit-identical
// advisor output at any thread count.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/aim.h"
#include "optimizer/what_if.h"
#include "optimizer/what_if_cache.h"
#include "tests/test_util.h"

namespace aim {
namespace {

using aim::testing::MakeUsersDb;
using aim::testing::MustParse;

// ---------------------------------------------------------------------------
// ThreadPool

TEST(ThreadPoolTest, SubmitReturnsFutureResults) {
  common::ThreadPool pool(4);
  EXPECT_EQ(pool.worker_count(), 4);
  std::future<int> f = pool.Submit([] { return 41 + 1; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPoolTest, ZeroOrOneWorkerRunsInline) {
  common::ThreadPool pool(1);
  EXPECT_EQ(pool.worker_count(), 0);
  const auto tid = std::this_thread::get_id();
  std::future<bool> f =
      pool.Submit([tid] { return std::this_thread::get_id() == tid; });
  EXPECT_TRUE(f.get());
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  common::ThreadPool pool(4);
  constexpr size_t kN = 1000;
  std::vector<int> touched(kN, 0);
  common::ParallelFor(&pool, kN, [&](size_t i) { ++touched[i]; });
  for (size_t i = 0; i < kN; ++i) {
    ASSERT_EQ(touched[i], 1) << "index " << i;
  }
  // Null pool: same contract, inline.
  std::vector<int> inline_touched(kN, 0);
  common::ParallelFor(nullptr, kN, [&](size_t i) { ++inline_touched[i]; });
  EXPECT_EQ(touched, inline_touched);
}

TEST(ThreadPoolTest, DispatchFaultFallsBackToInlineExecution) {
  FaultRegistry::Instance().DisarmAll();
  FaultSpec spec;
  spec.code = Status::Code::kUnavailable;
  spec.probability = 1.0;
  spec.fail_times = -1;
  FaultRegistry::Instance().Arm("common.pool.dispatch", spec, /*seed=*/3);

  common::ThreadPool pool(4);
  std::vector<int> values(64, 0);
  common::ParallelFor(&pool, values.size(),
                      [&](size_t i) { values[i] = static_cast<int>(i); });
  FaultRegistry::Instance().DisarmAll();
  for (size_t i = 0; i < values.size(); ++i) {
    ASSERT_EQ(values[i], static_cast<int>(i));
  }
}

// ---------------------------------------------------------------------------
// WhatIfCache

TEST(WhatIfCacheTest, HitOnRepeatMissOnFirstTouch) {
  optimizer::WhatIfCache cache(16);
  const optimizer::WhatIfCache::Key key{1, 2};
  int computed = 0;
  auto compute = [&]() -> Result<double> {
    ++computed;
    return 7.5;
  };
  ASSERT_EQ(cache.GetOrCompute(key, compute).ValueOrDie(), 7.5);
  ASSERT_EQ(cache.GetOrCompute(key, compute).ValueOrDie(), 7.5);
  EXPECT_EQ(computed, 1);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_DOUBLE_EQ(cache.stats().hit_rate(), 0.5);
}

TEST(WhatIfCacheTest, ConfigurationFingerprintIsPartOfTheKey) {
  optimizer::WhatIfCache cache(16);
  int computed = 0;
  auto compute = [&]() -> Result<double> {
    return static_cast<double>(++computed);
  };
  // Same statement, two configurations: two distinct entries.
  EXPECT_EQ(cache.GetOrCompute({10, 100}, compute).ValueOrDie(), 1.0);
  EXPECT_EQ(cache.GetOrCompute({10, 200}, compute).ValueOrDie(), 2.0);
  EXPECT_EQ(cache.GetOrCompute({10, 100}, compute).ValueOrDie(), 1.0);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(WhatIfCacheTest, BoundedSizeEvictsLeastRecentlyUsed) {
  optimizer::WhatIfCache cache(2);
  auto compute = [] { return Result<double>(1.0); };
  ASSERT_TRUE(cache.GetOrCompute({1, 0}, compute).ok());
  ASSERT_TRUE(cache.GetOrCompute({2, 0}, compute).ok());
  // Touch {1,0} so {2,0} becomes the LRU victim.
  ASSERT_TRUE(cache.GetOrCompute({1, 0}, compute).ok());
  ASSERT_TRUE(cache.GetOrCompute({3, 0}, compute).ok());
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_TRUE(cache.Peek({1, 0}).has_value());
  EXPECT_FALSE(cache.Peek({2, 0}).has_value());
  EXPECT_TRUE(cache.Peek({3, 0}).has_value());
}

TEST(WhatIfCacheTest, FailedComputationsAreNotCached) {
  optimizer::WhatIfCache cache(16);
  int attempts = 0;
  auto failing = [&]() -> Result<double> {
    ++attempts;
    return Status::Internal("optimizer exploded");
  };
  EXPECT_FALSE(cache.GetOrCompute({5, 5}, failing).ok());
  EXPECT_FALSE(cache.GetOrCompute({5, 5}, failing).ok());
  EXPECT_EQ(attempts, 2);  // second call re-computes: failure not cached
  EXPECT_EQ(cache.size(), 0u);
}

TEST(WhatIfCacheTest, SingleFlightComputesConcurrentMissesOnce) {
  optimizer::WhatIfCache cache(16);
  constexpr int kThreads = 8;
  std::atomic<int> computed{0};
  auto slow_compute = [&]() -> Result<double> {
    computed.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    return 3.25;
  };
  std::vector<std::thread> threads;
  std::vector<double> results(kThreads, 0.0);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.GetOrCompute({9, 9}, slow_compute).ValueOrDie();
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(computed.load(), 1);  // exactly one real computation
  for (double r : results) EXPECT_EQ(r, 3.25);
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, static_cast<uint64_t>(kThreads - 1));
}

// ---------------------------------------------------------------------------
// WhatIfCache persistence

TEST(WhatIfCachePersistenceTest, RoundTripReproducesEntriesColdCounters) {
  optimizer::WhatIfCache cache(16);
  auto cost = [](double v) {
    return [v]() -> Result<double> { return v; };
  };
  ASSERT_TRUE(cache.GetOrCompute({1, 10}, cost(1.5)).ok());
  ASSERT_TRUE(cache.GetOrCompute({2, 10}, cost(2.5)).ok());
  ASSERT_TRUE(cache.GetOrCompute({3, 20}, cost(3.5)).ok());

  const std::string snapshot = cache.SaveTo(/*catalog_fingerprint=*/77);

  optimizer::WhatIfCache restored(16);
  Result<bool> adopted = restored.LoadFrom(snapshot, 77);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_TRUE(adopted.ValueOrDie());
  EXPECT_EQ(restored.size(), 3u);
  EXPECT_EQ(restored.Peek({1, 10}).value(), 1.5);
  EXPECT_EQ(restored.Peek({2, 10}).value(), 2.5);
  EXPECT_EQ(restored.Peek({3, 20}).value(), 3.5);
  // Counters start cold: hits against loaded entries are how the value
  // of a carried cache is measured.
  EXPECT_EQ(restored.stats().hits, 0u);
  EXPECT_EQ(restored.stats().misses, 0u);
  // Every loaded key is served without recomputation.
  auto never = []() -> Result<double> {
    ADD_FAILURE() << "loaded entry recomputed";
    return -1.0;
  };
  EXPECT_EQ(restored.GetOrCompute({1, 10}, never).ValueOrDie(), 1.5);
  EXPECT_EQ(restored.stats().hits, 1u);
}

TEST(WhatIfCachePersistenceTest, CatalogFingerprintMismatchIsRejected) {
  optimizer::WhatIfCache cache(16);
  ASSERT_TRUE(
      cache.GetOrCompute({1, 1}, [] { return Result<double>(1.0); }).ok());
  const std::string snapshot = cache.SaveTo(77);

  // The snapshot was taken against catalog 77; a tuner on catalog 78
  // (schema or statistics drifted) must start cold, not stale.
  optimizer::WhatIfCache restored(16);
  Result<bool> adopted = restored.LoadFrom(snapshot, 78);
  ASSERT_TRUE(adopted.ok());
  EXPECT_FALSE(adopted.ValueOrDie());
  EXPECT_EQ(restored.size(), 0u);
}

TEST(WhatIfCachePersistenceTest, CorruptOrTruncatedSnapshotStaysCold) {
  optimizer::WhatIfCache cache(16);
  ASSERT_TRUE(
      cache.GetOrCompute({1, 1}, [] { return Result<double>(1.0); }).ok());
  ASSERT_TRUE(
      cache.GetOrCompute({2, 2}, [] { return Result<double>(2.0); }).ok());
  const std::string bytes = cache.SaveTo(7);

  {
    // Garbage magic.
    const std::string garbage = "definitely not a snapshot";
    optimizer::WhatIfCache restored(16);
    Result<bool> adopted = restored.LoadFrom(garbage, 7);
    ASSERT_TRUE(adopted.ok());
    EXPECT_FALSE(adopted.ValueOrDie());
    EXPECT_EQ(restored.size(), 0u);
  }
  {
    // Truncated mid-entry (the 4-byte CRC trailer and half of the last
    // cost cut off): the whole snapshot is rejected, and entries already
    // present in the target cache survive untouched.
    const std::string truncated = bytes.substr(0, bytes.size() - 8);
    optimizer::WhatIfCache restored(16);
    ASSERT_TRUE(restored
                    .GetOrCompute({9, 9},
                                  [] { return Result<double>(9.0); })
                    .ok());
    Result<bool> adopted = restored.LoadFrom(truncated, 7);
    ASSERT_TRUE(adopted.ok());
    EXPECT_FALSE(adopted.ValueOrDie());
    EXPECT_EQ(restored.size(), 1u);
    EXPECT_EQ(restored.Peek({9, 9}).value(), 9.0);
  }
  {
    // Empty image: cold start, no error.
    const std::string empty;
    optimizer::WhatIfCache restored(16);
    Result<bool> adopted = restored.LoadFrom(empty, 7);
    ASSERT_TRUE(adopted.ok());
    EXPECT_FALSE(adopted.ValueOrDie());
  }
}

TEST(WhatIfCachePersistenceTest, LoadFaultPointInjectsFailure) {
  optimizer::WhatIfCache cache(16);
  ASSERT_TRUE(
      cache.GetOrCompute({1, 1}, [] { return Result<double>(1.0); }).ok());
  const std::string snapshot = cache.SaveTo(7);

  FaultRegistry::Instance().DisarmAll();
  FaultSpec spec;
  spec.code = Status::Code::kUnavailable;
  ScopedFault fault("whatif.cache.load", spec);
  optimizer::WhatIfCache restored(16);
  Result<bool> adopted = restored.LoadFrom(snapshot, 7);
  ASSERT_FALSE(adopted.ok());
  EXPECT_EQ(adopted.status().code(), Status::Code::kUnavailable);
  EXPECT_EQ(restored.size(), 0u);  // failed load leaves the cache cold
}

TEST(WhatIfCachePersistenceTest, SmallerCapacityKeepsMostRecentEntries) {
  optimizer::WhatIfCache cache(8);
  for (uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(cache
                    .GetOrCompute({i, 0},
                                  [i] {
                                    return Result<double>(
                                        static_cast<double>(i));
                                  })
                    .ok());
  }
  const std::string snapshot = cache.SaveTo(7);

  // Entries are serialized MRU-first, so a smaller restored cache keeps
  // the hottest ones: {5,0} (most recent) survives, {0,0} does not.
  optimizer::WhatIfCache restored(3);
  Result<bool> adopted = restored.LoadFrom(snapshot, 7);
  ASSERT_TRUE(adopted.ok());
  EXPECT_TRUE(adopted.ValueOrDie());
  EXPECT_EQ(restored.size(), 3u);
  EXPECT_TRUE(restored.Peek({5, 0}).has_value());
  EXPECT_TRUE(restored.Peek({4, 0}).has_value());
  EXPECT_TRUE(restored.Peek({3, 0}).has_value());
  EXPECT_FALSE(restored.Peek({0, 0}).has_value());
}

// ---------------------------------------------------------------------------
// Logical configuration fingerprint: the cross-interval reuse enabler

TEST(ConfigFingerprintTest, OrderIndependentAndHypotheticalBlind) {
  storage::Database db = MakeUsersDb(300, /*seed=*/7);
  catalog::IndexDef a;
  a.table = db.catalog().FindTable("users").ValueOrDie();
  a.columns = {*db.catalog().table(a.table).FindColumn("org_id")};
  catalog::IndexDef b;
  b.table = a.table;
  b.columns = {*db.catalog().table(b.table).FindColumn("status"),
               *db.catalog().table(b.table).FindColumn("score")};

  // Same set, different staging order: same fingerprint.
  optimizer::WhatIfOptimizer ab(db.catalog(), optimizer::CostModel());
  ASSERT_TRUE(ab.SetConfiguration({a, b}).ok());
  optimizer::WhatIfOptimizer ba(db.catalog(), optimizer::CostModel());
  ASSERT_TRUE(ba.SetConfiguration({b, a}).ok());
  EXPECT_EQ(ab.config_fingerprint(), ba.config_fingerprint());

  // The same indexes created *for real* fingerprint identically to the
  // hypothetical staging — this is what lets a continuous tuner's carried
  // cache keep hitting after interval 1's recommendations materialize.
  storage::Database real_db = MakeUsersDb(300, /*seed=*/7);
  ASSERT_TRUE(real_db.CreateIndex(a).ok());
  ASSERT_TRUE(real_db.CreateIndex(b).ok());
  optimizer::WhatIfOptimizer real(real_db.catalog(),
                                  optimizer::CostModel());
  EXPECT_EQ(real.config_fingerprint(), ab.config_fingerprint());

  // And it still distinguishes genuinely different configurations.
  optimizer::WhatIfOptimizer only_a(db.catalog(), optimizer::CostModel());
  ASSERT_TRUE(only_a.SetConfiguration({a}).ok());
  EXPECT_NE(only_a.config_fingerprint(), ab.config_fingerprint());
}

// ---------------------------------------------------------------------------
// Cached WhatIfOptimizer

TEST(WhatIfParallelTest, StatementFingerprintKeepsLiterals) {
  const sql::Statement a =
      MustParse("SELECT id FROM users WHERE org_id = 3");
  const sql::Statement b =
      MustParse("SELECT id FROM users WHERE org_id = 4");
  EXPECT_NE(optimizer::FingerprintStatement(a),
            optimizer::FingerprintStatement(b));
  EXPECT_EQ(optimizer::FingerprintStatement(a),
            optimizer::FingerprintStatement(a));
}

TEST(WhatIfParallelTest, QueryCostMemoizedAcrossRepeatsAndConfigChanges) {
  storage::Database db = MakeUsersDb(500, /*seed=*/7);
  optimizer::WhatIfOptimizer what_if(db.catalog(), optimizer::CostModel());
  optimizer::WhatIfCache cache(64);
  what_if.set_cache(&cache);
  const sql::Statement stmt =
      MustParse("SELECT id FROM users WHERE org_id = 3");

  const double cost0 = what_if.QueryCost(stmt).ValueOrDie();
  EXPECT_EQ(what_if.call_count(), 1u);
  EXPECT_EQ(what_if.QueryCost(stmt).ValueOrDie(), cost0);
  EXPECT_EQ(what_if.call_count(), 1u);  // repeat served from cache

  // A configuration change re-keys the cache: the same statement must be
  // re-planned (the old entry is unreachable, not wrong).
  const uint64_t fp_before = what_if.config_fingerprint();
  catalog::IndexDef def;
  def.table = db.catalog().FindTable("users").ValueOrDie();
  def.columns = {*db.catalog().table(def.table).FindColumn("org_id")};
  ASSERT_TRUE(what_if.SetConfiguration({def}).ok());
  EXPECT_NE(what_if.config_fingerprint(), fp_before);
  const double cost1 = what_if.QueryCost(stmt).ValueOrDie();
  EXPECT_EQ(what_if.call_count(), 2u);
  EXPECT_LT(cost1, cost0);  // the hypothetical index helps this query

  // Dropping the configuration restores the original fingerprint, so the
  // very first entry is a hit again.
  what_if.ClearConfiguration();
  EXPECT_EQ(what_if.config_fingerprint(), fp_before);
  EXPECT_EQ(what_if.QueryCost(stmt).ValueOrDie(), cost0);
  EXPECT_EQ(what_if.call_count(), 2u);
}

TEST(WhatIfParallelTest, CloneSharesCacheAndCountsLocally) {
  storage::Database db = MakeUsersDb(500, /*seed=*/7);
  optimizer::WhatIfOptimizer master(db.catalog(), optimizer::CostModel());
  optimizer::WhatIfCache cache(64);
  master.set_cache(&cache);
  const sql::Statement stmt =
      MustParse("SELECT id FROM users WHERE org_id = 3");
  const double cost = master.QueryCost(stmt).ValueOrDie();

  optimizer::WhatIfOptimizer clone = master.Clone();
  EXPECT_EQ(clone.call_count(), 0u);
  EXPECT_EQ(clone.config_fingerprint(), master.config_fingerprint());
  // The clone's lookup hits the shared cache: no new optimizer call.
  EXPECT_EQ(clone.QueryCost(stmt).ValueOrDie(), cost);
  EXPECT_EQ(clone.call_count(), 0u);
  master.AddCalls(clone.call_count());
  EXPECT_EQ(master.call_count(), 1u);
}

// ---------------------------------------------------------------------------
// Parallel-vs-serial pipeline equivalence

workload::Workload EquivalenceWorkload() {
  workload::Workload w;
  EXPECT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 3", 50.0).ok());
  EXPECT_TRUE(
      w.Add("SELECT email FROM users WHERE status = 2 AND score > 500",
            20.0)
          .ok());
  EXPECT_TRUE(
      w.Add("SELECT id FROM users WHERE created_at BETWEEN 10 AND 40",
            10.0)
          .ok());
  // Duplicate of the first statement: exercises the plan-dedup path.
  EXPECT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 3", 5.0).ok());
  // DML: a validation-replay barrier and a maintenance-cost source.
  EXPECT_TRUE(
      w.Add("UPDATE users SET score = 1 WHERE org_id = 3", 4.0).ok());
  return w;
}

/// Everything observable about a finished run, stringified bit-for-bit
/// (doubles via hexfloat so "close" never passes for "identical").
std::string ReportSignature(const core::AimReport& report,
                            const storage::Database& db) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const core::CandidateIndex& c : report.recommended) {
    out << "idx t" << c.def.table;
    for (catalog::ColumnId col : c.def.columns) out << "," << col;
    out << " benefit=" << c.benefit << " maint=" << c.maintenance
        << " size=" << c.size_bytes << "\n";
  }
  out << "what_if_calls=" << report.stats.what_if_calls << "\n";
  out << "cache h=" << report.stats.cache_hits
      << " m=" << report.stats.cache_misses << "\n";
  for (const core::QueryValidation& v : report.validation.per_query) {
    out << "q" << v.fingerprint << " before=" << v.cpu_before
        << " after=" << v.cpu_after << " imp=" << v.improved
        << " reg=" << v.regressed << "\n";
  }
  for (const std::string& e : report.explanations) out << e << "\n";
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(false, true)) {
    out << "final t" << idx->table;
    for (catalog::ColumnId col : idx->columns) out << "," << col;
    out << "\n";
  }
  return out.str();
}

TEST(WhatIfParallelTest, PipelineIsBitIdenticalAtAnyThreadCount) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();

  auto run = [&](int threads) {
    storage::Database db = base;
    core::AimOptions options;
    options.num_threads = threads;
    core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
    Result<core::AimReport> r = aim.RunOnce(w, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return ReportSignature(r.ValueOrDie(), db);
  };

  const std::string serial = run(1);
  EXPECT_FALSE(serial.empty());
  EXPECT_NE(serial.find("idx "), std::string::npos)
      << "equivalence run recommended nothing:\n" << serial;
  EXPECT_EQ(serial, run(2));
  EXPECT_EQ(serial, run(8));
}

TEST(WhatIfParallelTest, CacheDisabledEngineMatchesToo) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();

  auto run = [&](int threads) {
    storage::Database db = base;
    core::AimOptions options;
    options.num_threads = threads;
    options.what_if_cache_entries = 0;  // the pre-memoization engine
    core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
    Result<core::AimReport> r = aim.RunOnce(w, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return ReportSignature(r.ValueOrDie(), db);
  };

  EXPECT_EQ(run(1), run(8));
}

TEST(WhatIfParallelTest, CachedRunRecordsHitsAndSameRecommendation) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();

  auto recommended_defs = [](const core::AimReport& report) {
    std::ostringstream out;
    for (const core::CandidateIndex& c : report.recommended) {
      out << c.def.table;
      for (catalog::ColumnId col : c.def.columns) out << "," << col;
      out << ";";
    }
    return out.str();
  };

  storage::Database cached_db = base;
  core::AimOptions cached_opts;  // cache on by default
  core::AutomaticIndexManager cached_aim(&cached_db,
                                         optimizer::CostModel(),
                                         cached_opts);
  Result<core::AimReport> cached = cached_aim.RunOnce(w, nullptr);
  ASSERT_TRUE(cached.ok());

  storage::Database plain_db = base;
  core::AimOptions plain_opts;
  plain_opts.what_if_cache_entries = 0;
  core::AutomaticIndexManager plain_aim(&plain_db, optimizer::CostModel(),
                                        plain_opts);
  Result<core::AimReport> plain = plain_aim.RunOnce(w, nullptr);
  ASSERT_TRUE(plain.ok());

  // Memoization is a pure optimization: identical recommendations from
  // strictly fewer optimizer calls, and a non-trivial hit rate.
  EXPECT_EQ(recommended_defs(cached.ValueOrDie()),
            recommended_defs(plain.ValueOrDie()));
  EXPECT_LT(cached.ValueOrDie().stats.what_if_calls,
            plain.ValueOrDie().stats.what_if_calls);
  EXPECT_GT(cached.ValueOrDie().stats.cache_hits, 0u);
  EXPECT_GT(cached.ValueOrDie().stats.cache_hit_rate(), 0.0);
  EXPECT_EQ(plain.ValueOrDie().stats.cache_hits, 0u);
}

}  // namespace
}  // namespace aim
