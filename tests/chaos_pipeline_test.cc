// Chaos harness for the no-regression guarantee: drive the full AIM
// pipeline (select → generate → merge → rank → validate → apply → GC)
// under hundreds of randomized, seeded fault schedules and assert the
// invariants that back production safety:
//   (a) no failure escapes as anything but a non-OK Status (and the
//       continuous tuner converts even those into degraded reports),
//   (b) after any failed interval the index configuration is exactly the
//       pre-call configuration (atomicity), and
//   (c) with faults disarmed the pipeline is deterministic — the chaos
//       machinery itself has zero effect when off.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/snapshot_file.h"
#include "common/rng.h"
#include "core/continuous.h"
#include "core/sharding.h"
#include "executor/metrics.h"
#include "support/stats_exporter.h"
#include "tests/test_util.h"
#include "workload/monitor.h"
#include "workload/replay.h"

namespace aim::core {
namespace {

using aim::testing::IndexSignature;
using aim::testing::MakeUsersDb;

/// Structural invariants that must hold after EVERY interval, failed or
/// not: no hypothetical index leaks into production, and every real
/// secondary index is fully materialized (a half-built B+Tree would be
/// silently wrong, not slow).
void ExpectWellFormed(const storage::Database& db, uint64_t seed) {
  EXPECT_EQ(db.catalog().AllIndexes(true, true).size(),
            db.catalog().AllIndexes(false, true).size())
      << "hypothetical index leaked into production, seed=" << seed;
  for (const catalog::IndexDef* idx :
       db.catalog().AllIndexes(false, false)) {
    EXPECT_NE(db.btree(idx->id), nullptr)
        << "unmaterialized real index " << db.catalog().DescribeIndex(*idx)
        << ", seed=" << seed;
  }
}

workload::Workload ChaosWorkload() {
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
  return w;
}

ContinuousTunerOptions ChaosTunerOptions() {
  ContinuousTunerOptions options;
  options.drop_after_idle_intervals = 1;  // aggressive GC: exercise drops
  options.shrink_after_idle_intervals = 1;
  // Fast retries: schedules with fail_times <= 2 are recoverable.
  options.aim.validation.retry.max_attempts = 3;
  // Run the parallel what-if engine so fault schedules also cross the
  // pool's dispatch path (degraded dispatch must not change results).
  options.aim.num_threads = 2;
  return options;
}

/// The fault points the pipeline actually crosses, with the layers they
/// live in.
const char* const kFaultPoints[] = {
    "storage.create_index", "storage.build_index_entry",
    "storage.drop_index",   "executor.execute",
    "core.clone",           "core.apply",
    "core.tick",            "common.pool.dispatch",
    "workload.replay",      "whatif.cache.load",
};

/// The additional points the *sharded* pipeline crosses: losing a shard
/// at validation entry or mid-clone-materialization.
const char* const kShardFaultPoints[] = {
    "shard.validate",       "core.clone",
    "storage.create_index", "storage.build_index_entry",
    "executor.execute",     "common.pool.dispatch",
};

/// Arms a randomized subset of `points` from `rng` (always at least one)
/// and returns a human-readable description for failure messages.
template <size_t N>
std::string ArmRandomSchedule(Rng* rng, uint64_t seed,
                              const char* const (&points)[N]) {
  std::string description;
  bool armed_any = false;
  while (!armed_any) {
    for (const char* point : points) {
      if (!rng->Bernoulli(0.35)) continue;
      FaultSpec spec;
      spec.code = rng->Bernoulli(0.5) ? Status::Code::kUnavailable
                                      : Status::Code::kInternal;
      spec.probability = rng->Bernoulli(0.5)
                             ? 1.0
                             : 0.25 + 0.75 * rng->NextDouble();
      spec.skip = static_cast<int>(rng->Uniform(6));
      spec.fail_times =
          rng->Bernoulli(0.3) ? -1 : 1 + static_cast<int>(rng->Uniform(4));
      if (rng->Bernoulli(0.25)) spec.latency_ms = 5.0;
      FaultRegistry::Instance().Arm(point, spec, seed * 1000003 + 17);
      description += std::string(point) + "(" +
                     Status::FromCode(spec.code, "").ToString() + " skip=" +
                     std::to_string(spec.skip) + " fail=" +
                     std::to_string(spec.fail_times) + ") ";
      armed_any = true;
    }
  }
  return description;
}

TEST(ChaosPipelineTest, NoRegressionGuaranteeUnderRandomFaultSchedules) {
  const storage::Database base = MakeUsersDb(300, /*seed=*/7);
  const workload::Workload w = ChaosWorkload();
  constexpr int kSchedules = 220;
  constexpr int kTicksPerSchedule = 2;

  size_t degraded_intervals = 0;
  size_t clean_intervals = 0;
  size_t intervals_with_changes = 0;
  uint64_t cache_load_faults = 0;

  // One shared snapshot dir across schedules: later seeds start from a
  // carried cache (valid — same base catalog), earlier seeds cold, so
  // schedules also cross `whatif.cache.load`. A faulted or truncated load
  // must behave exactly like cold.
  FleetCacheStoreOptions store_options;
  store_options.snapshot_dir = ::testing::TempDir() + "/chaos_whatif_cache";
  std::filesystem::create_directories(store_options.snapshot_dir);
  std::remove(SnapshotPathForFingerprint(
                  store_options.snapshot_dir + "/whatif_cache",
                  base.catalog().SchemaStatsFingerprint())
                  .c_str());

  for (uint64_t seed = 1; seed <= kSchedules; ++seed) {
    Rng rng(seed);
    storage::Database db = base;
    FleetCacheStore store(store_options);
    ContinuousTuner tuner(&db, optimizer::CostModel(), ChaosTunerOptions(),
                          &store);
    const std::string schedule = ArmRandomSchedule(&rng, seed, kFaultPoints);

    for (int tick = 0; tick < kTicksPerSchedule; ++tick) {
      const std::multiset<std::string> before = IndexSignature(db);
      Result<IntervalReport> r = tuner.Tick(w, nullptr);
      // (a) Failures surface as Status, and the tuner degrades instead
      // of erroring: the interval result is always ok().
      ASSERT_TRUE(r.ok()) << "schedule: " << schedule
                          << " seed=" << seed << " tick=" << tick
                          << " status=" << r.status().ToString();
      const IntervalReport& report = r.ValueOrDie();
      if (report.degraded) {
        ++degraded_intervals;
        EXPECT_FALSE(report.error.ok()) << "seed=" << seed;
        // (b) A degraded interval leaves the configuration EXACTLY as it
        // was — no half-applied index set, ever.
        EXPECT_EQ(IndexSignature(db), before)
            << "degraded interval mutated production; schedule: "
            << schedule << " seed=" << seed << " tick=" << tick
            << " error=" << report.error.ToString();
      } else {
        ++clean_intervals;
        EXPECT_TRUE(report.error.ok());
        // The store's owner persists it after every clean interval.
        EXPECT_TRUE(store.SaveAll().ok());
        if (!report.aim.recommended.empty() || !report.dropped.empty() ||
            !report.shrunk.empty()) {
          ++intervals_with_changes;
        }
      }
      ExpectWellFormed(db, seed);
    }
    cache_load_faults +=
        FaultRegistry::Instance().stats("whatif.cache.load").triggers;
    FaultRegistry::Instance().DisarmAll();
  }

  // The schedules must actually exercise both sides of the guarantee:
  // plenty of injected failures AND plenty of surviving intervals.
  EXPECT_GT(cache_load_faults, 0u);
  EXPECT_GT(degraded_intervals, 50u);
  EXPECT_GT(clean_intervals, 50u);
  EXPECT_GT(intervals_with_changes, 10u);
}

TEST(ChaosPipelineTest, DisarmedPipelineIsDeterministic) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(300, /*seed=*/7);
  const workload::Workload w = ChaosWorkload();

  auto run = [&] {
    storage::Database db = base;
    ContinuousTuner tuner(&db, optimizer::CostModel(),
                          ChaosTunerOptions());
    for (int tick = 0; tick < 3; ++tick) {
      Result<IntervalReport> r = tuner.Tick(w, nullptr);
      EXPECT_TRUE(r.ok());
      EXPECT_FALSE(r.ValueOrDie().degraded);
    }
    return IndexSignature(db);
  };

  const std::multiset<std::string> first = run();
  const std::multiset<std::string> second = run();
  EXPECT_EQ(first, second);
  // (c) The tuner converged on a non-trivial configuration — the
  // determinism check is not comparing two empty runs.
  EXPECT_GT(first.size(), 1u);
}

// A faulty pool scheduler may only slow the pipeline down, never change
// its output: with "common.pool.dispatch" armed at probability 1 every
// task degrades to inline execution, and the tuned configuration must be
// bit-identical to the fault-free parallel run.
TEST(ChaosPipelineTest, DispatchFaultsDegradeToInlineWithoutChangingResults) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(300, /*seed=*/7);
  const workload::Workload w = ChaosWorkload();

  auto run = [&] {
    storage::Database db = base;
    ContinuousTuner tuner(&db, optimizer::CostModel(),
                          ChaosTunerOptions());
    for (int tick = 0; tick < 2; ++tick) {
      Result<IntervalReport> r = tuner.Tick(w, nullptr);
      EXPECT_TRUE(r.ok());
      EXPECT_FALSE(r.ValueOrDie().degraded);
    }
    return IndexSignature(db);
  };

  const std::multiset<std::string> healthy = run();

  FaultSpec spec;
  spec.code = Status::Code::kUnavailable;
  spec.probability = 1.0;
  spec.fail_times = -1;  // every dispatch, forever
  FaultRegistry::Instance().Arm("common.pool.dispatch", spec, /*seed=*/1);
  const std::multiset<std::string> degraded = run();
  FaultRegistry::Instance().DisarmAll();

  EXPECT_EQ(healthy, degraded);
  EXPECT_GT(healthy.size(), 1u);
}

// Injected replay faults behave like failed executions: the driver sheds
// the load and keeps going, so the series stays full-length and the
// monitor only records the executions that actually completed.
TEST(ChaosPipelineTest, ReplayFaultsShedLoadWithoutAborting) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(300, /*seed=*/7);
  const workload::Workload w = ChaosWorkload();

  workload::ReplayDriver::Options opts;
  opts.offered_qps = 40.0;
  workload::ReplayDriver healthy_driver(&db, optimizer::CostModel(), opts);
  const std::vector<workload::ReplayTick> healthy =
      healthy_driver.Run(w, /*ticks=*/3);

  FaultSpec spec;
  spec.code = Status::Code::kUnavailable;
  spec.probability = 1.0;
  spec.fail_times = -1;
  FaultRegistry::Instance().Arm("workload.replay", spec, /*seed=*/1);
  workload::ReplayDriver faulty_driver(&db, optimizer::CostModel(), opts);
  const std::vector<workload::ReplayTick> faulty =
      faulty_driver.Run(w, /*ticks=*/3);
  FaultRegistry::Instance().DisarmAll();

  ASSERT_EQ(healthy.size(), 3u);
  ASSERT_EQ(faulty.size(), 3u);
  double healthy_served = 0.0;
  double faulty_served = 0.0;
  for (const workload::ReplayTick& t : healthy) {
    healthy_served += t.throughput_qps;
  }
  for (const workload::ReplayTick& t : faulty) {
    faulty_served += t.throughput_qps;
  }
  EXPECT_GT(healthy_served, 0.0);
  EXPECT_EQ(faulty_served, 0.0);  // every execution failed, none crashed
  EXPECT_EQ(faulty_driver.monitor().Snapshot().size(), 0u);
}

// ---------------------------------------------------------------------------
// Sharded chaos: a shard lost mid-validation degrades the run — rejected
// candidates, untouched production — and never fails or splits the fleet.

std::vector<storage::Database> MakeChaosShards(int n) {
  std::vector<storage::Database> dbs;
  dbs.reserve(n);
  for (int i = 0; i < n; ++i) {
    dbs.push_back(MakeUsersDb(600, /*seed=*/50 + i));
  }
  return dbs;
}

ShardedOptions ChaosShardedOptions() {
  ShardedOptions options;
  options.comprehensive_validation = true;  // every shard validates
  options.aim.num_threads = 2;              // fan validations out
  return options;
}

Result<ShardedReport> RunShardedOnce(std::vector<storage::Database>* dbs) {
  ShardedIndexManager manager(ChaosShardedOptions());
  std::vector<Shard> shards;
  shards.reserve(dbs->size());
  for (storage::Database& db : *dbs) {
    shards.push_back(Shard{&db, nullptr});
  }
  return manager.RunOnce(ChaosWorkload(), shards, optimizer::CostModel());
}

/// Kills exactly one shard's validation at `point` and asserts the
/// degraded-not-failed contract: the run completes, every candidate is
/// rejected (conservative veto — the lost shard could have shown a
/// regression), and no shard's production catalog changes.
void ExpectOneLostShardDegrades(const char* point) {
  FaultRegistry::Instance().DisarmAll();
  std::vector<storage::Database> dbs = MakeChaosShards(3);
  std::vector<std::multiset<std::string>> before;
  for (const storage::Database& db : dbs) {
    before.push_back(IndexSignature(db));
  }

  FaultSpec spec;
  spec.code = Status::Code::kUnavailable;
  spec.probability = 1.0;
  spec.fail_times = 1;  // exactly one crossing dies, the rest survive
  ScopedFault fault(point, spec);

  Result<ShardedReport> r = RunShardedOnce(&dbs);
  ASSERT_TRUE(r.ok()) << point << ": " << r.status().ToString();
  const ShardedReport& report = r.ValueOrDie();
  EXPECT_TRUE(report.degraded) << point;
  EXPECT_EQ(report.shards_lost, 1u) << point;
  size_t lost = 0;
  for (const ShardValidation& sv : report.validations) {
    if (!sv.error.ok()) ++lost;
  }
  EXPECT_EQ(lost, 1u) << point;
  // The workload has winning candidates (the healthy run applies them),
  // so "nothing applied" here demonstrates the veto, not an empty run.
  EXPECT_TRUE(report.aim.recommended.empty()) << point;
  EXPECT_FALSE(report.rejected_by_shards.empty()) << point;
  for (size_t i = 0; i < dbs.size(); ++i) {
    EXPECT_EQ(IndexSignature(dbs[i]), before[i])
        << point << ": lost shard mutated production on shard " << i;
  }
}

TEST(ShardedChaosTest, ShardLostAtValidationEntryDegradesNotFails) {
  ExpectOneLostShardDegrades("shard.validate");
}

TEST(ShardedChaosTest, ShardLostMidMaterializationDegradesNotFails) {
  ExpectOneLostShardDegrades("core.clone");
}

TEST(ShardedChaosTest, ReplayDeathOnClonesRejectsWholesaleNotDegraded) {
  // Every replayed execution on every clone dies mid-replay. That is not
  // a lost shard — validation itself completed — but it proves nothing
  // about the candidates, so the whole set is rejected and production
  // stays untouched.
  FaultRegistry::Instance().DisarmAll();
  std::vector<storage::Database> dbs = MakeChaosShards(3);
  std::vector<std::multiset<std::string>> before;
  for (const storage::Database& db : dbs) {
    before.push_back(IndexSignature(db));
  }

  FaultSpec spec;
  spec.code = Status::Code::kUnavailable;
  spec.probability = 1.0;
  spec.fail_times = -1;
  ScopedFault fault("executor.execute", spec);

  Result<ShardedReport> r = RunShardedOnce(&dbs);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const ShardedReport& report = r.ValueOrDie();
  EXPECT_FALSE(report.degraded);
  EXPECT_EQ(report.shards_lost, 0u);
  EXPECT_TRUE(report.aim.recommended.empty());
  EXPECT_FALSE(report.rejected_by_shards.empty());
  for (const ShardValidation& sv : report.validations) {
    EXPECT_TRUE(sv.error.ok());
    EXPECT_FALSE(sv.result.replay_reliable);
  }
  for (size_t i = 0; i < dbs.size(); ++i) {
    EXPECT_EQ(IndexSignature(dbs[i]), before[i]) << "shard " << i;
  }
}

TEST(ShardedChaosTest, RandomShardFaultSchedulesNeverSplitTheFleet) {
  constexpr int kSchedules = 60;
  size_t degraded_runs = 0;
  size_t applied_runs = 0;

  for (uint64_t seed = 1; seed <= kSchedules; ++seed) {
    Rng rng(seed);
    std::vector<storage::Database> dbs = MakeChaosShards(3);
    std::vector<std::multiset<std::string>> before;
    for (const storage::Database& db : dbs) {
      before.push_back(IndexSignature(db));
    }
    const std::string schedule =
        ArmRandomSchedule(&rng, seed, kShardFaultPoints);

    Result<ShardedReport> r = RunShardedOnce(&dbs);
    if (!r.ok()) {
      // A hard failure (e.g. apply died) must roll back every shard.
      for (size_t i = 0; i < dbs.size(); ++i) {
        EXPECT_EQ(IndexSignature(dbs[i]), before[i])
            << "failed run left changes on shard " << i
            << "; schedule: " << schedule << " seed=" << seed;
      }
    } else {
      const ShardedReport& report = r.ValueOrDie();
      if (report.degraded) {
        ++degraded_runs;
        // Lost shards veto everything: production untouched.
        EXPECT_TRUE(report.aim.recommended.empty())
            << "schedule: " << schedule << " seed=" << seed;
        for (size_t i = 0; i < dbs.size(); ++i) {
          EXPECT_EQ(IndexSignature(dbs[i]), before[i])
              << "degraded run mutated shard " << i << "; schedule: "
              << schedule << " seed=" << seed;
        }
      } else if (!report.aim.recommended.empty()) {
        ++applied_runs;
      }
      // The fleet never diverges: whatever happened, every shard ends
      // with the identical physical design.
      for (size_t i = 1; i < dbs.size(); ++i) {
        EXPECT_EQ(IndexSignature(dbs[i]), IndexSignature(dbs[0]))
            << "fleet split between shard 0 and shard " << i
            << "; schedule: " << schedule << " seed=" << seed;
      }
      for (const storage::Database& db : dbs) {
        ExpectWellFormed(db, seed);
      }
    }
    FaultRegistry::Instance().DisarmAll();
  }

  // The schedules must exercise both outcomes.
  EXPECT_GT(degraded_runs, 5u);
  EXPECT_GT(applied_runs, 5u);
}

// ---------------------------------------------------------------------------
// Stats export pipeline: at-least-once, never effectively-twice

/// A transport fault in the middle of an interval's publish loop (first
/// replica's message out, second replica's lost) must leave the exporter
/// re-exporting the *same* interval on retry. Delivery is at-least-once —
/// the raw subscriber log legitimately shows the first replica's message
/// twice — but messages carry (replica, interval), so a deduplicating
/// consumer folds each interval exactly once, and after the commit no
/// later export ever re-publishes it.
TEST(ChaosStatsExporterTest, MidPublishFaultNeverDoublePublishesInterval) {
  FaultRegistry::Instance().DisarmAll();
  workload::WorkloadMonitor replica_a;
  workload::WorkloadMonitor replica_b;
  support::StatsExporter exporter;
  exporter.RegisterReplica("replica-a", &replica_a);
  exporter.RegisterReplica("replica-b", &replica_b);

  std::vector<std::pair<std::string, int>> raw_log;
  // Consumer-side dedup by (replica, interval): folded executions per key.
  std::map<std::pair<std::string, int>, uint64_t> folded;
  exporter.Subscribe([&](const support::StatsMessage& msg) {
    raw_log.emplace_back(msg.replica, msg.interval);
    uint64_t executions = 0;
    for (const workload::QueryStats& s : msg.stats) {
      executions += s.executions;
    }
    folded[{msg.replica, msg.interval}] = executions;
  });

  executor::ExecutionMetrics m;
  m.rows_examined = 10;
  m.rows_sent = 2;
  m.cpu_seconds = 0.5;
  replica_a.RecordKeyed(0xA1, "SELECT 1", m);
  replica_a.RecordKeyed(0xA1, "SELECT 1", m);
  replica_b.RecordKeyed(0xB2, "SELECT 2", m);

  // Fault the transport mid-publish: the first message of interval 0 goes
  // out, the second hits the wire fault.
  {
    FaultSpec spec;
    spec.skip = 1;
    spec.fail_times = 1;
    ScopedFault fault("support.stats.export", spec);
    Result<size_t> r = exporter.ExportInterval();
    ASSERT_FALSE(r.ok());
    // Half-published: one replica's message delivered, then the export
    // aborted with nothing committed.
    ASSERT_EQ(raw_log.size(), 1u);
    EXPECT_EQ(raw_log[0].second, 0);
    EXPECT_EQ(exporter.intervals_exported(), 0);
  }

  // Retry re-exports interval 0 in full: the survivor's message is
  // delivered again with the SAME interval number (at-least-once), and
  // the monitors still held their deltas so nothing was lost.
  Result<size_t> retry = exporter.ExportInterval();
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_EQ(retry.ValueOrDie(), 2u);
  ASSERT_EQ(raw_log.size(), 3u);
  EXPECT_EQ(raw_log[1].second, 0);
  EXPECT_EQ(raw_log[2].second, 0);
  EXPECT_EQ(raw_log[0], raw_log[1]) << "retry must re-send the duplicate "
                                       "with an unchanged interval tag";
  EXPECT_EQ(exporter.intervals_exported(), 1);

  // Dedup folds exactly one record per (replica, interval), with the full
  // pre-fault executions — the duplicate overwrote, never accumulated.
  ASSERT_EQ(folded.size(), 2u);
  EXPECT_EQ((folded[{"replica-a", 0}]), 2u);
  EXPECT_EQ((folded[{"replica-b", 0}]), 1u);

  // After the commit the interval is sealed: new traffic exports as
  // interval 1, and interval 0 is never published again.
  replica_a.RecordKeyed(0xA1, "SELECT 1", m);
  Result<size_t> next = exporter.ExportInterval();
  ASSERT_TRUE(next.ok());
  for (size_t i = 3; i < raw_log.size(); ++i) {
    EXPECT_EQ(raw_log[i].second, 1);
  }
  EXPECT_EQ(exporter.intervals_exported(), 2);
  // The aggregate folded each interval exactly once despite the retry:
  // 3 executions of A1 total (2 in interval 0 + 1 in interval 1).
  const workload::QueryStats* agg = exporter.aggregate().Find(0xA1);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->executions, 3u);
}

// ---------------------------------------------------------------------------
// Workload drift under compression + incremental candidate generation.
// Mix shifts and schema evolution mid-run must invalidate exactly the
// affected clusters — and never move a selection away from what a cold
// full recompute would pick.

/// A workload where every template appears twice (so compression folds).
workload::Workload DuplicatedWorkload(
    const std::vector<std::string>& templates) {
  workload::Workload w;
  for (int rep = 0; rep < 2; ++rep) {
    for (const std::string& sql : templates) {
      EXPECT_TRUE(w.Add(sql, 1.0).ok()) << sql;
    }
  }
  return w;
}

TEST(CompressionDriftChaosTest, MixShiftInvalidatesOnlyAffectedClusters) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(1500, /*seed=*/7);
  ContinuousTunerOptions options;
  options.aim.compression.enabled = true;
  // Single-pass generation for exact per-cluster arithmetic (with
  // two-phase on, a mix shift can legitimately change the staged phase-1
  // configuration and so phase 2's whole context), and a zero storage
  // budget so no interval applies DDL — the configuration fingerprint
  // stays put and reuse depends on workload/statistics drift alone.
  options.aim.two_phase = false;
  options.aim.ranking.storage_budget_bytes = 0.0;

  ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  const workload::Workload first = DuplicatedWorkload(
      {"SELECT id FROM users WHERE org_id = 3",
       "SELECT email FROM users WHERE status = 2",
       "SELECT id FROM users WHERE score > 500"});

  // Interval 1: cold — every cluster recomputes, once per template (the
  // duplicates folded away).
  Result<IntervalReport> r1 = tuner.Tick(first, nullptr);
  ASSERT_TRUE(r1.ok()) << r1.status().ToString();
  EXPECT_FALSE(r1.ValueOrDie().degraded);
  EXPECT_EQ(r1.ValueOrDie().aim.stats.compression_clusters, 3u);
  EXPECT_EQ(r1.ValueOrDie().aim.stats.candgen_clusters_total, 3u);
  EXPECT_EQ(r1.ValueOrDie().aim.stats.candgen_clusters_reused, 0u);
  EXPECT_EQ(r1.ValueOrDie().aim.stats.candgen_clusters_recomputed, 3u);
  ASSERT_NE(tuner.candidate_cache(), nullptr);
  EXPECT_EQ(tuner.candidate_cache()->size(), 3u);

  // Interval 2, same mix: everything reuses.
  Result<IntervalReport> r2 = tuner.Tick(first, nullptr);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r2.ValueOrDie().aim.stats.candgen_clusters_reused, 3u);
  EXPECT_EQ(r2.ValueOrDie().aim.stats.candgen_clusters_recomputed, 0u);

  // Interval 3, mix shift: one template leaves, two join. Exactly the
  // two new clusters recompute; the two carried ones are served.
  const workload::Workload shifted = DuplicatedWorkload(
      {"SELECT id FROM users WHERE org_id = 3",
       "SELECT email FROM users WHERE status = 2",
       "SELECT id FROM users WHERE created_at BETWEEN 10 AND 40",
       "SELECT org_id FROM users WHERE score < 50"});
  Result<IntervalReport> r3 = tuner.Tick(shifted, nullptr);
  ASSERT_TRUE(r3.ok());
  EXPECT_EQ(r3.ValueOrDie().aim.stats.candgen_clusters_total, 4u);
  EXPECT_EQ(r3.ValueOrDie().aim.stats.candgen_clusters_reused, 2u);
  EXPECT_EQ(r3.ValueOrDie().aim.stats.candgen_clusters_recomputed, 2u);

  // Interval 4, schema evolution (statistics rebuilt): every carried key
  // embeds the old schema/stats fingerprint — nothing reuses.
  db.AnalyzeAll(/*histogram_buckets=*/8);
  Result<IntervalReport> r4 = tuner.Tick(shifted, nullptr);
  ASSERT_TRUE(r4.ok());
  EXPECT_EQ(r4.ValueOrDie().aim.stats.candgen_clusters_reused, 0u);
  EXPECT_EQ(r4.ValueOrDie().aim.stats.candgen_clusters_recomputed, 4u);

  // Interval 5: statistics stable again — full reuse resumes.
  Result<IntervalReport> r5 = tuner.Tick(shifted, nullptr);
  ASSERT_TRUE(r5.ok());
  EXPECT_EQ(r5.ValueOrDie().aim.stats.candgen_clusters_reused, 4u);
  EXPECT_EQ(r5.ValueOrDie().aim.stats.candgen_clusters_recomputed, 0u);
}

TEST(CompressionDriftChaosTest, DriftedTicksMatchColdRecompute) {
  FaultRegistry::Instance().DisarmAll();
  // Twin databases, twin tick sequences: a warm tuner (compression on,
  // carried what-if + candidate caches) against a cold one (compression
  // off, nothing carried — the full recompute). Their production
  // configurations must agree after every interval, through a mix shift
  // and a statistics rebuild.
  storage::Database warm_db = MakeUsersDb(1500, /*seed=*/7);
  storage::Database cold_db = warm_db;

  ContinuousTunerOptions warm_options;
  warm_options.aim.num_threads = 2;
  warm_options.aim.compression.enabled = true;
  ContinuousTuner warm(&warm_db, optimizer::CostModel(), warm_options);

  ContinuousTunerOptions cold_options;
  cold_options.aim.num_threads = 2;
  cold_options.carry_what_if_cache = false;
  cold_options.carry_candidate_cache = false;
  ContinuousTuner cold(&cold_db, optimizer::CostModel(), cold_options);

  const workload::Workload first = DuplicatedWorkload(
      {"SELECT id FROM users WHERE org_id = 3",
       "SELECT email FROM users WHERE status = 2 AND score > 500",
       "UPDATE users SET score = 1 WHERE org_id = 3"});
  const workload::Workload shifted = DuplicatedWorkload(
      {"SELECT id FROM users WHERE org_id = 3",
       "SELECT id FROM users WHERE created_at BETWEEN 10 AND 40",
       "UPDATE users SET score = 1 WHERE org_id = 3"});

  const auto tick_both = [&](const workload::Workload& w,
                             const char* what) {
    Result<IntervalReport> rw = warm.Tick(w, nullptr);
    Result<IntervalReport> rc = cold.Tick(w, nullptr);
    ASSERT_TRUE(rw.ok()) << what << ": " << rw.status().ToString();
    ASSERT_TRUE(rc.ok()) << what << ": " << rc.status().ToString();
    EXPECT_FALSE(rw.ValueOrDie().degraded) << what;
    EXPECT_FALSE(rc.ValueOrDie().degraded) << what;
    EXPECT_EQ(IndexSignature(warm_db), IndexSignature(cold_db)) << what;
  };

  tick_both(first, "interval 1 (cold start)");
  tick_both(first, "interval 2 (steady state)");
  tick_both(shifted, "interval 3 (mix shift)");
  warm_db.AnalyzeAll(/*histogram_buckets=*/8);
  cold_db.AnalyzeAll(/*histogram_buckets=*/8);
  tick_both(shifted, "interval 4 (schema/statistics evolution)");
  tick_both(shifted, "interval 5 (stable again)");
}

}  // namespace
}  // namespace aim::core
