// Differential-equivalence harness: the template every parallel change
// must extend.
//
// The parallel engine's contract is that thread count and memoization are
// pure optimizations — at 1, 2, or 8 threads, cache on or off, the
// advisor must produce *bit-identical* decisions (selections, rejections,
// plan costs, per-query validation evidence). These tests stringify
// everything observable about a run — doubles in hexfloat, so "close"
// never passes for "identical" — and diff the strings. A future change
// that parallelizes a new stage should add its observable output to the
// signature functions here and get the same 1-vs-2-vs-8 coverage for
// free.
//
// Run with `ctest -L equivalence` (and under TSan: AIM_SANITIZE=thread).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "core/aim.h"
#include "core/continuous.h"
#include "core/sharding.h"
#include "obs/trace.h"
#include "optimizer/what_if_cache.h"
#include "tests/test_util.h"

namespace aim {
namespace {

using aim::testing::MakeUsersDb;

// ---------------------------------------------------------------------------
// Shared fixtures

/// Mixed workload: repeated SELECTs (dedup + cache exercise), a range
/// query, and a DML barrier for the validation replay.
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
  EXPECT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 3", 5.0).ok());
  EXPECT_TRUE(
      w.Add("UPDATE users SET score = 1 WHERE org_id = 3", 4.0).ok());
  return w;
}

/// Schema-identical shards with different row contents (different seeds).
std::vector<storage::Database> MakeShards(int n, uint64_t rows = 1200) {
  std::vector<storage::Database> dbs;
  dbs.reserve(n);
  for (int i = 0; i < n; ++i) {
    dbs.push_back(MakeUsersDb(rows, /*seed=*/100 + i));
  }
  return dbs;
}

void AppendIndexDef(std::ostringstream* out, const catalog::IndexDef& def) {
  *out << "t" << def.table;
  for (catalog::ColumnId col : def.columns) *out << "," << col;
}

/// Everything decision-relevant about one AIM report. `include_counts`
/// folds in optimizer-call and cache counters — comparable only between
/// runs with the same cache setting (memoization changes how often the
/// optimizer runs, never what it decides).
std::string AimSignature(const core::AimReport& report,
                         bool include_counts = true) {
  std::ostringstream out;
  out << std::hexfloat;
  for (const core::CandidateIndex& c : report.recommended) {
    out << "idx ";
    AppendIndexDef(&out, c.def);
    out << " benefit=" << c.benefit << " maint=" << c.maintenance
        << " size=" << c.size_bytes << "\n";
  }
  for (const core::QueryValidation& v : report.validation.per_query) {
    out << "q" << v.fingerprint << " before=" << v.cpu_before
        << " after=" << v.cpu_after << " imp=" << v.improved
        << " reg=" << v.regressed << "\n";
  }
  out << "validation exec=" << report.validation.executed
      << " failed=" << report.validation.failed
      << " reliable=" << report.validation.replay_reliable << "\n";
  for (const std::string& e : report.explanations) out << e << "\n";
  if (include_counts) {
    out << "what_if_calls=" << report.stats.what_if_calls
        << " cache h=" << report.stats.cache_hits
        << " m=" << report.stats.cache_misses << "\n";
  }
  return out.str();
}

/// Final physical design of one database.
std::string CatalogSignature(const storage::Database& db) {
  std::ostringstream out;
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(false, true)) {
    out << "final ";
    AppendIndexDef(&out, *idx);
    out << "\n";
  }
  return out.str();
}

/// Everything observable about one sharded run: the AIM report, every
/// per-shard validation record, the shard-level rejections, and every
/// shard's final catalog.
std::string ShardedSignature(const core::ShardedReport& report,
                             const std::vector<storage::Database>& dbs,
                             bool include_counts = true) {
  std::ostringstream out;
  out << std::hexfloat;
  out << AimSignature(report.aim, include_counts);
  for (const core::ShardValidation& sv : report.validations) {
    out << "shard " << sv.shard << " err=" << sv.error.ok()
        << " exec=" << sv.result.executed
        << " failed=" << sv.result.failed
        << " noreg=" << sv.result.no_regressions << "\n";
    for (const core::QueryValidation& v : sv.result.per_query) {
      out << "  q" << v.fingerprint << " before=" << v.cpu_before
          << " after=" << v.cpu_after << "\n";
    }
  }
  for (const core::CandidateIndex& c : report.rejected_by_shards) {
    out << "rejected ";
    AppendIndexDef(&out, c.def);
    out << "\n";
  }
  out << "lost=" << report.shards_lost << " degraded=" << report.degraded
      << "\n";
  for (size_t i = 0; i < dbs.size(); ++i) {
    out << "shard" << i << ":\n" << CatalogSignature(dbs[i]);
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Single-database pipeline

std::string RunAim(const storage::Database& base,
                   const workload::Workload& w, int threads,
                   size_t cache_entries,
                   executor::EngineKind replay_engine =
                       executor::EngineKind::kBatch) {
  storage::Database db = base;
  core::AimOptions options;
  options.num_threads = threads;
  options.what_if_cache_entries = cache_entries;
  options.validation.replay_engine = replay_engine;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<core::AimReport> r = aim.RunOnce(w, nullptr);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  return AimSignature(r.ValueOrDie()) + CatalogSignature(db);
}

TEST(EquivalenceTest, AimPipelineBitIdenticalAcrossThreads) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();
  for (size_t cache : {size_t{4096}, size_t{0}}) {
    const std::string serial = RunAim(base, w, 1, cache);
    ASSERT_NE(serial.find("idx "), std::string::npos)
        << "equivalence run recommended nothing:\n" << serial;
    EXPECT_EQ(serial, RunAim(base, w, 2, cache)) << "cache=" << cache;
    EXPECT_EQ(serial, RunAim(base, w, 8, cache)) << "cache=" << cache;
  }
}

// The replay-engine knob is a third equivalence dimension next to thread
// count and cache size: the vectorized batch executor and the row
// interpreter must drive the validation replay to bit-identical
// evidence. Deeper row-vs-batch coverage lives in `ctest -L batch`.
TEST(EquivalenceTest, AimPipelineBitIdenticalAcrossReplayEngines) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();
  for (size_t cache : {size_t{4096}, size_t{0}}) {
    const std::string row = RunAim(base, w, 1, cache,
                                   executor::EngineKind::kRowAtATime);
    ASSERT_NE(row.find("idx "), std::string::npos)
        << "equivalence run recommended nothing:\n" << row;
    for (int threads : {1, 2, 8}) {
      EXPECT_EQ(row, RunAim(base, w, threads, cache,
                            executor::EngineKind::kBatch))
          << "threads=" << threads << " cache=" << cache;
    }
  }
}

TEST(EquivalenceTest, AimCacheChangesCallCountsNotDecisions) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();

  auto decisions = [&](int threads, size_t cache_entries) {
    storage::Database db = base;
    core::AimOptions options;
    options.num_threads = threads;
    options.what_if_cache_entries = cache_entries;
    core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
    Result<core::AimReport> r = aim.RunOnce(w, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return std::string();
    return AimSignature(r.ValueOrDie(), /*include_counts=*/false) +
           CatalogSignature(db);
  };

  const std::string cached = decisions(1, 4096);
  EXPECT_EQ(cached, decisions(1, 0));
  EXPECT_EQ(cached, decisions(8, 4096));
  EXPECT_EQ(cached, decisions(8, 0));
}

// The exploration gate and ordered deployment are a fourth equivalence
// dimension: with a bandit admission pass and a per-step deployment
// schedule in the loop, decisions (admissions, deferrals, arm state,
// modeled schedule) must still be bit-identical at 1/2/8 threads with
// the what-if cache on or off. Deeper lifecycle coverage lives in
// `ctest -L exploration`.
TEST(EquivalenceTest, ExplorationAndOrderedDeployBitIdentical) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();

  auto run = [&](int threads, size_t cache_entries) {
    storage::Database db = base;
    core::ExplorationOptions gate_options;
    gate_options.enabled = true;
    core::ExplorationGate gate(gate_options);
    core::AimOptions options;
    options.num_threads = threads;
    options.what_if_cache_entries = cache_entries;
    options.deployment.ordered = true;
    core::TuningResources resources;
    resources.exploration_gate = &gate;
    core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options,
                                    resources);
    Result<core::AimReport> r = aim.RunOnce(w, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return std::string();
    const core::AimReport& report = r.ValueOrDie();
    std::ostringstream out;
    out << std::hexfloat;
    out << AimSignature(report, /*include_counts=*/false);
    const core::ExplorationSummary& e = report.exploration;
    out << "gate admit=" << e.admitted << " defer=" << e.deferred
        << " regret=" << e.projected_regret_seconds << "\n";
    for (const core::ArmView& a : gate.arms()) {
      out << "arm " << a.key << " pulls=" << a.pulls
          << " n=" << a.measured_count
          << " sum=" << a.measured_total_seconds << "\n";
    }
    const core::DeploymentReport& d = report.deployment;
    out << "deploy installed=" << d.installed
        << " total=" << d.total_benefit_seconds
        << " t50=" << d.modeled_time_to_half_benefit_seconds
        << " makespan=" << d.modeled_makespan_seconds << "\n";
    for (const core::DeploymentStepResult& s : d.steps) {
      out << "step ";
      AppendIndexDef(&out, s.def);
      out << " slot=" << s.slot << " start=" << s.modeled_start_seconds
          << " finish=" << s.modeled_finish_seconds
          << " cum=" << s.cumulative_benefit_seconds
          << " ok=" << s.installed << "\n";
    }
    return out.str() + CatalogSignature(db);
  };

  for (size_t cache : {size_t{4096}, size_t{0}}) {
    const std::string serial = run(1, cache);
    ASSERT_NE(serial.find("idx "), std::string::npos)
        << "exploration equivalence run recommended nothing:\n" << serial;
    ASSERT_NE(serial.find("step "), std::string::npos)
        << "ordered deployment produced no steps:\n" << serial;
    EXPECT_EQ(serial, run(2, cache)) << "cache=" << cache;
    EXPECT_EQ(serial, run(8, cache)) << "cache=" << cache;
  }
}

// ---------------------------------------------------------------------------
// Sharded pipeline

std::string RunSharded(int threads, size_t cache_entries,
                       const workload::Workload& w, int shard_count = 4) {
  std::vector<storage::Database> dbs = MakeShards(shard_count);
  core::ShardedOptions options;
  options.comprehensive_validation = true;
  options.aim.num_threads = threads;
  options.aim.what_if_cache_entries = cache_entries;
  core::ShardedIndexManager manager(options);
  std::vector<core::Shard> shards;
  for (storage::Database& db : dbs) {
    shards.push_back(core::Shard{&db, nullptr});
  }
  Result<core::ShardedReport> r =
      manager.RunOnce(w, shards, optimizer::CostModel());
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  return ShardedSignature(r.ValueOrDie(), dbs);
}

TEST(EquivalenceTest, ShardedRunOnceBitIdenticalAcrossThreads) {
  FaultRegistry::Instance().DisarmAll();
  const workload::Workload w = EquivalenceWorkload();
  for (size_t cache : {size_t{4096}, size_t{0}}) {
    const std::string serial = RunSharded(1, cache, w);
    ASSERT_NE(serial.find("shard "), std::string::npos);
    EXPECT_EQ(serial, RunSharded(2, cache, w)) << "cache=" << cache;
    EXPECT_EQ(serial, RunSharded(8, cache, w)) << "cache=" << cache;
  }
}

TEST(EquivalenceTest, ShardedRejectionsIdenticalAcrossThreads) {
  FaultRegistry::Instance().DisarmAll();
  // A workload whose only candidate never survives validation on any
  // shard exercises the rejected_by_shards path deterministically: the
  // validation budget rejection must be the same at any thread count.
  workload::Workload w = EquivalenceWorkload();

  auto rejected = [&](int threads) {
    std::vector<storage::Database> dbs = MakeShards(3);
    core::ShardedOptions options;
    options.comprehensive_validation = true;
    options.aim.num_threads = threads;
    core::ShardedIndexManager manager(options);
    std::vector<core::Shard> shards;
    for (storage::Database& db : dbs) {
      shards.push_back(core::Shard{&db, nullptr});
    }
    Result<core::ShardedReport> r =
        manager.RunOnce(w, shards, optimizer::CostModel());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    std::ostringstream out;
    if (r.ok()) {
      for (const core::CandidateIndex& c :
           r.ValueOrDie().rejected_by_shards) {
        AppendIndexDef(&out, c.def);
        out << ";";
      }
    }
    return out.str();
  };

  const std::string serial = rejected(1);
  EXPECT_EQ(serial, rejected(2));
  EXPECT_EQ(serial, rejected(8));
}

// ---------------------------------------------------------------------------
// Continuous tuner: cache carry is a pure optimization too

TEST(EquivalenceTest, TunerCacheCarryDoesNotChangeDecisions) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();

  auto run_intervals = [&](bool carry, int threads) {
    storage::Database db = base;
    core::ContinuousTunerOptions options;
    options.carry_what_if_cache = carry;
    options.aim.num_threads = threads;
    core::ContinuousTuner tuner(&db, optimizer::CostModel(), options);
    std::ostringstream out;
    out << std::hexfloat;
    for (int tick = 0; tick < 3; ++tick) {
      Result<core::IntervalReport> r = tuner.Tick(w, nullptr);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      if (!r.ok()) continue;
      const core::IntervalReport& report = r.ValueOrDie();
      EXPECT_FALSE(report.degraded);
      out << "tick" << tick << " dropped=" << report.dropped.size()
          << " shrunk=" << report.shrunk.size() << "\n";
      out << AimSignature(report.aim, /*include_counts=*/false);
    }
    out << CatalogSignature(db);
    return out.str();
  };

  const std::string cold = run_intervals(false, 1);
  EXPECT_EQ(cold, run_intervals(true, 1));
  EXPECT_EQ(cold, run_intervals(true, 8));
}

// ---------------------------------------------------------------------------
// Tracing is observation only

/// The obs layer's core contract: spans and counters never change a
/// decision. The same runs with a recording tracer installed and without
/// one must produce byte-identical signatures — including the optimizer
/// call and cache counters, which a sloppy instrumentation layer (e.g.
/// one that plans a statement to fingerprint it) would perturb first.
TEST(EquivalenceTest, TracingOnOffBitIdentical) {
  FaultRegistry::Instance().DisarmAll();
  const storage::Database base = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = EquivalenceWorkload();

  const std::string off_aim = RunAim(base, w, 2, 4096);
  const std::string off_sharded = RunSharded(2, 4096, w, 3);

  // Virtual clock: even the tracer's own timestamps are deterministic, so
  // a flaky wall clock can never mask a decision difference.
  obs::Tracer tracer(obs::Tracer::Clock::kVirtual);
  obs::Tracer::Install(&tracer);
  const std::string on_aim = RunAim(base, w, 2, 4096);
  const std::string on_sharded = RunSharded(2, 4096, w, 3);
  obs::Tracer::Install(nullptr);

  EXPECT_EQ(off_aim, on_aim);
  EXPECT_EQ(off_sharded, on_sharded);
  // And the recording side actually recorded, and cleanly.
  EXPECT_GT(tracer.event_count(), 0u);
  EXPECT_TRUE(tracer.CheckBalanced().ok())
      << tracer.CheckBalanced().ToString();
}

}  // namespace
}  // namespace aim
