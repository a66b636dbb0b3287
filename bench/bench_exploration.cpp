// Safe online exploration: (1) ordered deployment vs the single-
// transaction apply — wall-clock time until 50% of the modeled benefit
// is live (the deployment-order scheduler front-loads high-rate builds;
// the single transaction delivers nothing until its one commit); and
// (2) a drifting regression storm through the ContinuousTuner with the
// bandit gate on — per-interval projected regret against the budget,
// rollback/quarantine counts, and the invariant that a quarantined index
// is never applied. Emits the "exploration" section of
// BENCH_results.json (gated by tools/bench_check.py).
#include <chrono>
#include <cstdio>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/continuous.h"
#include "executor/executor.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "storage/index_transaction.h"
#include "workload/demo.h"
#include "workload/monitor.h"

using namespace aim;

namespace {

constexpr uint64_t kRows = 40000;
constexpr int kStormTicks = 12;

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

/// High-weight narrow predicates plus a low-weight wide-key query: the
/// scheduler should front-load the small high-benefit builds and push
/// the big low-rate index last.
workload::Workload DeployWorkload() {
  workload::Workload w;
  (void)w.Add("SELECT id FROM users WHERE org_id = 3", 60.0);
  (void)w.Add("SELECT id FROM users WHERE status = 2 AND score > 500",
              25.0);
  (void)w.Add("SELECT id FROM users WHERE created_at BETWEEN 10 AND 40",
              12.0);
  (void)w.Add("SELECT id FROM users WHERE email LIKE 'user1%'", 2.0);
  return w;
}

struct DeployRun {
  size_t installed = 0;
  double total_benefit = 0.0;
  double wall_total_seconds = 0.0;
  /// Wall seconds until >= 50% of the modeled benefit was live.
  double wall_to_half_seconds = 0.0;
  double modeled_to_half_seconds = 0.0;
  double modeled_makespan_seconds = 0.0;
};

/// `def` as the apply installs it: a real automation index.
catalog::IndexDef AppliedDef(catalog::IndexDef def) {
  def.id = catalog::kInvalidIndex;
  def.hypothetical = false;
  def.created_by_automation = true;
  return def;
}

/// Both sides time the same path — txn.CreateIndex replayed on a fresh
/// copy of `base` — so the speedup measures ordering alone, not whether a
/// side adopted the validation clone's trees.
Result<DeployRun> RunOrdered(const storage::Database& base,
                             const workload::Workload& w) {
  storage::Database db = base;
  core::AimOptions options;
  options.deployment.ordered = true;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  const auto t0 = std::chrono::steady_clock::now();
  Result<core::AimReport> r = aim.RunOnce(w, nullptr);
  if (!r.ok()) return r.status();
  DeployRun run;
  run.wall_total_seconds = SecondsSince(t0);
  const core::DeploymentReport& d = r.ValueOrDie().deployment;
  run.installed = d.installed;
  run.total_benefit = d.total_benefit_seconds;
  run.modeled_to_half_seconds = d.modeled_time_to_half_benefit_seconds;
  run.modeled_makespan_seconds = d.modeled_makespan_seconds;
  // Benefit goes live per step commit: replay the plan's installed steps
  // in order, one transaction each, until half the total modeled benefit
  // is installed.
  storage::Database redo = base;
  const auto apply0 = std::chrono::steady_clock::now();
  run.wall_to_half_seconds = run.wall_total_seconds;
  for (const core::DeploymentStepResult& s : d.steps) {
    if (!s.installed) continue;
    storage::IndexSetTransaction txn(&redo);
    Result<catalog::IndexId> id = txn.CreateIndex(AppliedDef(s.def));
    if (!id.ok()) return id.status();
    txn.Commit();
    if (s.cumulative_benefit_seconds >= 0.5 * run.total_benefit) {
      run.wall_to_half_seconds = SecondsSince(apply0);
      break;
    }
  }
  return run;
}

/// The classic apply: one IndexSetTransaction creating every index,
/// benefit live only at the single commit.
Result<DeployRun> RunSingleTransaction(const storage::Database& base,
                                       const workload::Workload& w) {
  storage::Database db = base;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), {});
  const auto t0 = std::chrono::steady_clock::now();
  Result<core::AimReport> r = aim.RunOnce(w, nullptr);
  if (!r.ok()) return r.status();
  DeployRun run;
  run.wall_total_seconds = SecondsSince(t0);
  run.installed = r.ValueOrDie().recommended.size();
  // All-or-nothing: the first byte of benefit arrives with the last.
  storage::Database redo = base;
  const auto apply0 = std::chrono::steady_clock::now();
  storage::IndexSetTransaction txn(&redo);
  for (const core::CandidateIndex& c : r.ValueOrDie().recommended) {
    Result<catalog::IndexId> id = txn.CreateIndex(AppliedDef(c.def));
    if (!id.ok()) return id.status();
  }
  txn.Commit();
  run.wall_to_half_seconds = SecondsSince(apply0);
  return run;
}

struct StormResult {
  int ticks = 0;
  int rollbacks = 0;
  int quarantined = 0;
  int released = 0;
  int quarantined_applies = 0;  // MUST stay 0
  double max_projected_regret = 0.0;
  double cumulative_projected_regret = 0.0;
  bool regret_bounded = true;
  double wall_seconds = 0.0;
};

/// Drifting regression storm: spikes hit in waves, the table is
/// repopulated (statistics drift) midway. The gate must keep projected
/// per-interval regret within budget (except for the guaranteed top-1
/// admission) and never apply a quarantined index.
Result<StormResult> RunStorm() {
  storage::Database db = workload::MakeUsersDemoDb(2000, /*seed=*/17);
  workload::Workload w = DeployWorkload();
  workload::WorkloadMonitor monitor;
  core::ContinuousTunerOptions options;
  options.exploration.enabled = true;
  options.exploration.quarantine_after_offenses = 2;
  options.aim.deployment.ordered = true;
  options.drop_after_idle_intervals = 100;
  options.shrink_after_idle_intervals = 100;
  const double budget = options.exploration.regret_budget_seconds;
  core::ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  const uint64_t spike_fp = sql::NormalizedFingerprint(w.queries[0].stmt);
  StormResult storm;
  const auto t0 = std::chrono::steady_clock::now();
  for (int tick = 0; tick < kStormTicks; ++tick) {
    if (tick == 7 || tick == 11) {
      // Real statistics drift mid-storm (and once more after the second
      // spike wave, so a quarantine release is exercised too): the table
      // grows, ANALYZE runs.
      executor::Executor exec(&db, optimizer::CostModel());
      for (int i = 0; i < 200; ++i) {
        Result<sql::Statement> ins = sql::Parse(
            "INSERT INTO users (id, org_id, status, score, created_at, "
            "email, payload) VALUES (" +
            std::to_string(5000000 + tick * 1000 + i) +
            ", 1, 2, 3, 4, 'x', 'y')");
        if (!ins.ok()) return ins.status();
        Result<executor::ExecuteResult> r =
            exec.Execute(ins.ValueOrDie());
        if (!r.ok()) return r.status();
      }
      db.AnalyzeAll();
    }
    const bool spike = tick == 2 || tick == 3 || tick == 9 || tick == 10;
    monitor.Reset();
    for (const workload::Query& q : w.queries) {
      const uint64_t fp = sql::NormalizedFingerprint(q.stmt);
      executor::ExecutionMetrics m;
      m.rows_examined = 400;
      m.rows_sent = 4;
      m.cpu_seconds = (spike && fp == spike_fp) ? 5.0 : 0.5;
      for (int i = 0; i < 8; ++i) {
        monitor.RecordKeyed(fp, sql::NormalizedSql(q.stmt), m);
      }
    }
    std::set<uint64_t> quarantined_before;
    if (const core::ExplorationGate* gate = tuner.exploration_gate()) {
      quarantined_before = gate->quarantined_keys();
    }
    Result<core::IntervalReport> r = tuner.Tick(w, &monitor);
    if (!r.ok()) return r.status();
    const core::IntervalReport& report = r.ValueOrDie();
    ++storm.ticks;
    storm.rollbacks += static_cast<int>(report.rolled_back.size());
    storm.quarantined += static_cast<int>(report.quarantined_now.size());
    storm.released += static_cast<int>(report.quarantine_released);
    const core::ExplorationSummary& e = report.aim.exploration;
    storm.max_projected_regret =
        std::max(storm.max_projected_regret, e.projected_regret_seconds);
    storm.cumulative_projected_regret += e.projected_regret_seconds;
    // Soft budget: over-budget is legal only for the guaranteed top-1.
    if (e.projected_regret_seconds > budget + 1e-12 && e.admitted > 1) {
      storm.regret_bounded = false;
    }
    if (report.quarantine_released == 0) {
      for (const core::CandidateIndex& c : report.aim.recommended) {
        if (quarantined_before.count(core::IndexArmKey(c.def)) > 0) {
          ++storm.quarantined_applies;
        }
      }
    }
  }
  storm.wall_seconds = SecondsSince(t0);
  return storm;
}

}  // namespace

int main() {
  bench::Header(
      "Safe online exploration — ordered deployment time-to-benefit vs "
      "single-transaction apply, and regret under a drifting storm");

  const storage::Database base =
      workload::MakeUsersDemoDb(kRows, /*seed=*/23);
  const workload::Workload w = DeployWorkload();

  Result<DeployRun> ordered = RunOrdered(base, w);
  if (!ordered.ok()) {
    std::fprintf(stderr, "ordered run failed: %s\n",
                 ordered.status().ToString().c_str());
    return 1;
  }
  Result<DeployRun> naive = RunSingleTransaction(base, w);
  if (!naive.ok()) {
    std::fprintf(stderr, "single-transaction run failed: %s\n",
                 naive.status().ToString().c_str());
    return 1;
  }
  const DeployRun& o = ordered.ValueOrDie();
  const DeployRun& n = naive.ValueOrDie();
  const double speedup = o.wall_to_half_seconds > 0
                             ? n.wall_to_half_seconds /
                                   o.wall_to_half_seconds
                             : 0.0;
  std::printf(
      "ordered deployment     installs=%zu t50=%8.4fs (modeled %0.3fs / "
      "makespan %0.3fs)\n",
      o.installed, o.wall_to_half_seconds, o.modeled_to_half_seconds,
      o.modeled_makespan_seconds);
  std::printf(
      "single transaction     installs=%zu t50=%8.4fs (benefit arrives "
      "only at commit)\n",
      n.installed, n.wall_to_half_seconds);
  std::printf("time-to-50%%-benefit    %5.2fx earlier under ordered "
              "deployment\n\n",
              speedup);

  Result<StormResult> storm = RunStorm();
  if (!storm.ok()) {
    std::fprintf(stderr, "storm run failed: %s\n",
                 storm.status().ToString().c_str());
    return 1;
  }
  const StormResult& s = storm.ValueOrDie();
  std::printf(
      "drifting storm         ticks=%d rollbacks=%d quarantined=%d "
      "released=%d\n",
      s.ticks, s.rollbacks, s.quarantined, s.released);
  std::printf(
      "regret                 max=%0.4fs cumulative=%0.4fs bounded=%s "
      "quarantined-applies=%d (wall %0.2fs)\n",
      s.max_projected_regret, s.cumulative_projected_regret,
      s.regret_bounded ? "yes" : "NO", s.quarantined_applies,
      s.wall_seconds);

  bench::JsonObject section;
  section.Add("rows", kRows)
      .Add("installs", static_cast<uint64_t>(o.installed))
      .Add("time_to_half_benefit_ordered_seconds", o.wall_to_half_seconds)
      .Add("time_to_half_benefit_single_txn_seconds",
           n.wall_to_half_seconds)
      .Add("time_to_half_benefit_speedup", speedup)
      .Add("modeled_time_to_half_benefit_seconds",
           o.modeled_to_half_seconds)
      .Add("modeled_makespan_seconds", o.modeled_makespan_seconds)
      .Add("storm_ticks", s.ticks)
      .Add("storm_rollbacks", s.rollbacks)
      .Add("storm_quarantined", s.quarantined)
      .Add("storm_released", s.released)
      .Add("max_projected_regret_seconds", s.max_projected_regret)
      .Add("cumulative_projected_regret_seconds",
           s.cumulative_projected_regret)
      .Add("regret_bounded", s.regret_bounded)
      .Add("quarantined_applies", s.quarantined_applies)
      .AddRaw("run_meta", bench::RunMetadataJson(/*threads_used=*/1));
  if (!bench::WriteJsonSection("BENCH_results.json", "exploration",
                               section)) {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
    return 1;
  }
  std::printf("wrote BENCH_results.json [exploration]\n");
  return 0;
}
