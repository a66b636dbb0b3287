// Safe-online-exploration suite (ctest -L exploration): the bandit gate,
// the quarantine lifecycle, and ordered deployment, pinned the way every
// decision path in this repo is pinned — deterministic, seeded, and
// bit-identical across thread counts.
//
//   (a) 200+ seeded drift-chaos schedules (workload mix shifts mid-run,
//       schema evolution by repopulation or a new column) assert the
//       tuner NEVER applies a quarantined index, quarantine entries
//       invalidate exactly when the schema/stats fingerprint drifts, and
//       whole-schedule transcripts are bit-identical at 1/2/8 threads.
//   (b) A differential deployment-order test: every order the scheduler
//       could emit converges to the identical final configuration and
//       row fingerprints, while the chosen order's modeled
//       cumulative-benefit curve dominates every other permutation.
//   (c) Unit pins for the regret budget, the offense/quarantine state
//       machine, gate persistence, and per-step rollback under fault
//       injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/snapshot_file.h"
#include "core/continuous.h"
#include "core/deployment_plan.h"
#include "core/exploration.h"
#include "executor/executor.h"
#include "sql/normalizer.h"
#include "storage/index_transaction.h"
#include "tests/test_util.h"
#include "workload/monitor.h"

namespace aim::core {
namespace {

using aim::testing::MakeUsersDb;
using aim::testing::MustParse;
using aim::testing::RowFingerprints;

// ---------------------------------------------------------------------------
// Fixtures

/// Four selective SELECTs over distinct columns: enough distinct
/// candidates for quarantine, ordering, and budget scenarios.
workload::Workload ExplorationWorkload() {
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
  EXPECT_TRUE(w.Add("SELECT id FROM users WHERE score = 250", 8.0).ok());
  return w;
}

/// Feeds one interval of fabricated execution statistics: every query
/// clears the selection and detector thresholds (8 executions, low ddr),
/// and fingerprints in `spiked` run `spike_factor` times hotter — the
/// regression signal.
void FeedInterval(workload::WorkloadMonitor* monitor,
                  const workload::Workload& w,
                  const std::set<uint64_t>& spiked = {},
                  double spike_factor = 10.0) {
  monitor->Reset();
  for (const workload::Query& q : w.queries) {
    const uint64_t fp = sql::NormalizedFingerprint(q.stmt);
    executor::ExecutionMetrics m;
    m.rows_examined = 400;
    m.rows_sent = 4;
    m.cpu_seconds = spiked.count(fp) ? 0.5 * spike_factor : 0.5;
    for (int i = 0; i < 8; ++i) {
      monitor->RecordKeyed(fp, sql::NormalizedSql(q.stmt), m);
    }
  }
}

void AppendDef(std::ostringstream* out, const catalog::IndexDef& def) {
  *out << "t" << def.table;
  for (catalog::ColumnId c : def.columns) *out << "," << c;
}

/// Deterministic transcript of the gate: arms, quarantine, fingerprint.
std::string GateSignature(const ExplorationGate& gate) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "gate fp=" << gate.fingerprint()
      << " scale=" << gate.reward_scale() << "\n";
  for (const ArmView& a : gate.arms()) {
    out << "arm " << a.key << " pulls=" << a.pulls
        << " n=" << a.measured_count << " sum=" << a.measured_total_seconds
        << "\n";
  }
  for (const QuarantineView& q : gate.quarantine()) {
    out << "quar " << q.key << " off=" << q.offenses
        << " q=" << q.quarantined << " fp=" << q.fingerprint << "\n";
  }
  return out.str();
}

/// Everything decision-relevant one interval produced: the applied set,
/// exploration admission numbers, rollbacks/quarantines, and the modeled
/// deployment schedule (wall-clock fields excluded on purpose).
std::string TickSignature(const IntervalReport& report) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "tick degraded=" << report.degraded
      << " released=" << report.quarantine_released << "\n";
  for (const CandidateIndex& c : report.aim.recommended) {
    out << "applied ";
    AppendDef(&out, c.def);
    out << " b=" << c.benefit << " m=" << c.maintenance << "\n";
  }
  for (const catalog::IndexDef& def : report.rolled_back) {
    out << "rolled_back ";
    AppendDef(&out, def);
    out << "\n";
  }
  for (uint64_t key : report.quarantined_now) out << "quar_now " << key
                                                  << "\n";
  const ExplorationSummary& e = report.aim.exploration;
  out << "gatefilter=" << e.candidates_quarantined << " gated=" << e.gated
      << " admit=" << e.admitted << " defer=" << e.deferred
      << " regret=" << e.projected_regret_seconds << "\n";
  const DeploymentReport& d = report.aim.deployment;
  out << "deploy ordered=" << d.ordered << " installed=" << d.installed
      << " failed=" << d.failed_steps << " deferred="
      << d.deferred_for_storage << " total=" << d.total_benefit_seconds
      << " t50=" << d.modeled_time_to_half_benefit_seconds
      << " makespan=" << d.modeled_makespan_seconds << "\n";
  for (const DeploymentStepResult& s : d.steps) {
    out << "step ";
    AppendDef(&out, s.def);
    out << " slot=" << s.slot << " start=" << s.modeled_start_seconds
        << " finish=" << s.modeled_finish_seconds
        << " cum=" << s.cumulative_benefit_seconds
        << " ok=" << s.installed << "\n";
  }
  return out.str();
}

/// Order-insensitive: the *set* of secondary indexes is what converges;
/// creation order (and thus catalog iteration order) legitimately
/// differs across deployment permutations.
std::string FinalCatalogSignature(const storage::Database& db) {
  std::vector<std::string> lines;
  for (const catalog::IndexDef* idx :
       db.catalog().AllIndexes(false, true)) {
    std::ostringstream line;
    AppendDef(&line, *idx);
    lines.push_back(line.str());
  }
  std::sort(lines.begin(), lines.end());
  std::ostringstream out;
  for (const std::string& l : lines) out << "final " << l << "\n";
  return out.str();
}

CandidateIndex MakeCandidate(catalog::TableId table,
                             std::vector<catalog::ColumnId> cols,
                             double benefit, double maintenance,
                             double size_bytes) {
  CandidateIndex c;
  c.def.table = table;
  c.def.columns = std::move(cols);
  c.benefit = benefit;
  c.maintenance = maintenance;
  c.size_bytes = size_bytes;
  return c;
}

// ---------------------------------------------------------------------------
// Arm identity

TEST(IndexArmKeyTest, PureFunctionOfTableAndColumns) {
  catalog::IndexDef a;
  a.table = 2;
  a.columns = {1, 4};
  catalog::IndexDef b = a;
  b.id = 77;
  b.name = "idx_whatever";
  b.hypothetical = true;
  b.created_by_automation = true;
  EXPECT_EQ(IndexArmKey(a), IndexArmKey(b));

  catalog::IndexDef c = a;
  c.columns = {4, 1};  // column order is part of the identity
  EXPECT_NE(IndexArmKey(a), IndexArmKey(c));
  catalog::IndexDef d = a;
  d.table = 3;
  EXPECT_NE(IndexArmKey(a), IndexArmKey(d));
}

// ---------------------------------------------------------------------------
// Regret budget

TEST(ExplorationGateTest, AdmitBoundsPerIntervalRegret) {
  ExplorationOptions options;
  options.enabled = true;
  options.regret_budget_seconds = 0.10;
  options.unproven_risk_fraction = 0.5;
  options.ucb_coefficient = 0.0;  // rank purely by estimate
  ExplorationGate gate(options);

  // Risks: 0.5 * benefit + maintenance = 0.06, 0.055, 0.052 — any two
  // exceed 0.10 with the third, so exactly two are admitted.
  std::vector<CandidateIndex> validated = {
      MakeCandidate(0, {1}, 0.10, 0.010, 1000),
      MakeCandidate(0, {2}, 0.09, 0.010, 1000),
      MakeCandidate(0, {3}, 0.08, 0.012, 1000),
  };
  AdmissionDecision d = gate.Admit(validated);
  ASSERT_EQ(d.admitted.size(), 1u);
  ASSERT_EQ(d.deferred.size(), 2u);
  EXPECT_EQ(d.admitted[0].def.columns, std::vector<catalog::ColumnId>{1});
  EXPECT_LE(d.projected_regret_seconds, options.regret_budget_seconds);

  // Deferral is retry, not rejection: with the first arm installed and
  // out of the pool, the next interval's budget admits the runner-up.
  std::vector<CandidateIndex> next = {validated[1], validated[2]};
  AdmissionDecision d2 = gate.Admit(next);
  EXPECT_EQ(d2.admitted.size(), 1u);
  EXPECT_EQ(d2.admitted[0].def.columns, std::vector<catalog::ColumnId>{2});
}

TEST(ExplorationGateTest, TopArmAlwaysAdmittedUnderTinyBudget) {
  ExplorationOptions options;
  options.enabled = true;
  options.regret_budget_seconds = 1e-9;  // nothing "fits"
  ExplorationGate gate(options);
  AdmissionDecision d =
      gate.Admit({MakeCandidate(0, {1}, 0.5, 0.1, 1000)});
  ASSERT_EQ(d.admitted.size(), 1u);  // soft budget: progress guaranteed
}

TEST(ExplorationGateTest, NonPositiveBudgetIsUnconstrained) {
  ExplorationOptions options;
  options.enabled = true;
  options.regret_budget_seconds = 0.0;
  ExplorationGate gate(options);
  AdmissionDecision d = gate.Admit({
      MakeCandidate(0, {1}, 0.5, 0.1, 1000),
      MakeCandidate(0, {2}, 0.4, 0.1, 1000),
      MakeCandidate(0, {3}, 0.3, 0.1, 1000),
  });
  EXPECT_EQ(d.admitted.size(), 3u);
  EXPECT_TRUE(d.deferred.empty());
}

TEST(ExplorationGateTest, MeasuredArmsShedUnprovenRisk) {
  ExplorationOptions options;
  options.enabled = true;
  options.unproven_risk_fraction = 0.5;
  options.regret_budget_seconds = 0.0;
  ExplorationGate gate(options);
  const CandidateIndex c = MakeCandidate(0, {1}, 0.2, 0.01, 1000);

  AdmissionDecision first = gate.Admit({c});
  const double unproven_risk = first.projected_regret_seconds;
  EXPECT_NEAR(unproven_risk, 0.01 + 0.5 * 0.2, 1e-12);

  // Validated evidence arrives: the arm is measured, risk drops to its
  // maintenance cost alone.
  CloneValidationResult validation;
  CandidateIndex applied = c;
  applied.benefiting_queries = {42};
  QueryValidation qv;
  qv.fingerprint = 42;
  qv.cpu_before = 0.30;
  qv.cpu_after = 0.12;
  validation.per_query = {qv};
  gate.ObserveValidation({applied}, validation);

  AdmissionDecision second = gate.Admit({c});
  EXPECT_NEAR(second.projected_regret_seconds, 0.01, 1e-12);
  ASSERT_EQ(gate.arms().size(), 1u);
  EXPECT_EQ(gate.arms()[0].measured_count, 1u);
  EXPECT_NEAR(gate.arms()[0].measured_total_seconds, 0.18, 1e-12);
}

// ---------------------------------------------------------------------------
// Quarantine lifecycle

TEST(ExplorationGateTest, QuarantineAfterRepeatOffensesAndDriftRelease) {
  ExplorationOptions options;
  options.enabled = true;
  options.quarantine_after_offenses = 2;
  ExplorationGate gate(options);
  gate.SyncFingerprint(111);

  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  EXPECT_FALSE(gate.ObserveRegression(def));  // offense 1: rollback only
  EXPECT_FALSE(gate.IsQuarantined(def));
  EXPECT_TRUE(gate.ObserveRegression(def));  // offense 2: quarantined
  EXPECT_TRUE(gate.IsQuarantined(def));
  EXPECT_EQ(gate.quarantined_keys().size(), 1u);

  // Same fingerprint: the quarantine holds.
  EXPECT_EQ(gate.SyncFingerprint(111), 0u);
  EXPECT_TRUE(gate.IsQuarantined(def));

  // Drift: the evidence predates the new schema/stats — released.
  EXPECT_EQ(gate.SyncFingerprint(222), 1u);
  EXPECT_FALSE(gate.IsQuarantined(def));
  EXPECT_TRUE(gate.quarantined_keys().empty());
}

TEST(ExplorationGateTest, PersistenceRoundTripsArmsAndQuarantine) {
  ExplorationOptions options;
  options.enabled = true;
  options.quarantine_after_offenses = 1;
  ExplorationGate gate(options);
  gate.SyncFingerprint(99);
  gate.ObserveFleetBenefit(0.25);
  catalog::IndexDef def;
  def.table = 1;
  def.columns = {2, 3};
  def.name = "ix_users_a";
  EXPECT_TRUE(gate.ObserveRegression(def));
  gate.Admit({MakeCandidate(1, {4}, 0.3, 0.01, 500)});

  ExplorationGate loaded(options);
  ASSERT_TRUE(loaded.LoadFrom(gate.SaveTo(), 99));
  EXPECT_EQ(GateSignature(loaded), GateSignature(gate));
  EXPECT_TRUE(loaded.IsQuarantined(def));

  // Snapshot-file round trip (fresh path: TempDir persists across runs).
  const std::string path = ::testing::TempDir() + "/aim_gate_state_test.bin";
  std::remove(path.c_str());
  ExplorationGate writer(options);
  writer.SyncFingerprint(99);
  EXPECT_TRUE(writer.ObserveRegression(def));
  ASSERT_TRUE(WriteSnapshotFile(path, writer.SaveTo()).ok());
  ExplorationGate reader(options);
  const std::optional<std::string> image = ReadSnapshotFile(path);
  ASSERT_TRUE(image.has_value());
  ASSERT_TRUE(reader.LoadFrom(*image, 99));
  EXPECT_EQ(GateSignature(reader), GateSignature(writer));
  std::remove(path.c_str());
}

TEST(ExplorationGateTest, CorruptSnapshotColdStarts) {
  const std::string path = ::testing::TempDir() + "/aim_gate_corrupt_test.bin";
  {
    std::ofstream out(path, std::ios::binary);
    out << "not a gate state file";
  }
  ExplorationGate gate;
  const std::optional<std::string> image = ReadSnapshotFile(path);
  ASSERT_TRUE(image.has_value());
  EXPECT_FALSE(gate.LoadFrom(*image, 0));  // rejected, state untouched
  EXPECT_TRUE(gate.arms().empty());
  EXPECT_TRUE(gate.quarantine().empty());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Deployment planning

TEST(DeploymentPlannerTest, SmithsRuleOrdersByBenefitRate) {
  DeploymentOptions options;
  options.ordered = true;
  options.build_bytes_per_second = 1000.0;
  DeploymentPlanner planner(options);
  // Rates (benefit per modeled build second): a=0.5, b=2.0, c=1.0.
  const std::vector<CandidateIndex> approved = {
      MakeCandidate(0, {1}, 1.0, 0, 2000),  // a: 2s build
      MakeCandidate(0, {2}, 2.0, 0, 1000),  // b: 1s build
      MakeCandidate(0, {3}, 1.0, 0, 1000),  // c: 1s build
  };
  DeploymentPlan plan = planner.Plan(approved);
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].index.def.columns,
            std::vector<catalog::ColumnId>{2});
  EXPECT_EQ(plan.steps[1].index.def.columns,
            std::vector<catalog::ColumnId>{3});
  EXPECT_EQ(plan.steps[2].index.def.columns,
            std::vector<catalog::ColumnId>{1});
  EXPECT_DOUBLE_EQ(plan.total_benefit_seconds, 4.0);
  EXPECT_DOUBLE_EQ(plan.makespan_seconds, 4.0);
  // 50% of 4.0 = 2.0 benefit, reached the moment b finishes at t=1 —
  // versus t=3 under the naive (a, b, c) order.
  EXPECT_DOUBLE_EQ(plan.TimeToBenefitFraction(0.5), 1.0);
}

TEST(DeploymentPlannerTest, StorageHeadroomDefersNotFails) {
  DeploymentOptions options;
  options.ordered = true;
  options.storage_headroom_bytes = 2500;
  options.build_bytes_per_second = 1000.0;
  DeploymentPlanner planner(options);
  DeploymentPlan plan = planner.Plan({
      MakeCandidate(0, {1}, 3.0, 0, 2000),  // fits (priority 1)
      MakeCandidate(0, {2}, 1.0, 0, 1000),  // over headroom: deferred
      MakeCandidate(0, {3}, 0.4, 0, 400),   // still fits
  });
  ASSERT_EQ(plan.steps.size(), 2u);
  ASSERT_EQ(plan.deferred_for_storage.size(), 1u);
  EXPECT_EQ(plan.deferred_for_storage[0].def.columns,
            std::vector<catalog::ColumnId>{2});
}

TEST(DeploymentPlannerTest, SlotsOverlapModeledBuilds) {
  DeploymentOptions options;
  options.ordered = true;
  options.max_concurrent_builds = 2;
  options.build_bytes_per_second = 1000.0;
  DeploymentPlanner planner(options);
  DeploymentPlan plan = planner.Plan({
      MakeCandidate(0, {1}, 4.0, 0, 2000),
      MakeCandidate(0, {2}, 1.0, 0, 1000),
      MakeCandidate(0, {3}, 0.5, 0, 1000),
  });
  ASSERT_EQ(plan.steps.size(), 3u);
  EXPECT_EQ(plan.steps[0].slot, 0);
  EXPECT_EQ(plan.steps[1].slot, 1);
  // Third build starts when the 1s slot frees, not after the 2s one.
  EXPECT_DOUBLE_EQ(plan.steps[2].start_seconds, 1.0);
  EXPECT_DOUBLE_EQ(plan.makespan_seconds, 2.0);
}

// The optimality pin behind the differential test: Smith's rule minimizes
// Σ bᵢ·Cᵢ over ALL permutations, i.e. its cumulative-benefit curve
// dominates every order the scheduler could have emitted in aggregate.
TEST(DeploymentPlannerTest, ChosenOrderDominatesEveryPermutation) {
  DeploymentOptions options;
  options.ordered = true;
  options.build_bytes_per_second = 1000.0;
  DeploymentPlanner planner(options);
  Rng rng(7);
  std::vector<CandidateIndex> approved;
  for (catalog::ColumnId c = 1; c <= 4; ++c) {
    approved.push_back(MakeCandidate(0, {c},
                                     0.1 + 0.13 * rng.NextDouble(),
                                     0.0,
                                     500 + 400.0 * rng.NextDouble()));
  }
  DeploymentPlan plan = planner.Plan(approved);
  const auto weighted_completion = [&](const std::vector<size_t>& order) {
    double t = 0.0, sum = 0.0;
    for (size_t i : order) {
      t += planner.ModeledBuildSeconds(approved[i]);
      sum += approved[i].benefit * t;
    }
    return sum;
  };
  double chosen = 0.0;
  for (const DeploymentStep& s : plan.steps) {
    chosen += s.index.benefit * s.finish_seconds;
  }
  std::vector<size_t> perm = {0, 1, 2, 3};
  do {
    EXPECT_LE(chosen, weighted_completion(perm) + 1e-9);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

// ---------------------------------------------------------------------------
// Differential deployment order: any order converges, physically

class DeploymentOrderDifferentialTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeploymentOrderDifferentialTest, AllPermutationsConverge) {
  FaultRegistry::Instance().DisarmAll();
  const uint64_t seed = GetParam();
  const storage::Database base = MakeUsersDb(600, /*seed=*/300 + seed);
  const workload::Workload w = ExplorationWorkload();

  // Learn the approved set on a scratch copy (ordered deployment on, so
  // the applied set is exactly what the scheduler would install).
  std::vector<catalog::IndexDef> approved;
  std::string chosen_catalog;
  {
    storage::Database db = base;
    AimOptions options;
    options.deployment.ordered = true;
    AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
    Result<AimReport> r = aim.RunOnce(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    for (const CandidateIndex& c : r.ValueOrDie().recommended) {
      catalog::IndexDef def = c.def;
      def.hypothetical = false;
      def.id = catalog::kInvalidIndex;
      def.created_by_automation = true;
      approved.push_back(def);
    }
    chosen_catalog = FinalCatalogSignature(db);
  }
  ASSERT_GE(approved.size(), 2u) << "fixture produced too few indexes";
  ASSERT_LE(approved.size(), 5u) << "permutation space too large";

  // Probe queries whose results pin physical correctness. (Statement is
  // move-only: build the vector with push_back.)
  std::vector<sql::Statement> probes;
  probes.push_back(
      MustParse("SELECT id, org_id FROM users WHERE org_id = 3"));
  probes.push_back(MustParse("SELECT id FROM users WHERE score = 250"));
  probes.push_back(
      MustParse("SELECT id FROM users WHERE created_at BETWEEN 10 AND 40"));
  const auto probe_fingerprints = [&](storage::Database* db) {
    std::vector<std::multiset<std::string>> out;
    executor::Executor exec(db, optimizer::CostModel());
    for (const sql::Statement& stmt : probes) {
      Result<executor::ExecuteResult> r = exec.Execute(stmt);
      EXPECT_TRUE(r.ok()) << r.status().ToString();
      out.push_back(r.ok() ? RowFingerprints(r.ValueOrDie())
                           : std::multiset<std::string>{});
    }
    return out;
  };

  // Baseline truth: the unindexed heap.
  storage::Database heap = base;
  const auto truth = probe_fingerprints(&heap);

  std::vector<size_t> perm(approved.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  std::string first_catalog;
  do {
    storage::Database db = base;
    // Per-step transactions, exactly like the ordered apply path.
    for (size_t i : perm) {
      storage::IndexSetTransaction txn(&db);
      Result<catalog::IndexId> id = txn.CreateIndex(approved[i]);
      ASSERT_TRUE(id.ok()) << id.status().ToString();
      txn.Commit();
    }
    const std::string catalog_sig = FinalCatalogSignature(db);
    if (first_catalog.empty()) {
      first_catalog = catalog_sig;
      EXPECT_EQ(catalog_sig, chosen_catalog)
          << "permutation catalog differs from the scheduler's";
    } else {
      EXPECT_EQ(catalog_sig, first_catalog);
    }
    EXPECT_EQ(probe_fingerprints(&db), truth)
        << "an install order changed query results";
  } while (std::next_permutation(perm.begin(), perm.end()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeploymentOrderDifferentialTest,
                         ::testing::Values(0u, 1u, 2u));

// ---------------------------------------------------------------------------
// Per-step rollback under fault injection

TEST(OrderedDeploymentTest, FailedStepRollsBackAloneEarlierInstallsStay) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(500, /*seed=*/7);
  const workload::Workload w = ExplorationWorkload();

  // Fail exactly the second deployment step, hard (non-retriable).
  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  spec.skip = 1;
  spec.fail_times = 1;
  ScopedFault fault("deploy.step", spec);

  AimOptions options;
  options.deployment.ordered = true;
  AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<AimReport> r = aim.RunOnce(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const AimReport& report = r.ValueOrDie();
  ASSERT_GE(report.deployment.steps.size(), 3u);
  EXPECT_EQ(report.deployment.failed_steps, 1u);
  EXPECT_TRUE(report.deployment.steps[0].installed);
  EXPECT_FALSE(report.deployment.steps[1].installed);
  EXPECT_TRUE(report.deployment.steps[2].installed);
  EXPECT_EQ(report.recommended.size(), report.deployment.installed);

  // The failed step's index is absent; the others are materialized.
  for (size_t i = 0; i < report.deployment.steps.size(); ++i) {
    const DeploymentStepResult& s = report.deployment.steps[i];
    const catalog::IndexDef* found =
        db.catalog().FindIndex(s.def.table, s.def.columns);
    if (s.installed) {
      ASSERT_NE(found, nullptr);
      EXPECT_NE(db.btree(found->id), nullptr) << "half-built index";
    } else {
      EXPECT_EQ(found, nullptr) << "failed step leaked its index";
    }
  }
}

// ---------------------------------------------------------------------------
// Drift-chaos schedules: quarantine + bit-identity across threads

struct ScheduleResult {
  std::string signature;
  bool quarantine_triggered = false;
};

enum class DriftKind { kMixShift = 0, kRepopulate = 1, kAddColumn = 2 };

/// One seeded drift-chaos schedule: 6 monitor-driven ticks with a forced
/// regression storm at ticks 2–3 (offense → rollback, repeat offense →
/// quarantine) and a seeded drift event before tick 4. Asserts the tuner
/// never applies (or leaves standing) a quarantined index, and that
/// quarantine survives exactly the fingerprint-preserving drifts.
ScheduleResult RunDriftSchedule(uint64_t seed, int threads) {
  ScheduleResult result;
  storage::Database db = MakeUsersDb(400, /*seed=*/1000 + seed);
  workload::Workload w = ExplorationWorkload();
  workload::WorkloadMonitor monitor;
  Rng rng(seed);

  ContinuousTunerOptions options;
  options.exploration.enabled = true;
  options.exploration.quarantine_after_offenses = 2;
  options.exploration.regret_budget_seconds = 0.0;  // budget pinned in
                                                    // unit tests
  options.aim.deployment.ordered = true;
  options.aim.num_threads = threads;
  options.drop_after_idle_intervals = 100;  // GC out of the picture
  options.shrink_after_idle_intervals = 100;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  // Seeded schedule decisions (identical across thread counts).
  const DriftKind drift = static_cast<DriftKind>(rng.Uniform(3));
  std::set<uint64_t> spiked;
  spiked.insert(sql::NormalizedFingerprint(
      w.queries[rng.Uniform(w.queries.size())].stmt));

  std::ostringstream transcript;
  for (int tick = 0; tick < 6; ++tick) {
    if (tick == 4) {
      // The drift event, between intervals.
      switch (drift) {
        case DriftKind::kMixShift: {
          // Workload mix shifts: weights rotate, one query disappears.
          for (workload::Query& q : w.queries) {
            q.weight = 1.0 + (q.weight * 3.0) / 50.0;
          }
          w.queries.pop_back();
          break;
        }
        case DriftKind::kRepopulate: {
          executor::Executor exec(&db, optimizer::CostModel());
          for (int i = 0; i < 20; ++i) {
            const uint64_t id = 1000000 + seed * 100 + i;
            Result<executor::ExecuteResult> r = exec.Execute(MustParse(
                "INSERT INTO users (id, org_id, status, score, "
                "created_at, email, payload) VALUES (" +
                std::to_string(id) + ", 1, 2, 3, 4, 'x', 'y')"));
            EXPECT_TRUE(r.ok()) << r.status().ToString();
          }
          db.AnalyzeAll();
          break;
        }
        case DriftKind::kAddColumn: {
          catalog::ColumnDef col;
          col.name = "drift_col";
          col.type = catalog::ColumnType::kInt64;
          db.catalog().mutable_table(0)->columns.push_back(col);
          break;
        }
      }
    }
    const bool spike = tick == 2 || tick == 3;
    FeedInterval(&monitor, w, spike ? spiked : std::set<uint64_t>{});

    std::set<uint64_t> quarantined_before;
    if (const ExplorationGate* gate = tuner.exploration_gate()) {
      quarantined_before = gate->quarantined_keys();
    }
    Result<IntervalReport> r = tuner.Tick(w, &monitor);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return result;
    const IntervalReport& report = r.ValueOrDie();
    EXPECT_FALSE(report.degraded) << report.error.ToString();

    // THE invariant: nothing quarantined at tick entry is ever applied —
    // unless the fingerprint drifted this tick and released it first,
    // in which case re-application is legitimate (the evidence expired).
    if (report.quarantine_released == 0) {
      for (const CandidateIndex& c : report.aim.recommended) {
        EXPECT_EQ(quarantined_before.count(IndexArmKey(c.def)), 0u)
            << "tuner applied a quarantined index, seed=" << seed
            << " tick=" << tick;
      }
    }
    // Stronger form: no quarantined index is standing after the tick.
    const ExplorationGate* gate = tuner.exploration_gate();
    const std::set<uint64_t> quarantined_now =
        gate != nullptr ? gate->quarantined_keys() : std::set<uint64_t>{};
    for (const catalog::IndexDef* idx :
         db.catalog().AllIndexes(false, false)) {
      if (!idx->created_by_automation) continue;
      EXPECT_EQ(quarantined_now.count(IndexArmKey(*idx)), 0u)
          << "quarantined index left standing, seed=" << seed
          << " tick=" << tick;
    }
    if (!quarantined_now.empty()) result.quarantine_triggered = true;

    // Quarantine ↔ fingerprint contract at the drift tick: schema/stats
    // drift releases, a pure mix shift does not.
    if (tick == 4 && !quarantined_before.empty()) {
      if (drift == DriftKind::kMixShift) {
        EXPECT_EQ(report.quarantine_released, 0u)
            << "mix shift must not release quarantine, seed=" << seed;
      } else {
        EXPECT_EQ(report.quarantine_released, quarantined_before.size())
            << "schema/stats drift must release quarantine, seed="
            << seed;
      }
    }

    transcript << "== tick " << tick << "\n" << TickSignature(report);
    if (gate != nullptr) transcript << GateSignature(*gate);
  }
  transcript << FinalCatalogSignature(db);
  result.signature = transcript.str();
  return result;
}

/// 25 schedules per shard × 8 shards = 200 seeds, each run at 1, 2, and
/// 8 threads and required to produce byte-identical transcripts.
class DriftChaosTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DriftChaosTest, QuarantineHoldsAndSchedulesAreBitIdentical) {
  FaultRegistry::Instance().DisarmAll();
  const uint64_t shard = GetParam();
  int quarantines = 0;
  for (uint64_t i = 0; i < 25; ++i) {
    const uint64_t seed = shard * 25 + i;
    const ScheduleResult serial = RunDriftSchedule(seed, 1);
    ASSERT_FALSE(serial.signature.empty()) << "seed=" << seed;
    for (int threads : {2, 8}) {
      const ScheduleResult parallel = RunDriftSchedule(seed, threads);
      EXPECT_EQ(serial.signature, parallel.signature)
          << "drift schedule diverged, seed=" << seed
          << " threads=" << threads;
    }
    if (serial.quarantine_triggered) ++quarantines;
  }
  // The invariant must not pass vacuously: the regression storm is
  // engineered to quarantine in every schedule.
  EXPECT_EQ(quarantines, 25) << "shard=" << shard;
}

INSTANTIATE_TEST_SUITE_P(Shards, DriftChaosTest,
                         ::testing::Range<uint64_t>(0, 8));

// ---------------------------------------------------------------------------
// Tuner-level pins that the chaos loop exercises implicitly

TEST(ExplorationTunerTest, RollbackThenQuarantineThenDriftRelease) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(400, /*seed=*/11);
  workload::Workload w = ExplorationWorkload();
  workload::WorkloadMonitor monitor;

  ContinuousTunerOptions options;
  options.exploration.enabled = true;
  options.exploration.quarantine_after_offenses = 2;
  // Unconstrained budget: every candidate installs at once, so the same
  // index is present across both offense intervals (with the default
  // budget metering out one install per tick, no index would accumulate
  // two offenses).
  options.exploration.regret_budget_seconds = 0.0;
  options.aim.deployment.ordered = true;
  options.drop_after_idle_intervals = 100;
  options.shrink_after_idle_intervals = 100;
  ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  const std::set<uint64_t> spiked = {
      sql::NormalizedFingerprint(w.queries[0].stmt)};
  auto tick = [&](bool spike) {
    FeedInterval(&monitor, w, spike ? spiked : std::set<uint64_t>{});
    Result<IntervalReport> r = tuner.Tick(w, &monitor);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.MoveValue();
  };

  IntervalReport t0 = tick(false);
  ASSERT_FALSE(t0.aim.recommended.empty()) << "fixture applied nothing";
  EXPECT_TRUE(t0.aim.deployment.ordered);
  EXPECT_GT(t0.aim.deployment.installed, 0u);
  (void)tick(false);  // second baseline window entry

  IntervalReport t2 = tick(true);  // spike: offense 1 → rollback
  EXPECT_FALSE(t2.rolled_back.empty());
  EXPECT_TRUE(t2.quarantined_now.empty());
  ASSERT_NE(tuner.exploration_gate(), nullptr);
  EXPECT_TRUE(tuner.exploration_gate()->quarantined_keys().empty());

  IntervalReport t3 = tick(true);  // spike again: offense 2 → quarantine
  EXPECT_FALSE(t3.quarantined_now.empty());
  const std::set<uint64_t> quarantined =
      tuner.exploration_gate()->quarantined_keys();
  EXPECT_FALSE(quarantined.empty());

  // While the fingerprint is stable the quarantined indexes stay out.
  IntervalReport t4 = tick(false);
  EXPECT_EQ(t4.quarantine_released, 0u);
  for (const CandidateIndex& c : t4.aim.recommended) {
    EXPECT_EQ(quarantined.count(IndexArmKey(c.def)), 0u);
  }

  // Schema drift: quarantine releases; the arms may compete again.
  catalog::ColumnDef col;
  col.name = "drift_col";
  col.type = catalog::ColumnType::kInt64;
  db.catalog().mutable_table(0)->columns.push_back(col);
  IntervalReport t5 = tick(false);
  EXPECT_EQ(t5.quarantine_released, quarantined.size());
  EXPECT_TRUE(tuner.exploration_gate()->quarantined_keys().empty());
}

TEST(ExplorationTunerTest, GateStatePersistsAcrossTunerRestart) {
  FaultRegistry::Instance().DisarmAll();
  const std::string path =
      ::testing::TempDir() + "/aim_gate_tuner_restart.bin";
  std::remove(path.c_str());
  storage::Database db = MakeUsersDb(400, /*seed=*/13);
  workload::Workload w = ExplorationWorkload();
  workload::WorkloadMonitor monitor;

  ContinuousTunerOptions options;
  options.exploration.enabled = true;
  options.exploration.quarantine_after_offenses = 2;
  options.exploration.regret_budget_seconds = 0.0;
  options.exploration.state_path = path;
  options.aim.deployment.ordered = true;
  options.drop_after_idle_intervals = 100;
  options.shrink_after_idle_intervals = 100;

  const std::set<uint64_t> spiked = {
      sql::NormalizedFingerprint(w.queries[0].stmt)};
  std::set<uint64_t> quarantined;
  {
    ContinuousTuner tuner(&db, optimizer::CostModel(), options);
    for (int tick = 0; tick < 4; ++tick) {
      FeedInterval(&monitor, w,
                   tick >= 2 ? spiked : std::set<uint64_t>{});
      Result<IntervalReport> r = tuner.Tick(w, &monitor);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    ASSERT_NE(tuner.exploration_gate(), nullptr);
    quarantined = tuner.exploration_gate()->quarantined_keys();
    ASSERT_FALSE(quarantined.empty());
  }

  // A restarted tuner warm-starts the quarantine from disk: the banned
  // index does not come back even though the detector history is gone.
  ContinuousTuner restarted(&db, optimizer::CostModel(), options);
  FeedInterval(&monitor, w);
  Result<IntervalReport> r = restarted.Tick(w, &monitor);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(restarted.exploration_gate(), nullptr);
  EXPECT_EQ(restarted.exploration_gate()->quarantined_keys(), quarantined);
  for (const CandidateIndex& c : r.ValueOrDie().aim.recommended) {
    EXPECT_EQ(quarantined.count(IndexArmKey(c.def)), 0u);
  }
  std::remove(path.c_str());
}

TEST(ExplorationTunerTest, FlippedGateStateRestartsCold) {
  FaultRegistry::Instance().DisarmAll();
  const std::string path =
      ::testing::TempDir() + "/aim_gate_tuner_flipped.bin";
  std::remove(path.c_str());
  storage::Database db = MakeUsersDb(400, /*seed=*/13);
  workload::Workload w = ExplorationWorkload();
  workload::WorkloadMonitor monitor;

  ContinuousTunerOptions options;
  options.exploration.enabled = true;
  options.exploration.quarantine_after_offenses = 2;
  options.exploration.regret_budget_seconds = 0.0;
  options.exploration.state_path = path;
  options.aim.deployment.ordered = true;
  options.drop_after_idle_intervals = 100;
  options.shrink_after_idle_intervals = 100;

  const std::set<uint64_t> spiked = {
      sql::NormalizedFingerprint(w.queries[0].stmt)};
  {
    ContinuousTuner tuner(&db, optimizer::CostModel(), options);
    for (int tick = 0; tick < 4; ++tick) {
      FeedInterval(&monitor, w,
                   tick >= 2 ? spiked : std::set<uint64_t>{});
      Result<IntervalReport> r = tuner.Tick(w, &monitor);
      ASSERT_TRUE(r.ok()) << r.status().ToString();
    }
    ASSERT_FALSE(tuner.exploration_gate()->quarantined_keys().empty());
  }

  // Flip one exponent bit of the persisted reward scale (header 20
  // bytes, then the 8-byte fingerprint).
  std::optional<std::string> image = ReadSnapshotFile(path);
  ASSERT_TRUE(image.has_value());
  (*image)[20 + 8 + 7] ^= 0x40;
  ASSERT_TRUE(WriteSnapshotFile(path, *image).ok());

  // A tuner that never persisted, on the same database, workload and
  // statistics, shows what a cold gate decides.
  storage::Database cold_db = db;
  ContinuousTunerOptions cold_options = options;
  cold_options.exploration.state_path.clear();
  ContinuousTuner cold(&cold_db, optimizer::CostModel(), cold_options);
  FeedInterval(&monitor, w);
  Result<IntervalReport> want = cold.Tick(w, &monitor);
  ASSERT_TRUE(want.ok()) << want.status().ToString();

  ContinuousTuner restarted(&db, optimizer::CostModel(), options);
  FeedInterval(&monitor, w);
  Result<IntervalReport> got = restarted.Tick(w, &monitor);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got.ValueOrDie().degraded);
  EXPECT_TRUE(restarted.exploration_gate()->quarantined_keys().empty());
  EXPECT_EQ(GateSignature(*restarted.exploration_gate()),
            GateSignature(*cold.exploration_gate()));
  EXPECT_EQ(TickSignature(got.ValueOrDie()), TickSignature(want.ValueOrDie()));
  std::remove(path.c_str());
}

}  // namespace
}  // namespace aim::core
