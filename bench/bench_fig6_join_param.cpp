// Figure 6: effect of the join parameter j. Two identical machines start
// without secondary indexes under a constant join-heavy workload. One
// gets AIM's configurations with j = 1, 2, 3 in successive phases; the
// other gets the greedy incremental algorithm's (GIA = Extend)
// configuration. The workload is built so that tables joining multiple
// partners need multi-column join-support indexes — the configurations a
// one-column-at-a-time greedy cannot justify incrementally.
#include <algorithm>

#include "advisors/extend.h"
#include "bench/bench_util.h"
#include "core/aim.h"
#include "storage/data_generator.h"
#include "workload/replay.h"

using namespace aim;

namespace {

constexpr int kPhaseLen = 8;
// Phases: [0] unindexed, [1] j=1 / GIA, [2] j=2, [3] j=3.
constexpr int kTicks = 4 * kPhaseLen;

storage::Database BuildStarDb() {
  storage::Database db;
  auto col = [](const char* name, catalog::ColumnType type, uint32_t w) {
    catalog::ColumnDef c;
    c.name = name;
    c.type = type;
    c.avg_width = w;
    return c;
  };
  Rng rng(11);

  // Three small dimensions d1..d3(id PK, a, b), 50 rows each: a has 5
  // distinct values, so an equality filter keeps ~10 rows.
  for (int d = 1; d <= 3; ++d) {
    catalog::TableDef def;
    def.name = 'd' + std::to_string(d);
    def.columns = {col("id", catalog::ColumnType::kInt64, 8),
                   col("a", catalog::ColumnType::kInt64, 4),
                   col("b", catalog::ColumnType::kInt64, 4)};
    def.primary_key = {0};
    const catalog::TableId id = db.CreateTable(std::move(def));
    std::vector<storage::ColumnSpec> specs(3);
    specs[1].ndv = 5;
    specs[2].ndv = 10;
    (void)storage::GenerateRows(&db, id, 50, specs, &rng);
  }
  // Fact table f(id PK, d1_id, d2_id, d3_id, metric), 12k rows. Each
  // dimension key has ndv 50: a single-key index fetches ~240 rows per
  // probe (worse than a scan), but the two-key prefix fetches ~5 — the
  // "no single column is selective enough" trap of Sec. VI-C.
  catalog::TableDef def;
  def.name = "f";
  def.columns = {col("id", catalog::ColumnType::kInt64, 8),
                 col("d1_id", catalog::ColumnType::kInt64, 8),
                 col("d2_id", catalog::ColumnType::kInt64, 8),
                 col("d3_id", catalog::ColumnType::kInt64, 8),
                 col("metric", catalog::ColumnType::kInt64, 8)};
  def.primary_key = {0};
  const catalog::TableId f = db.CreateTable(std::move(def));
  std::vector<storage::ColumnSpec> specs(5);
  specs[1].ndv = 50;
  specs[2].ndv = 50;
  specs[3].ndv = 50;
  specs[4].ndv = 100000;
  (void)storage::GenerateRows(&db, f, 12000, specs, &rng);
  db.AnalyzeAll();
  return db;
}

workload::Workload StarWorkload() {
  workload::Workload w;
  // Two-dimension star joins (the j=2 sweet spot), several variants.
  (void)w.Add(
      "SELECT f.id FROM d1, f, d2 WHERE d1.id = f.d1_id AND "
      "d2.id = f.d2_id AND d1.a = 2 AND d2.a = 3",
      60.0);
  (void)w.Add(
      "SELECT f.metric FROM d2, f, d3 WHERE d2.id = f.d2_id AND "
      "d3.id = f.d3_id AND d2.a = 1 AND d3.a = 4",
      40.0);
  (void)w.Add(
      "SELECT f.id FROM d1, f, d3 WHERE d1.id = f.d1_id AND "
      "d3.id = f.d3_id AND d1.a = 0 AND d3.b = 7",
      30.0);
  // Three-dimension join: only j=3 explores f's full partner powerset.
  (void)w.Add(
      "SELECT f.id FROM d1, f, d2, d3 WHERE d1.id = f.d1_id AND "
      "d2.id = f.d2_id AND d3.id = f.d3_id AND d1.a = 1 AND d2.a = 2 "
      "AND d3.a = 3",
      8.0);
  // Light single-table traffic + writes.
  (void)w.Add("SELECT id FROM d1 WHERE a = 2", 20.0);
  (void)w.Add("UPDATE f SET metric = 1 WHERE id = 77", 10.0);
  return w;
}

void DropAutomationIndexes(storage::Database* db) {
  for (const catalog::IndexDef* idx : db->catalog().AllIndexes(false, false)) {
    if (idx->created_by_automation) (void)db->DropIndex(idx->id);
  }
}

void ApplyConfig(storage::Database* db,
                 const std::vector<catalog::IndexDef>& config) {
  for (catalog::IndexDef def : config) {
    def.id = catalog::kInvalidIndex;
    def.hypothetical = false;
    def.created_by_automation = true;
    (void)db->CreateIndex(std::move(def));
  }
}

double PhaseAvg(const std::vector<workload::ReplayTick>& series,
                int phase, bool cpu) {
  double total = 0;
  int n = 0;
  // Skip the first two ticks of each phase (index build transient).
  for (int t = phase * kPhaseLen + 2; t < (phase + 1) * kPhaseLen; ++t) {
    if (t >= static_cast<int>(series.size())) break;
    total += cpu ? series[t].cpu_utilization_pct
                 : series[t].throughput_qps;
    ++n;
  }
  return n > 0 ? total / n : 0.0;
}

}  // namespace

int main() {
  bench::Header(
      "Fig 6 — effect of the join parameter j: AIM (j=1,2,3 phases) vs "
      "greedy incremental algorithm (GIA/Extend)");

  workload::Workload w = StarWorkload();

  // Machine 1: AIM with growing j. Machine 2: GIA.
  storage::Database aim_db = BuildStarDb();
  storage::Database gia_db = aim_db;

  // Precompute AIM configs for j = 1, 2, 3 (estimate-only, bootstrap).
  std::vector<std::vector<catalog::IndexDef>> aim_configs;
  std::vector<double> aim_runtimes;
  for (int j = 1; j <= 3; ++j) {
    core::AimOptions options;
    options.validate_on_clone = false;
    options.candidates.join_parameter = j;
    core::AutomaticIndexManager aim(&aim_db, optimizer::CostModel(),
                                    options);
    Result<core::AimReport> r = aim.Recommend(w, nullptr);
    std::vector<catalog::IndexDef> config;
    if (r.ok()) {
      for (const auto& c : r.ValueOrDie().recommended) {
        config.push_back(c.def);
      }
      aim_runtimes.push_back(r.ValueOrDie().stats.runtime_seconds);
    }
    aim_configs.push_back(std::move(config));
  }

  // GIA config via Extend.
  optimizer::WhatIfOptimizer what_if(gia_db.catalog(),
                                     optimizer::CostModel());
  advisors::ExtendAdvisor extend;
  advisors::AdvisorOptions ext_options;
  ext_options.max_index_width = 3;
  ext_options.time_limit_seconds = 30.0;
  Result<advisors::AdvisorResult> gia =
      extend.Recommend(w, &what_if, ext_options);
  std::vector<catalog::IndexDef> gia_config =
      gia.ok() ? gia.ValueOrDie().indexes
               : std::vector<catalog::IndexDef>{};

  std::printf("\nconfigurations:\n");
  for (int j = 1; j <= 3; ++j) {
    std::printf("  AIM j=%d (%zu indexes, runtime %.3fs):\n", j,
                aim_configs[j - 1].size(),
                j <= static_cast<int>(aim_runtimes.size())
                    ? aim_runtimes[j - 1]
                    : 0.0);
    for (const auto& def : aim_configs[j - 1]) {
      std::printf("    %s\n",
                  aim_db.catalog().DescribeIndex(def).c_str());
    }
  }
  std::printf("  GIA/Extend (%zu indexes, runtime %.3fs):\n",
              gia_config.size(),
              gia.ok() ? gia.ValueOrDie().runtime_seconds : 0.0);
  for (const auto& def : gia_config) {
    std::printf("    %s\n", gia_db.catalog().DescribeIndex(def).c_str());
  }

  // Replay: phases 0 (unindexed), 1 (j=1 / GIA), 2 (j=2), 3 (j=3).
  workload::ReplayDriver::Options replay;
  replay.offered_qps = 150;
  replay.cpu_capacity_seconds_per_tick = 15.0;

  workload::ReplayDriver aim_driver(&aim_db, optimizer::CostModel(),
                                    replay);
  std::vector<workload::ReplayTick> aim_series = aim_driver.Run(
      w, kTicks, [&](int tick) {
        if (tick % kPhaseLen != 0 || tick == 0) return;
        const int j = tick / kPhaseLen;  // 1, 2, 3
        if (j >= 1 && j <= 3) {
          DropAutomationIndexes(&aim_db);
          ApplyConfig(&aim_db, aim_configs[j - 1]);
        }
      });

  workload::ReplayDriver gia_driver(&gia_db, optimizer::CostModel(),
                                    replay);
  std::vector<workload::ReplayTick> gia_series = gia_driver.Run(
      w, kTicks, [&](int tick) {
        if (tick == kPhaseLen) ApplyConfig(&gia_db, gia_config);
      });

  std::printf("\n%5s %14s %14s %14s %14s\n", "tick", "AIM_qps",
              "GIA_qps", "AIM_cpu%", "GIA_cpu%");
  for (int t = 0; t < kTicks; ++t) {
    const char* marker = "";
    if (t == kPhaseLen) marker = "  <- j=1 / GIA indexes";
    if (t == 2 * kPhaseLen) marker = "  <- j=2";
    if (t == 3 * kPhaseLen) marker = "  <- j=3";
    std::printf("%5d %14.0f %14.0f %14.1f %14.1f%s\n", t,
                aim_series[t].throughput_qps,
                gia_series[t].throughput_qps,
                aim_series[t].cpu_utilization_pct,
                gia_series[t].cpu_utilization_pct, marker);
  }

  const double j1_qps = PhaseAvg(aim_series, 1, false);
  const double j2_qps = PhaseAvg(aim_series, 2, false);
  const double j3_qps = PhaseAvg(aim_series, 3, false);
  const double gia_qps = (PhaseAvg(gia_series, 1, false) +
                          PhaseAvg(gia_series, 2, false) +
                          PhaseAvg(gia_series, 3, false)) /
                         3.0;
  const double j2_cpu = PhaseAvg(aim_series, 2, true);
  const double gia_cpu = PhaseAvg(gia_series, 2, true);
  std::printf("\nsummary:\n");
  std::printf("  AIM j=1 avg qps: %.0f\n", j1_qps);
  std::printf("  AIM j=2 avg qps: %.0f (%+.0f%% vs j=1)\n", j2_qps,
              j1_qps > 0 ? 100.0 * (j2_qps - j1_qps) / j1_qps : 0.0);
  std::printf("  AIM j=3 avg qps: %.0f (%+.0f%% vs j=2)\n", j3_qps,
              j2_qps > 0 ? 100.0 * (j3_qps - j2_qps) / j2_qps : 0.0);
  std::printf("  GIA     avg qps: %.0f (AIM j>=2 is %+.0f%%)\n", gia_qps,
              gia_qps > 0 ? 100.0 * (j2_qps - gia_qps) / gia_qps : 0.0);
  std::printf("  CPU at j=2: AIM %.1f%% vs GIA %.1f%%\n", j2_cpu,
              gia_cpu);
  std::printf(
      "\nPaper shape: j=2 clearly beats j=1 (the paper saw +16%%), the\n"
      "j=2 -> j=3 gain is marginal, and AIM's join-order-aware composite\n"
      "indexes beat the greedy algorithm (paper: +27%% throughput,\n"
      "-4.8%% CPU).\n");
  return 0;
}
