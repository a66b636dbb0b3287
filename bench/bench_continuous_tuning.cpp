// Section VI-D: continuous index tuning. A mostly well-indexed database
// receives periodic "code pushes" introducing queries without supporting
// indexes. AIM runs at the end of every statistics interval. We compare
// total CPU against an identical untuned machine and report the CPU
// saving plus the distribution of per-query improvements (the paper:
// ~2% CPU capacity saved, ~31% of improved queries >= 10x better).
#include <map>

#include "bench/bench_util.h"
#include "core/continuous.h"
#include "workload/demo.h"
#include "workload/replay.h"

using namespace aim;

namespace {

constexpr int kIntervals = 12;

/// The interval's workload: a well-served base load plus the queries
/// introduced by code pushes so far.
workload::Workload IntervalWorkload(int interval) {
  workload::Workload w;
  // Base load (indexes exist from the start): the bulk of the traffic.
  (void)w.Add("SELECT id FROM users WHERE org_id = 5", 2500.0);
  (void)w.Add("SELECT id FROM users WHERE org_id = 9 AND status = 1",
              1500.0);
  (void)w.Add("SELECT email FROM users WHERE created_at = 1234", 900.0);
  (void)w.Add("UPDATE users SET score = 2 WHERE id = 42", 600.0);
  if (interval >= 3) {
    // Push 1: a point lookup by score lands without an index (an
    // order-of-magnitude improvement once indexed) and a wide range
    // report (only a moderate win: most of the table qualifies).
    (void)w.Add("SELECT id FROM users WHERE score = 77", 40.0);
    (void)w.Add("SELECT id FROM users WHERE score > 50", 30.0);
  }
  if (interval >= 7) {
    // Push 2: a sort-and-limit feature query plus an email lookup
    // (10x+), and a broad scan with a weak filter (moderate).
    (void)w.Add(
        "SELECT id FROM users WHERE status = 3 ORDER BY created_at DESC "
        "LIMIT 20",
        30.0);
    (void)w.Add("SELECT payload FROM users WHERE email = 'user500'",
                25.0);
    (void)w.Add("SELECT id FROM users WHERE created_at > 3000", 25.0);
  }
  return w;
}

void ApplyBaseIndexes(storage::Database* db) {
  auto add = [&](std::vector<catalog::ColumnId> cols) {
    catalog::IndexDef def;
    def.table = 0;
    def.columns = std::move(cols);
    (void)db->CreateIndex(std::move(def));
  };
  add({1});     // org_id
  add({1, 2});  // org_id, status
  add({4});     // created_at
}

}  // namespace

int main() {
  bench::Header(
      "Sec VI-D — continuous tuning: CPU savings and per-query "
      "improvement distribution");

  storage::Database tuned = workload::MakeUsersDemoDb(15000);
  ApplyBaseIndexes(&tuned);
  storage::Database untuned = tuned;

  core::ContinuousTunerOptions tuner_options;
  tuner_options.aim.validate_on_clone = false;
  tuner_options.aim.selection.min_benefit_cores = 1e-9;
  tuner_options.aim.selection.min_executions = 1;
  tuner_options.drop_after_idle_intervals = 4;
  core::ContinuousTuner tuner(&tuned, optimizer::CostModel(),
                              tuner_options);

  workload::ReplayDriver::Options replay;
  replay.offered_qps = 600;
  replay.cpu_capacity_seconds_per_tick = 10.0;  // unsaturated: fixed load

  double tuned_cpu_total = 0.0;
  double untuned_cpu_total = 0.0;
  // Per-query cpu_avg when first seen (untuned path) and last seen
  // (tuned path), for the improvement distribution.
  std::map<uint64_t, double> first_cpu;
  std::map<uint64_t, double> last_cpu;
  std::map<uint64_t, std::string> names;

  std::printf("%9s %12s %12s %9s %s\n", "interval", "tuned_cpu",
              "untuned_cpu", "saved%", "actions");
  for (int interval = 0; interval < kIntervals; ++interval) {
    workload::Workload w = IntervalWorkload(interval);

    workload::ReplayDriver tuned_driver(&tuned, optimizer::CostModel(),
                                        replay);
    std::vector<workload::ReplayTick> tuned_ticks =
        tuned_driver.Run(w, 1);
    workload::ReplayDriver untuned_driver(&untuned,
                                          optimizer::CostModel(), replay);
    std::vector<workload::ReplayTick> untuned_ticks =
        untuned_driver.Run(w, 1);

    double tuned_cpu = 0.0;
    double untuned_cpu = 0.0;
    for (const auto& s : tuned_driver.monitor().Snapshot()) {
      tuned_cpu += s.total_cpu_seconds;
      if (first_cpu.count(s.fingerprint) > 0) {
        last_cpu[s.fingerprint] = s.cpu_avg();
      }
      names[s.fingerprint] = s.normalized_sql;
    }
    for (const auto& s : untuned_driver.monitor().Snapshot()) {
      untuned_cpu += s.total_cpu_seconds;
      if (first_cpu.count(s.fingerprint) == 0) {
        first_cpu[s.fingerprint] = s.cpu_avg();
        names[s.fingerprint] = s.normalized_sql;
      }
    }
    tuned_cpu_total += tuned_cpu;
    untuned_cpu_total += untuned_cpu;

    // End-of-interval tuning pass on the observed statistics.
    Result<core::IntervalReport> report =
        tuner.Tick(w, &tuned_driver.monitor());
    std::string actions;
    if (report.ok()) {
      for (const auto& c : report.ValueOrDie().aim.recommended) {
        actions += '+' + tuned.catalog().DescribeIndex(c.def) + ' ';
      }
      for (const auto& d : report.ValueOrDie().dropped) {
        actions += '-' + tuned.catalog().DescribeIndex(d) + ' ';
      }
    }
    std::printf("%9d %12.4f %12.4f %8.1f%% %s\n", interval, tuned_cpu,
                untuned_cpu,
                untuned_cpu > 0
                    ? 100.0 * (untuned_cpu - tuned_cpu) / untuned_cpu
                    : 0.0,
                actions.c_str());
  }

  std::printf("\noverall CPU saved by continuous tuning: %.1f%%\n",
              untuned_cpu_total > 0
                  ? 100.0 * (untuned_cpu_total - tuned_cpu_total) /
                        untuned_cpu_total
                  : 0.0);

  // Improvement distribution over queries that got better.
  int improved = 0;
  int order_of_magnitude = 0;
  std::printf("\nper-query improvements (tuned steady-state vs "
              "first-seen cost):\n");
  for (const auto& [fp, before] : first_cpu) {
    auto it = last_cpu.find(fp);
    if (it == last_cpu.end() || it->second <= 0 || before <= 0) continue;
    const double factor = before / it->second;
    if (factor > 1.05) {
      ++improved;
      if (factor >= 10.0) ++order_of_magnitude;
      std::printf("  %5.1fx  %.60s\n", factor, names[fp].c_str());
    }
  }
  if (improved > 0) {
    std::printf(
        "\n%d queries improved; %d (%.0f%%) by an order of magnitude or "
        "more (paper: ~31%% of improved queries >= 10x)\n",
        improved, order_of_magnitude,
        100.0 * order_of_magnitude / improved);
  }
  return 0;
}
