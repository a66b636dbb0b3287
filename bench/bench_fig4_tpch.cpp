// Figure 4a/4b: TPC-H (statistics at SF 10) — estimated workload cost
// relative to the unindexed configuration, and advisor runtime, as a
// function of the storage budget. AIM vs DTA vs Extend, max width 4
// (the width the paper had to cap DTA at).
#include <thread>

#include "advisors/aim_adapter.h"
#include "advisors/dta.h"
#include "advisors/extend.h"
#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/aim.h"
#include "workload/tpch.h"

using namespace aim;

namespace {

/// One full AIM pass (recommend + clone-validate + apply) on a fresh copy
/// of `base`, at the given engine configuration.
Result<core::AimRunStats> RunEngine(const storage::Database& base,
                                    const workload::Workload& w,
                                    int threads, size_t cache_entries) {
  storage::Database db = base;
  core::AimOptions options;
  options.num_threads = threads;
  options.what_if_cache_entries = cache_entries;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
  Result<core::AimReport> r = aim.RunOnce(w, nullptr);
  if (!r.ok()) return r.status();
  return r.ValueOrDie().stats;
}

/// Parallel what-if engine A/B: the pre-PR serial engine (1 thread, no
/// plan-cost cache) against the parallel+memoizing engine, on a
/// multi-stream TPC-H workload (each statement repeated per stream, as
/// concurrent TPC-H streams repeat them). Emits BENCH_results.json.
void BenchParallelEngine(const storage::Database& db,
                         const workload::Workload& single_stream) {
  constexpr int kStreams = 6;
  bench::Header(
      "Parallel what-if engine — serial/no-cache vs 8 threads + "
      "plan-cost cache (TPC-H, " +
      std::to_string(kStreams) + " streams)");

  workload::Workload streams;
  for (int s = 0; s < kStreams; ++s) {
    for (const workload::Query& q : single_stream.queries) {
      streams.queries.push_back(q);
    }
  }

  Result<core::AimRunStats> serial =
      RunEngine(db, streams, /*threads=*/1, /*cache_entries=*/0);
  Result<core::AimRunStats> parallel =
      RunEngine(db, streams, /*threads=*/8, /*cache_entries=*/4096);
  if (!serial.ok() || !parallel.ok()) {
    std::fprintf(stderr, "engine benchmark failed: %s\n",
                 (serial.ok() ? parallel : serial).status().ToString().c_str());
    return;
  }
  const core::AimRunStats& s = serial.ValueOrDie();
  const core::AimRunStats& p = parallel.ValueOrDie();

  auto row = [](const char* name, const core::AimRunStats& st) {
    std::printf(
        "%-22s total=%7.3fs candgen=%7.3fs ranking=%7.3fs "
        "validation=%7.3fs whatif=%6llu cache_hit=%5.1f%%\n",
        name, st.runtime_seconds, st.candgen_seconds, st.ranking_seconds,
        st.validation_seconds, (unsigned long long)st.what_if_calls,
        100.0 * st.cache_hit_rate());
  };
  row("serial, cache off", s);
  row("8 threads + cache", p);

  const double serial_rv = s.ranking_seconds + s.validation_seconds;
  const double parallel_rv = p.ranking_seconds + p.validation_seconds;
  const double rv_speedup = parallel_rv > 0 ? serial_rv / parallel_rv : 0;
  const double total_speedup =
      p.runtime_seconds > 0 ? s.runtime_seconds / p.runtime_seconds : 0;
  std::printf(
      "\nranking+validation speedup: %.2fx   end-to-end: %.2fx   "
      "whatif calls %llu -> %llu   (%u hardware threads)\n",
      rv_speedup, total_speedup, (unsigned long long)s.what_if_calls,
      (unsigned long long)p.what_if_calls,
      std::thread::hardware_concurrency());

  auto phases = [](const core::AimRunStats& st) {
    bench::JsonObject o;
    o.Add("selection_seconds", st.selection_seconds)
        .Add("candgen_seconds", st.candgen_seconds)
        .Add("ranking_seconds", st.ranking_seconds)
        .Add("merge_seconds", st.merge_seconds)
        .Add("validation_seconds", st.validation_seconds)
        .Add("apply_seconds", st.apply_seconds)
        .Add("runtime_seconds", st.runtime_seconds)
        .Add("what_if_calls", st.what_if_calls)
        .Add("cache_hits", st.cache_hits)
        .Add("cache_misses", st.cache_misses)
        .Add("cache_hit_rate", st.cache_hit_rate());
    return o.ToString();
  };
  bench::JsonObject section;
  section.Add("workload", "tpch")
      .Add("streams", kStreams)
      .Add("queries", streams.queries.size())
      .Add("hardware_concurrency",
           static_cast<int>(std::thread::hardware_concurrency()))
      .Add("serial_threads", 1)
      .Add("parallel_threads", 8)
      .AddRaw("serial_no_cache", phases(s))
      .AddRaw("parallel_cached", phases(p))
      .Add("ranking_validation_speedup", rv_speedup)
      .Add("total_speedup", total_speedup)
      .Add("parallel_cache_hit_rate", p.cache_hit_rate())
      .AddRaw("run_meta", bench::RunMetadataJson(/*threads_used=*/8));
  if (!bench::WriteJsonSection("BENCH_results.json", "fig4_tpch_parallel",
                               section)) {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
  } else {
    std::printf("wrote BENCH_results.json [fig4_tpch_parallel]\n");
  }
}

}  // namespace

int main() {
  bench::Header(
      "Fig 4a/4b — TPC-H SF10: estimated cost & advisor runtime vs "
      "storage budget (AIM / DTA / Extend, width <= 4)");

  storage::Database db;
  workload::TpchOptions tpch;
  tpch.materialized_sf = 0.002;
  tpch.stats_sf = 10.0;
  if (Status s = workload::BuildTpch(&db, tpch); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Result<workload::Workload> w = workload::TpchQueries();
  if (!w.ok()) return 1;

  std::vector<std::unique_ptr<advisors::Advisor>> algos;
  algos.push_back(std::make_unique<advisors::AimAdvisor>(&db));
  algos.push_back(std::make_unique<advisors::DtaAdvisor>());
  algos.push_back(std::make_unique<advisors::ExtendAdvisor>());

  advisors::AdvisorOptions options;
  options.max_index_width = 4;
  options.time_limit_seconds = 20.0;  // the "really high timeout" cap

  const std::vector<double> budgets_mb = {500,  1000, 2000, 4000,
                                          8000, 12000, 15000};
  std::vector<bench::SweepPoint> points =
      bench::RunBudgetSweep(db, w.ValueOrDie(), budgets_mb, &algos,
                            options);
  bench::PrintSweep(points);

  std::printf(
      "\nPaper shape: AIM's cost is at or below DTA/Extend once the\n"
      "budget is reasonably relaxed (>= ~4 GB), may trail at tight\n"
      "budgets (coarser solution granularity), and its runtime stays\n"
      "flat and orders of magnitude below the enumeration-based\n"
      "algorithms.\n");

  BenchParallelEngine(db, w.ValueOrDie());
  return 0;
}
