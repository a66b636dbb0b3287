// tpch-validate: cold AutomaticIndexManager::RunOnce (recommend,
// clone-validate, apply), serial, default what-if cache. Every timed
// interval tunes a fresh copy of the same base database, so each one
// repeats the same work and the same decisions.
#include <mutex>
#include <shared_mutex>

#include "common.h"
#include "workload/tpch.h"

namespace perfbench {

using namespace aim;

namespace {

struct Interval {
  bool ok = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  core::AimReport report;
  storage::Database db;
};

}  // namespace

RunResult RunTpchValidate(const RunOptions& opt, LatencyProbe* probe) {
  RunResult out;
  out.threads = 1;
  Tracer tracer(opt.trace);
  Tracer quiet(false);
  LayerData layers;
  const int streams = opt.small ? 2 : 6;
  // The data set is the generator's standard one; the seed draws each
  // stream's order of the 22 templates, as TPC-H's query streams do.
  workload::TpchOptions tpch;
  tpch.materialized_sf = opt.small ? 0.001 : 0.005;
  tpch.stats_sf = 10.0;

  // Set-up: generate + load + analyze (BuildTpch) and parse the
  // multi-stream workload.
  storage::Database base;
  workload::Workload w;
  std::vector<double> setup_s;
  auto setup_once = [&] {
    Span span(&tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    storage::Database db;
    Status built;
    Timed(&tracer, "workload.BuildTpch",
          [&] { built = workload::BuildTpch(&db, tpch); });
    workload::Workload parsed;
    Rng order(opt.seed);
    layers.parse_s.push_back(Timed(&tracer, "sql.parse", [&] {
      for (int s = 0; s < streams; ++s) {
        Result<workload::Workload> stream = workload::TpchQueries();
        if (!stream.ok()) {
          built = stream.status();
          return;
        }
        std::vector<workload::Query> queries = stream.MoveValue().queries;
        order.Shuffle(&queries);
        for (workload::Query& q : queries) {
          parsed.queries.push_back(std::move(q));
        }
      }
    }));
    setup_s.push_back(SecondsSince(t0));
    base = std::move(db);
    w = std::move(parsed);
    return built.ok();
  };
  HostLatency setup_latency, window_latency;
  const bool setup_ok =
      RunSetups(opt.small, setup_once, setup_s, probe, &setup_latency);
  out.Check("setup_ok", setup_ok);
  if (!setup_ok) return out;
  if (opt.trace) {
    for (int i = 0; i < kLayerSamples; ++i) {
      storage::Database copy = base;
      layers.analyze_s.push_back(Timed(&tracer, "catalog.Database.AnalyzeAll",
                                       [&] { copy.AnalyzeAll(); }));
    }
  }

  auto run_interval = [&](Tracer* t) {
    Interval r;
    // The production copy is taken under the base's exclusive latch, as a
    // tick's snapshot would be.
    const double copy_s = Timed(t, "storage.Database.copy", [&] {
      std::unique_lock<std::shared_mutex> lock(base.latch());
      r.db = base;
    });
    if (t->enabled()) {
      layers.copy_s.push_back(copy_s);
      layers.snapshot_hold_s.push_back(copy_s);
    }
    core::AutomaticIndexManager aim(&r.db, optimizer::CostModel());
    Result<core::AimReport> report = Status::Internal("not run");
    const double cpu_at = ProcessCpuSeconds();
    r.wall_s = Timed(t, "core.AutomaticIndexManager.RunOnce",
                     [&] { report = aim.RunOnce(w, nullptr); });
    r.cpu_s = ProcessCpuSeconds() - cpu_at;
    r.ok = report.ok();
    if (r.ok) r.report = report.MoveValue();
    return r;
  };

  // Untimed warm-up: the cold interval, whose replay evidence gives
  // exec_cost_ratio and whose inputs the traced run re-drives.
  Interval cold = run_interval(&quiet);
  ++out.attempted;
  if (!cold.ok) ++out.failed;
  double cpu_before = 0.0;
  double cpu_after = 0.0;
  for (const core::QueryValidation& v : cold.report.validation.per_query) {
    cpu_before += v.cpu_before;
    cpu_after += v.cpu_after;
  }
  const std::vector<std::string> cold_keys = AutomationIndexKeys(cold.db);
  if (opt.trace) RedriveValidation(base, cold.report, &tracer, &layers);

  // Timed window. The probe samples the host about once a second.
  const Clock::time_point origin = Clock::now();
  Periodic probe_due(1.0);
  double cpu_s = 0.0;  // process CPU during the timed intervals
  std::vector<double> wall_s;
  double traced_phase_s = 0.0;
  double traced_wall_s = 0.0;
  uint64_t degraded = 0;
  bool same_set = true;
  uint64_t ddl = 0;
  Interval last;
  for (int i = 0; i < 3 || SecondsSince(origin) < opt.seconds; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    Interval r = run_interval(traced ? &tracer : &quiet);
    if (probe_due.Due() || window_latency.ns.empty()) {
      window_latency.ns.push_back(probe->ChaseNs());
    }
    ++out.attempted;
    if (!r.ok) {
      ++out.failed;
      ++degraded;
      continue;
    }
    wall_s.push_back(r.wall_s);
    cpu_s += r.cpu_s;
    const core::AimRunStats& s = r.report.stats;
    layers.timed.Add(s);
    ++layers.intervals;
    if (opt.trace) {
      (traced ? layers.interval_s : layers.untraced_interval_s)
          .push_back(r.wall_s);
    }
    if (traced) {
      PhaseSums one;
      one.Add(s);
      traced_phase_s += one.phase_s();
      traced_wall_s += r.wall_s;
    }
    same_set = same_set && AutomationIndexKeys(r.db) == cold_keys;
    ddl += r.report.recommended.size();
    last = std::move(r);
  }
  const double window_s = SecondsSince(origin);

  out.Check("no_degraded_intervals", degraded == 0);
  out.Check("recommended_set_identical", same_set && !cold_keys.empty());
  out.Check("automation_indexes_complete", AutomationIndexesComplete(last.db));

  double total_wall = 0.0;
  for (double x : wall_s) total_wall += x;
  const double n = static_cast<double>(wall_s.size());
  const double est_ratio = EstCostRatio(last.db, w);
  const double exec_ratio = cpu_before > 0.0 ? cpu_after / cpu_before : 0.0;
  const double bytes_ratio = AutomationIndexBytes(last.db) / HeapBytes(last.db);
  // The cold interval's initial design counts alongside the timed ones.
  const double ddl_per_interval =
      static_cast<double>(cold.report.recommended.size() + ddl) / (n + 1);

  const core::AimRunStats& cs = cold.report.stats;
  out.counts["whatif_calls"] = static_cast<double>(cs.what_if_calls);
  out.counts["indexes_recommended"] =
      static_cast<double>(cs.indexes_recommended);
  out.counts["indexes_rejected"] =
      static_cast<double>(cs.indexes_rejected_by_validation);
  out.counts["candidates_evaluated"] =
      static_cast<double>(cs.candidates_evaluated);
  out.counts["index_entries_built"] =
      static_cast<double>(AutomationIndexEntries(last.db));
  out.counts["indexes_dropped"] = 0;
  out.counts["indexes_shrunk"] = 0;
  out.counts["est_cost_ratio"] = est_ratio;
  out.counts["exec_cost_ratio"] = exec_ratio;
  out.counts["index_bytes_ratio"] = bytes_ratio;
  out.info["timed_intervals"] = n;
  out.info["window_s"] = window_s;

  if (!opt.trace) {
    // Wall times at the reference memory latency (see LatencyProbe).
    const double interval_s = window_latency.AtReference(Median(wall_s));
    out.info["raw_interval_s"] = Median(wall_s);
    out.Metric("interval_s", interval_s, "s");
    out.Metric("tenant_ticks_per_s",
               total_wall > 0 ? n / window_latency.AtReference(total_wall)
                              : 0.0,
               "1/s");
    ReportBlockedWriter(interval_s, &out);
    out.Metric("est_cost_ratio", est_ratio, "ratio");
    out.Metric("exec_cost_ratio", exec_ratio, "ratio");
    out.Metric("index_bytes_ratio", bytes_ratio, "ratio");
    out.Metric("ddl_per_interval", ddl_per_interval, "count");
  } else {
    layers.coverage = traced_wall_s > 0 ? traced_phase_s / traced_wall_s : 0.0;
    SamplePlanTimes(last.db, w, 5, &tracer, &layers.plan_us);
    layers.heap_bytes = MaterializedHeapBytes(last.db);
    layers.index_bytes = MaterializedIndexBytes(last.db);
    layers.tenants_tuned = layers.intervals;
    layers.degraded = degraded;
    layers.busy_cores = total_wall > 0 ? cpu_s / total_wall : 0.0;
  }

  if (opt.trace) {
    layers.latency_ns = window_latency.MedianNs();
    ReportLayers(layers, &out);
    out.counts["rows_examined"] = static_cast<double>(layers.rows_examined);
    out.counts["rows_examined_before"] =
        static_cast<double>(layers.rows_examined_before);
    out.counts["redrive_entries_built"] =
        static_cast<double>(layers.entries_built);
    if (!opt.trace_path.empty()) tracer.Write(opt.trace_path);
  } else {
    ReportSetup(setup_s, setup_latency, window_latency, &out);
  }
  return out;
}

}  // namespace perfbench
