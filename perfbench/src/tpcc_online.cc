// tpcc-online: ContinuousTuner with online_apply on a live TPC-C database,
// ticking on a fixed cadence beside one open-loop writer that runs
// NewOrder/Payment at a fixed rate. The only workload where the latch,
// the per-tick snapshot copy and OnlineIndexBuilder sit on the writer's
// blocking path.
#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <thread>

#include "common.h"
#include "core/continuous.h"
#include "workload/tpcc_oltp.h"

namespace perfbench {

using namespace aim;

namespace {

constexpr double kTickPeriodS = 0.150;
/// Ticks per episode. Each episode restarts from the loaded database, so
/// the heap the tick copies grows the same way in every episode (about
/// threefold over 50 ticks) instead of without bound over the run.
constexpr int kTicksPerEpisode = 50;
/// Memory-latency probe chases before the first episode and after each.
constexpr int kProbesPerEpisode = 10;
/// Snapshot-hold samples taken at the end of each traced episode.
constexpr int kSnapshotSamples = 3;

/// The online-build benchmark's scale and data set: ~24.6k rows.
workload::TpccConfig Scale(bool small) {
  workload::TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 8;
  config.customers_per_district = 50;
  config.items = 200;
  config.initial_orders_per_district = small ? 30 : 120;
  config.seed = 7;
  return config;
}

Clock::time_point At(Clock::time_point origin, double seconds) {
  return origin + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(seconds));
}

/// What one episode (cold tick, then timed ticks beside the writer) saw.
struct Episode {
  bool cold_ok = false;
  core::IntervalReport cold;
  std::vector<WriteSample> writes;
  std::vector<Window> windows;
  std::vector<double> wall_s;
  uint64_t created = 0, dropped = 0, shrunk = 0, degraded = 0;
  uint64_t writer_errors = 0, whatif_calls = 0;
  double traced_phase_s = 0.0, traced_wall_s = 0.0;
  double window_s = 0.0, cpu_s = 0.0;
  bool complete = false;
  double est_ratio = 0.0, bytes_ratio = 0.0, heap_bytes = 0.0,
         index_bytes = 0.0;
  uint64_t entries = 0;
};

/// One episode on a fresh copy of `base`: an untimed cold tick before the
/// writer starts (the initial design), then `ticks` ticks on the fixed
/// cadence beside the open-loop writer. The seed draws the writer's
/// transaction stream, the same in every episode.
Episode RunEpisode(const workload::TpccDatabase& base,
                   const workload::Workload& w, const RunOptions& opt,
                   int ticks, bool first, Tracer* tracer, LayerData* layers) {
  Episode e;
  workload::TpccDatabase tpcc = base;
  storage::Database& db = tpcc.db();
  core::ContinuousTunerOptions options;
  options.online_apply = true;
  core::ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  Result<core::IntervalReport> cold = tuner.Tick(w, nullptr);
  e.cold_ok = cold.ok() && !cold.ValueOrDie().degraded;
  if (e.cold_ok) e.cold = cold.MoveValue();
  if (first && e.cold_ok && opt.trace) {
    RedriveValidation(base.db(), e.cold.aim, tracer, layers);
  }

  const uint64_t txns = static_cast<uint64_t>(
      static_cast<double>(ticks) * kTickPeriodS * kWriterTxnPerSecond);
  e.writes.resize(txns);
  const Clock::time_point origin =
      Clock::now() + std::chrono::milliseconds(20);
  const double cpu0 = ProcessCpuSeconds();
  std::thread writer([&] {
    Rng rng(opt.seed * 0x9E3779B97F4A7C15ull + 1);
    for (uint64_t k = 0; k < txns; ++k) {
      const double due = static_cast<double>(k) / kWriterTxnPerSecond;
      const Clock::time_point due_at = At(origin, due);
      while (Clock::now() < due_at) {
      }
      WriteSample& s = e.writes[k];
      s.due_s = due;
      s.start_s = SecondsSince(origin);
      const Status st = rng.Uniform(88) < 45 ? tpcc.NewOrder(&rng)
                                             : tpcc.Payment(&rng);
      s.end_s = SecondsSince(origin);
      if (!st.ok()) ++e.writer_errors;
    }
  });

  for (int j = 0; j < ticks; ++j) {
    std::this_thread::sleep_until(At(origin, j * kTickPeriodS));
    const bool traced = opt.trace && j % 2 == 1;
    Tracer quiet(false);
    Window window;
    window.start_s = SecondsSince(origin);
    Result<core::IntervalReport> r = Status::Internal("not run");
    const double wall = Timed(traced ? tracer : &quiet,
                              "core.ContinuousTuner.Tick",
                              [&] { r = tuner.Tick(w, nullptr); });
    window.end_s = window.start_s + wall;
    if (!r.ok() || r.ValueOrDie().degraded) {
      ++e.degraded;
      continue;
    }
    const core::IntervalReport& report = r.ValueOrDie();
    e.wall_s.push_back(wall);
    e.windows.push_back(window);
    layers->timed.Add(report.aim.stats);
    e.whatif_calls += report.aim.stats.what_if_calls;
    ++layers->intervals;
    ++layers->tenants_tuned;
    if (report.cache_entries_carried > 0) ++layers->warm_started;
    e.created += report.aim.recommended.size();
    e.dropped += report.dropped.size();
    e.shrunk += report.shrunk.size();
    if (opt.trace) {
      (traced ? layers->interval_s : layers->untraced_interval_s)
          .push_back(wall);
    }
    if (traced) {
      PhaseSums one;
      one.Add(report.aim.stats);
      e.traced_phase_s += one.phase_s();
      e.traced_wall_s += wall;
    }
  }
  writer.join();
  e.cpu_s = ProcessCpuSeconds() - cpu0;
  e.window_s = SecondsSince(origin);
  for (int i = 0; opt.trace && i < kSnapshotSamples; ++i) {
    // What a tick's snapshot costs the writer: a copy of the live
    // database, at the episode's final size, under the exclusive latch.
    // Taken once the writer has stopped, so the sample stalls no one.
    storage::Database copy;
    layers->snapshot_hold_s.push_back(
        Timed(tracer, "storage.Database.copy", [&] {
          std::unique_lock<std::shared_mutex> lock(db.latch());
          copy = db;
        }));
    layers->copy_s.push_back(layers->snapshot_hold_s.back());
  }
  e.complete = AutomationIndexesComplete(db);
  e.est_ratio = EstCostRatio(db, w);
  e.bytes_ratio = AutomationIndexBytes(db) / HeapBytes(db);
  e.entries = AutomationIndexEntries(db);
  e.heap_bytes = MaterializedHeapBytes(db);
  e.index_bytes = MaterializedIndexBytes(db);
  if (first && opt.trace) SamplePlanTimes(db, w, 20, tracer, &layers->plan_us);
  return e;
}

}  // namespace

RunResult RunTpccOnline(const RunOptions& opt, LatencyProbe* probe) {
  RunResult out;
  out.threads = 2;  // the tuner and the writer
  Tracer tracer(opt.trace);
  LayerData layers;

  // Set-up: generate + load + analyze (Load) and parse the analytical
  // workload.
  std::unique_ptr<workload::TpccDatabase> base;
  workload::Workload w;
  std::vector<double> setup_s;
  auto setup_once = [&] {
    Span span(&tracer, "setup");
    const Clock::time_point t0 = Clock::now();
    auto tpcc = std::make_unique<workload::TpccDatabase>(Scale(opt.small));
    Status loaded;
    Timed(&tracer, "workload.TpccDatabase.Load",
          [&] { loaded = tpcc->Load(); });
    Result<workload::Workload> parsed = Status::Internal("not run");
    layers.parse_s.push_back(Timed(&tracer, "sql.parse", [&] {
      parsed = tpcc->AnalyticalWorkload();
    }));
    setup_s.push_back(SecondsSince(t0));
    if (!loaded.ok() || !parsed.ok()) return false;
    base = std::move(tpcc);
    w = parsed.MoveValue();
    return true;
  };
  HostLatency setup_latency, window_latency;
  const bool setup_ok =
      RunSetups(opt.small, setup_once, setup_s, probe, &setup_latency);
  out.Check("setup_ok", setup_ok && base != nullptr);
  if (base == nullptr) return out;
  if (opt.trace) {
    for (int i = 0; i < kLayerSamples; ++i) {
      storage::Database copy = base->db();
      layers.analyze_s.push_back(Timed(&tracer, "catalog.Database.AnalyzeAll",
                                       [&] { copy.AnalyzeAll(); }));
    }
  }

  const int ticks = opt.small ? 10 : kTicksPerEpisode;
  const int episodes = std::max(
      1, static_cast<int>(opt.seconds / (ticks * kTickPeriodS)));
  std::vector<double> wall_s, lateness, worst;
  double traced_phase_s = 0.0, traced_wall_s = 0.0, window_s = 0.0,
         cpu_s = 0.0;
  uint64_t degraded = 0, writer_errors = 0, dropped = 0, shrunk = 0;
  bool complete = true;
  Episode first;
  auto sample_latency = [&] {
    for (int i = 0; i < kProbesPerEpisode; ++i) {
      window_latency.ns.push_back(probe->ChaseNs());
    }
  };
  sample_latency();
  for (int k = 0; k < episodes; ++k) {
    Episode e = RunEpisode(*base, w, opt, ticks, k == 0, &tracer, &layers);
    sample_latency();
    out.attempted += 1 + ticks + e.writes.size();
    out.failed += (e.cold_ok ? 0 : 1) + e.degraded + e.writer_errors;
    degraded += (e.cold_ok ? 0 : 1) + e.degraded;
    writer_errors += e.writer_errors;
    dropped += e.dropped;
    shrunk += e.shrunk;
    complete = complete && e.complete;
    wall_s.insert(wall_s.end(), e.wall_s.begin(), e.wall_s.end());
    CollectLateness(e.writes, e.windows, &lateness, &worst);
    traced_phase_s += e.traced_phase_s;
    traced_wall_s += e.traced_wall_s;
    window_s += e.window_s;
    cpu_s += e.cpu_s;
    layers.writes.insert(layers.writes.end(), e.writes.begin(),
                         e.writes.end());
    if (k == 0) first = std::move(e);
  }
  layers.dropped = dropped;
  layers.shrunk = shrunk;

  out.Check("no_degraded_intervals", degraded == 0);
  out.Check("automation_indexes_complete", complete);
  out.Check("writer_errors_zero", writer_errors == 0);

  // Quality and counts come from the first episode; every episode gets
  // the same inputs.
  double cpu_before = 0.0;
  double cpu_after = 0.0;
  for (const core::QueryValidation& v : first.cold.aim.validation.per_query) {
    cpu_before += v.cpu_before;
    cpu_after += v.cpu_after;
  }
  const double exec_ratio = cpu_before > 0.0 ? cpu_after / cpu_before : 0.0;
  // The cold tick's initial design counts alongside the timed ticks.
  const uint64_t cold_ddl = first.cold.aim.recommended.size() +
                            first.cold.dropped.size() +
                            first.cold.shrunk.size();
  const double ddl_per_interval =
      static_cast<double>(cold_ddl + first.created + first.dropped +
                          first.shrunk) /
      (ticks + 1);
  double total_wall = 0.0;
  for (double x : wall_s) total_wall += x;
  const double n = static_cast<double>(wall_s.size());

  const core::AimRunStats& cs = first.cold.aim.stats;
  out.counts["cold_whatif_calls"] = static_cast<double>(cs.what_if_calls);
  out.counts["cold_indexes_recommended"] =
      static_cast<double>(cs.indexes_recommended);
  out.counts["whatif_calls"] = static_cast<double>(first.whatif_calls);
  out.counts["indexes_recommended"] = static_cast<double>(first.created);
  out.counts["indexes_dropped"] = static_cast<double>(first.dropped);
  out.counts["indexes_shrunk"] = static_cast<double>(first.shrunk);
  out.counts["index_entries_built"] = static_cast<double>(first.entries);
  out.counts["est_cost_ratio"] = first.est_ratio;
  out.counts["exec_cost_ratio"] = exec_ratio;
  out.counts["index_bytes_ratio"] = first.bytes_ratio;
  out.counts["ddl_per_interval"] = ddl_per_interval;
  out.info["episodes"] = episodes;
  out.info["timed_intervals"] = n;
  out.info["window_s"] = window_s;

  if (!opt.trace) {
    // Raw wall times. A tick copies a database of tens of MiB, which the
    // last-level cache holds, so its time does not follow the probe's
    // memory latency (ten seeds: latency 287-363 ns, median tick
    // 68-81 ms with no trend; correcting nearly doubled the spread). The
    // probe's figures are reported, not applied.
    out.Metric("interval_s", Median(wall_s), "s");
    out.Metric("tenant_ticks_per_s", total_wall > 0 ? n / total_wall : 0.0,
               "1/s");
    ReportWriterEndToEnd(lateness, worst, &out);
    out.Metric("est_cost_ratio", first.est_ratio, "ratio");
    out.Metric("exec_cost_ratio", exec_ratio, "ratio");
    out.Metric("index_bytes_ratio", first.bytes_ratio, "ratio");
    out.Metric("ddl_per_interval", ddl_per_interval, "count");
  }

  if (opt.trace) {
    layers.coverage =
        traced_wall_s > 0 ? traced_phase_s / traced_wall_s : 0.0;
    layers.heap_bytes = first.heap_bytes;
    layers.index_bytes = first.index_bytes;
    layers.degraded = degraded;
    layers.busy_cores = window_s > 0 ? cpu_s / window_s : 0.0;
    layers.latency_ns = window_latency.MedianNs();
    ReportLayers(layers, &out);
    out.counts["rows_examined"] = static_cast<double>(layers.rows_examined);
    out.counts["rows_examined_before"] =
        static_cast<double>(layers.rows_examined_before);
    out.counts["redrive_entries_built"] =
        static_cast<double>(layers.entries_built);
    if (!opt.trace_path.empty()) tracer.Write(opt.trace_path);
  } else {
    out.Metric("setup_s", Median(setup_s), "s");
    out.info["setup_latency_ns"] = setup_latency.MedianNs();
    out.info["latency_ns"] = window_latency.MedianNs();
  }
  return out;
}

}  // namespace perfbench
