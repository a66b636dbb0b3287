// fleet-steady: FleetTuner with 2 pool workers over 600 generated tenants
// in 6 schema families. One untimed cold interval, then timed intervals
// over unchanged workloads: the production shape, where most intervals
// change little and what-if planning, incremental candidate generation,
// scheduling and the shared FleetCacheStore do the work.
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "common.h"
#include "core/fleet.h"
#include "workload/tenants.h"

namespace perfbench {

using namespace aim;

namespace {

constexpr int kWorkers = 2;
/// Timed intervals the deterministic counts and quality ratios cover (the
/// window always runs at least this many): four cycles of the tuner's
/// three-interval idle-index GC.
constexpr int kCountedIntervals = 12;

}  // namespace

RunResult RunFleetSteady(const RunOptions& opt, LatencyProbe* probe) {
  RunResult out;
  out.threads = kWorkers;
  Tracer tracer(opt.trace);
  LayerData layers;
  // The fleet is the generator's standard one; the seed draws the order
  // in which tenants register with the tuner (the scheduler's tie-break
  // and the order the shared pool meets them in).
  workload::TenantFleetOptions gen;
  gen.tenants = opt.small ? 60 : 600;
  gen.families = 6;
  gen.scale = 0.3;
  gen.queries_per_tenant = 6;

  // Set-up: generate + load + analyze + parse every tenant.
  std::vector<workload::GeneratedTenant> fleet;
  std::vector<double> setup_s;
  auto setup_once = [&] {
    fleet.clear();  // one fleet in memory at a time
    Result<std::vector<workload::GeneratedTenant>> generated =
        Status::Internal("not run");
    setup_s.push_back(Timed(&tracer, "workload.GenerateTenantFleet", [&] {
      generated = workload::GenerateTenantFleet(gen);
    }));
    if (generated.ok()) fleet = generated.MoveValue();
    return generated.ok();
  };
  HostLatency setup_latency, window_latency;
  const bool setup_ok =
      RunSetups(opt.small, setup_once, setup_s, probe, &setup_latency);
  out.Check("setup_ok", setup_ok && !fleet.empty());
  if (fleet.empty()) return out;
  if (opt.trace) {
    for (int i = 0; i < kLayerSamples; ++i) {
      double parse = 0.0;
      double analyze = 0.0;
      for (const workload::GeneratedTenant& t : fleet) {
        workload::Workload reparsed;
        parse += Timed(&tracer, "sql.parse", [&] {
          for (const workload::Query& q : t.workload.queries) {
            (void)reparsed.Add(q.sql, q.weight);
          }
        });
        storage::Database copy = t.db;
        analyze += Timed(&tracer, "catalog.Database.AnalyzeAll",
                         [&] { copy.AnalyzeAll(); });
      }
      layers.parse_s.push_back(parse);
      layers.analyze_s.push_back(analyze);
    }
  }

  core::FleetTunerOptions options;
  options.num_threads = kWorkers;  // budget unconstrained: tune everyone
  auto tuner = std::make_unique<core::FleetTuner>(options);
  {
    std::vector<workload::GeneratedTenant> shuffled = std::move(fleet);
    Rng order(opt.seed);
    order.Shuffle(&shuffled);
    fleet = std::move(shuffled);
  }
  // Outcomes come back in registration order, the order of `fleet`.
  for (workload::GeneratedTenant& t : fleet) {
    tuner->AddTenant(t.name, &t.db, &t.workload);
  }
  std::vector<storage::Database> before;
  if (opt.trace) {
    for (const workload::GeneratedTenant& t : fleet) before.push_back(t.db);
  }

  // Untimed cold interval.
  Result<core::FleetIntervalReport> cold = Status::Internal("not run");
  Timed(&tracer, "core.FleetTuner.RunInterval",
        [&] { cold = tuner->RunInterval(); });
  ++out.attempted;
  double cpu_before = 0.0;
  double cpu_after = 0.0;
  if (!cold.ok()) {
    ++out.failed;
  } else {
    const core::FleetIntervalReport& report = cold.ValueOrDie();
    for (size_t i = 0; i < report.outcomes.size(); ++i) {
      const core::AimReport& aim = report.outcomes[i].report.aim;
      for (const core::QueryValidation& v : aim.validation.per_query) {
        cpu_before += v.cpu_before;
        cpu_after += v.cpu_after;
      }
      if (opt.trace) RedriveValidation(before[i], aim, &tracer, &layers);
    }
  }
  before.clear();

  // Timed window. The probe samples the host about once a second.
  const Clock::time_point origin = Clock::now();
  Periodic probe_due(1.0);
  double cpu_s = 0.0;  // process CPU during the timed intervals
  std::vector<double> wall_s;
  uint64_t tenants_tuned = 0;
  double traced_phase_s = 0.0;
  double traced_wall_s = 0.0;
  uint64_t degraded = 0;
  uint64_t counted_ddl = 0, counted_whatif = 0, counted_created = 0,
           counted_dropped = 0, counted_shrunk = 0;
  double est_ratio = 0.0;
  double bytes_ratio = 0.0;
  uint64_t entries = 0;
  for (int i = 0; i < kCountedIntervals || SecondsSince(origin) < opt.seconds;
       ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    Tracer quiet(false);
    if (probe_due.Due() || window_latency.ns.empty()) {
      window_latency.ns.push_back(probe->ChaseNs());
    }
    Result<core::FleetIntervalReport> r = Status::Internal("not run");
    const double cpu_at = ProcessCpuSeconds();
    const double wall = Timed(traced ? &tracer : &quiet,
                              "core.FleetTuner.RunInterval",
                              [&] { r = tuner->RunInterval(); });
    cpu_s += ProcessCpuSeconds() - cpu_at;
    ++out.attempted;
    if (!r.ok()) {
      ++out.failed;
      ++degraded;
      continue;
    }
    const core::FleetIntervalReport& report = r.ValueOrDie();
    wall_s.push_back(wall);
    tenants_tuned += report.tenants_tuned;
    degraded += report.degraded_ticks;
    out.attempted += report.tenants_tuned;
    out.failed += report.degraded_ticks;
    ++layers.intervals;
    layers.tenants_tuned += report.tenants_tuned;
    layers.degraded += report.degraded_ticks;
    layers.cache_stores = report.cache_stores;
    PhaseSums interval;
    uint64_t created = 0, dropped = 0, shrunk = 0;
    for (const core::TenantOutcome& o : report.outcomes) {
      if (!o.tuned) continue;
      interval.Add(o.report.aim.stats);
      layers.timed.Add(o.report.aim.stats);
      if (o.cache_shared) ++layers.warm_started;
      created += o.report.aim.recommended.size();
      dropped += o.report.dropped.size();
      shrunk += o.report.shrunk.size();
    }
    layers.dropped += dropped;
    layers.shrunk += shrunk;
    if (opt.trace) {
      (traced ? layers.interval_s : layers.untraced_interval_s)
          .push_back(wall);
    }
    if (traced) {
      traced_phase_s += interval.phase_s();
      for (const core::TenantOutcome& o : report.outcomes) {
        if (o.tuned) traced_wall_s += o.measured_seconds;
      }
    }
    if (i < kCountedIntervals) {
      counted_created += created;
      counted_dropped += dropped;
      counted_shrunk += shrunk;
      counted_ddl += created + dropped + shrunk;
      counted_whatif += interval.whatif_calls;
      out.info["ddl_interval_" + std::to_string(i + 1)] =
          static_cast<double>(created + dropped + shrunk);
    }
    if (i + 1 == kCountedIntervals) {
      // Quality after a fixed number of intervals, so that it does not
      // depend on how many intervals the window held.
      double cost_final = 0.0, cost_start = 0.0, index_bytes = 0.0,
             heap_bytes = 0.0;
      for (const workload::GeneratedTenant& t : fleet) {
        cost_final += WorkloadCost(t.db.catalog(), t.workload);
        cost_start += WorkloadCost(WithoutAutomationIndexes(t.db), t.workload);
        index_bytes += AutomationIndexBytes(t.db);
        heap_bytes += HeapBytes(t.db);
        entries += AutomationIndexEntries(t.db);
      }
      est_ratio = cost_final / cost_start;
      bytes_ratio = index_bytes / heap_bytes;
    }
  }
  const double window_s = SecondsSince(origin);

  bool complete = true;
  for (const workload::GeneratedTenant& t : fleet) {
    complete = complete && AutomationIndexesComplete(t.db);
  }
  out.Check("no_degraded_intervals", degraded == 0);
  out.Check("automation_indexes_complete", complete);

  double total_wall = 0.0;
  for (double x : wall_s) total_wall += x;
  const double exec_ratio = cpu_before > 0.0 ? cpu_after / cpu_before : 0.0;
  // The cold interval's initial design counts alongside the counted ones.
  uint64_t cold_ddl = 0;
  if (cold.ok()) {
    for (const core::TenantOutcome& o : cold.ValueOrDie().outcomes) {
      cold_ddl += o.report.aim.recommended.size() + o.report.dropped.size() +
                  o.report.shrunk.size();
    }
  }
  const double ddl_per_interval =
      static_cast<double>(cold_ddl + counted_ddl) / (kCountedIntervals + 1);

  if (cold.ok()) {
    PhaseSums c;
    for (const core::TenantOutcome& o : cold.ValueOrDie().outcomes) {
      c.Add(o.report.aim.stats);
    }
    out.counts["cold_whatif_calls"] = static_cast<double>(c.whatif_calls);
    out.counts["cold_indexes_recommended"] = static_cast<double>(c.recommended);
  }
  out.counts["whatif_calls"] = static_cast<double>(counted_whatif);
  out.counts["indexes_recommended"] = static_cast<double>(counted_created);
  out.counts["indexes_dropped"] = static_cast<double>(counted_dropped);
  out.counts["indexes_shrunk"] = static_cast<double>(counted_shrunk);
  out.counts["index_entries_built"] = static_cast<double>(entries);
  out.counts["est_cost_ratio"] = est_ratio;
  out.counts["exec_cost_ratio"] = exec_ratio;
  out.counts["index_bytes_ratio"] = bytes_ratio;
  out.counts["ddl_per_interval"] = ddl_per_interval;
  out.info["timed_intervals"] = static_cast<double>(wall_s.size());
  out.info["window_s"] = window_s;

  if (!opt.trace) {
    // Wall times at the reference memory latency (see LatencyProbe).
    const double interval_s = window_latency.AtReference(Median(wall_s));
    out.info["raw_interval_s"] = Median(wall_s);
    out.Metric("interval_s", interval_s, "s");
    out.Metric("tenant_ticks_per_s",
               total_wall > 0 ? static_cast<double>(tenants_tuned) /
                                    window_latency.AtReference(total_wall)
                              : 0.0,
               "1/s");
    ReportBlockedWriter(interval_s, &out);
    out.Metric("est_cost_ratio", est_ratio, "ratio");
    out.Metric("exec_cost_ratio", exec_ratio, "ratio");
    out.Metric("index_bytes_ratio", bytes_ratio, "ratio");
    out.Metric("ddl_per_interval", ddl_per_interval, "count");
  } else {
    layers.coverage =
        traced_wall_s > 0 ? traced_phase_s / traced_wall_s : 0.0;
    double copy_all = 0.0;
    std::vector<bool> sampled(gen.families, false);
    for (workload::GeneratedTenant& t : fleet) {
      const double hold = Timed(&tracer, "storage.Database.copy", [&] {
        std::unique_lock<std::shared_mutex> lock(t.db.latch());
        storage::Database copy = t.db;
      });
      layers.snapshot_hold_s.push_back(hold);
      copy_all += hold;
      layers.heap_bytes += MaterializedHeapBytes(t.db);
      layers.index_bytes += MaterializedIndexBytes(t.db);
      if (!sampled[t.family]) {  // plan timings on one tenant per family
        sampled[t.family] = true;
        SamplePlanTimes(t.db, t.workload, 5, &tracer, &layers.plan_us);
      }
    }
    layers.copy_s.push_back(copy_all);
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
