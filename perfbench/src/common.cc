#include "common.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "executor/executor.h"
#include "optimizer/what_if.h"
#include "storage/online_index_builder.h"

namespace perfbench {

using aim::catalog::IndexDef;
using aim::storage::Database;

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(i, v.size() - 1)];
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

int Tracer::Begin(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.id = static_cast<int>(spans_.size());
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_s = SecondsSince(t0_);
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  return spans_.back().id;
}

void Tracer::End(int id) {
  spans_[id].end_s = SecondsSince(t0_);
  // Spans nest strictly (RAII scopes on one thread).
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "[\n");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    std::fprintf(f,
                 "  {\"name\": \"%s\", \"id\": %d, \"parent\": %d, "
                 "\"start_s\": %.9f, \"end_s\": %.9f}%s\n",
                 s.name.c_str(), s.id, s.parent, s.start_s, s.end_s,
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  return std::fclose(f) == 0;
}

bool AutomationIndexesComplete(const Database& db) {
  for (const IndexDef* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->created_by_automation) continue;
    const aim::storage::BTreeIndex* tree = db.btree(idx->id);
    if (tree == nullptr ||
        tree->entry_count() != db.heap(idx->table).live_count()) {
      return false;
    }
  }
  return true;
}

double WorkloadCost(const aim::catalog::Catalog& catalog,
                    const aim::workload::Workload& w) {
  aim::optimizer::WhatIfOptimizer what_if(catalog,
                                          aim::optimizer::CostModel());
  aim::Result<double> cost = what_if.WorkloadCost(w.statements(), w.weights());
  return cost.ok() ? cost.ValueOrDie() : std::nan("");
}

aim::catalog::Catalog WithoutAutomationIndexes(const Database& db) {
  aim::catalog::Catalog catalog = db.catalog();
  for (const IndexDef* idx : db.catalog().AllIndexes(false, false)) {
    if (idx->created_by_automation) (void)catalog.DropIndex(idx->id);
  }
  return catalog;
}

double EstCostRatio(const Database& db, const aim::workload::Workload& w) {
  return WorkloadCost(db.catalog(), w) /
         WorkloadCost(WithoutAutomationIndexes(db), w);
}

double AutomationIndexBytes(const Database& db) {
  const aim::catalog::Catalog& c = db.catalog();
  double bytes = 0.0;
  for (const IndexDef* idx : c.AllIndexes(false, false)) {
    if (idx->created_by_automation) bytes += c.IndexSizeBytes(*idx);
  }
  return bytes;
}

double HeapBytes(const Database& db) {
  const aim::catalog::Catalog& c = db.catalog();
  double bytes = 0.0;
  for (size_t t = 0; t < c.table_count(); ++t) {
    bytes += c.TableSizeBytes(static_cast<aim::catalog::TableId>(t));
  }
  return bytes;
}

std::vector<std::string> AutomationIndexKeys(const Database& db) {
  std::vector<std::string> keys;
  for (const IndexDef* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->created_by_automation) continue;
    std::string key = std::to_string(idx->table) + ":";
    for (size_t i = 0; i < idx->columns.size(); ++i) {
      key += (i ? "," : "") + std::to_string(idx->columns[i]);
    }
    keys.push_back(key);
  }
  std::sort(keys.begin(), keys.end());
  return keys;
}

uint64_t AutomationIndexEntries(const Database& db) {
  uint64_t entries = 0;
  for (const IndexDef* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->created_by_automation) continue;
    if (const aim::storage::BTreeIndex* tree = db.btree(idx->id)) {
      entries += tree->entry_count();
    }
  }
  return entries;
}

namespace {

/// Catalog estimate rescaled from statistics rows to materialized rows.
double PerRow(double estimate, uint64_t stats_rows) {
  return stats_rows > 0 ? estimate / static_cast<double>(stats_rows) : 0.0;
}

}  // namespace

double MaterializedHeapBytes(const Database& db) {
  const aim::catalog::Catalog& c = db.catalog();
  double bytes = 0.0;
  for (size_t t = 0; t < c.table_count(); ++t) {
    const auto id = static_cast<aim::catalog::TableId>(t);
    bytes += PerRow(c.TableSizeBytes(id), c.table(id).stats.row_count) *
             static_cast<double>(db.heap(id).live_count());
  }
  return bytes;
}

double MaterializedIndexBytes(const Database& db) {
  const aim::catalog::Catalog& c = db.catalog();
  double bytes = 0.0;
  for (const IndexDef* idx : c.AllIndexes(false, false)) {
    const aim::storage::BTreeIndex* tree = db.btree(idx->id);
    if (!idx->created_by_automation || tree == nullptr) continue;
    bytes += PerRow(c.IndexSizeBytes(*idx), c.table(idx->table).stats.row_count) *
             static_cast<double>(tree->entry_count());
  }
  return bytes;
}

void PhaseSums::Add(const aim::core::AimRunStats& s) {
  selection_s += s.selection_seconds;
  candgen_s += s.candgen_seconds;
  ranking_s += s.ranking_seconds;
  validation_s += s.validation_seconds;
  apply_s += s.apply_seconds;
  whatif_calls += s.what_if_calls;
  cache_hits += s.cache_hits;
  cache_misses += s.cache_misses;
  cache_evictions += s.cache_evictions;
  candidates_evaluated += s.candidates_evaluated;
  recommended += s.indexes_recommended;
  candgen_total += s.candgen_clusters_total;
  candgen_reused += s.candgen_clusters_reused;
  online_builds += s.online_builds;
  online_delta += s.online_delta_applied;
  online_max_stall_s = std::max(online_max_stall_s, s.online_max_stall_seconds);
}

void CollectLateness(const std::vector<WriteSample>& samples,
                     const std::vector<Window>& intervals,
                     std::vector<double>* lateness, std::vector<double>* worst) {
  auto late_ms = [&](size_t i) {
    return 1e3 * (samples[i].end_s - samples[i].due_s);
  };
  for (size_t i = 0; i < samples.size(); ++i) lateness->push_back(late_ms(i));
  // Samples are in due order; walk them once against the intervals.
  size_t i = 0;
  for (const Window& w : intervals) {
    while (i < samples.size() && samples[i].due_s < w.start_s) ++i;
    double max_ms = 0.0;
    for (size_t j = i; j < samples.size() && samples[j].due_s <= w.end_s;
         ++j) {
      max_ms = std::max(max_ms, late_ms(j));
    }
    worst->push_back(max_ms);
  }
}

void ReportBlockedWriter(double interval_s, RunResult* out) {
  out->Metric("stall_ms", 1e3 * interval_s, "ms");
  out->Metric("write_p99_ms", 0.99e3 * interval_s, "ms");
}

void ReportWriterEndToEnd(const std::vector<double>& lateness,
                          const std::vector<double>& worst, RunResult* out) {
  out->Metric("stall_ms", Median(worst), "ms");
  out->Metric("write_p99_ms", Quantile(lateness, 0.99), "ms");
  out->info["writer_samples"] = static_cast<double>(lateness.size());
}

namespace {

double PerInterval(double total, uint64_t intervals) {
  return intervals > 0 ? total / static_cast<double>(intervals) : 0.0;
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

void ReportLayers(const LayerData& d, RunResult* out) {
  const PhaseSums& p = d.timed;
  const uint64_t n = d.intervals;
  out->Metric("core.selection_s", PerInterval(p.selection_s, n), "s");
  out->Metric("core.candgen_s", PerInterval(p.candgen_s, n), "s");
  out->Metric("core.ranking_s", PerInterval(p.ranking_s, n), "s");
  out->Metric("core.validation_s", PerInterval(p.validation_s, n), "s");
  out->Metric("core.apply_s", PerInterval(p.apply_s, n), "s");
  out->Metric("core.candidates_evaluated",
              PerInterval(static_cast<double>(p.candidates_evaluated), n),
              "count");
  out->Metric("core.accept_frac",
              Ratio(static_cast<double>(p.recommended),
                    static_cast<double>(p.candidates_evaluated)),
              "fraction");
  out->Metric("core.candgen_reuse_rate",
              Ratio(static_cast<double>(p.candgen_reused),
                    static_cast<double>(p.candgen_total)),
              "fraction");

  out->Metric("validation.clone_s", d.clone_s, "s");
  out->Metric("validation.build_s", d.build_s, "s");
  out->Metric("validation.control_replay_s", d.control_replay_s, "s");
  out->Metric("validation.test_replay_s", d.test_replay_s, "s");
  out->Metric("trace.coverage", d.coverage, "fraction");
  out->Metric("trace.overhead_frac",
              Ratio(Median(d.interval_s), Median(d.untraced_interval_s)) - 1.0,
              "fraction");

  out->Metric("optimizer.whatif_calls",
              PerInterval(static_cast<double>(p.whatif_calls), n), "count");
  out->Metric("optimizer.whatif_hit_rate",
              Ratio(static_cast<double>(p.cache_hits),
                    static_cast<double>(p.cache_hits + p.cache_misses)),
              "fraction");
  out->Metric("optimizer.whatif_evictions",
              PerInterval(static_cast<double>(p.cache_evictions), n),
              "count");
  out->Metric("optimizer.plan_us", Median(d.plan_us), "us");

  out->Metric("executor.rows_examined_before",
              static_cast<double>(d.rows_examined_before), "count");
  out->Metric("executor.rows_examined", static_cast<double>(d.rows_examined),
              "count");
  out->Metric("executor.index_entries_read",
              static_cast<double>(d.index_entries_read), "count");
  out->Metric("executor.rows_returned", static_cast<double>(d.rows_returned),
              "count");
  out->Metric("executor.examined_per_returned",
              Ratio(static_cast<double>(d.rows_examined),
                    static_cast<double>(d.rows_returned)),
              "ratio");

  out->Metric("storage.copy_s", Median(d.copy_s), "s");
  out->Metric("storage.index_entries_built",
              static_cast<double>(d.entries_built), "count");
  out->Metric("storage.build_entries_per_s",
              Ratio(static_cast<double>(d.entries_built), d.build_s), "1/s");
  out->Metric("storage.heap_bytes", d.heap_bytes, "bytes");
  out->Metric("storage.index_bytes", d.index_bytes, "bytes");

  out->Metric("continuous.snapshot_hold_ms", 1e3 * Median(d.snapshot_hold_s),
              "ms");
  out->Metric("continuous.dropped",
              PerInterval(static_cast<double>(d.dropped), n), "count");
  out->Metric("continuous.shrunk",
              PerInterval(static_cast<double>(d.shrunk), n), "count");
  out->Metric("online.builds",
              PerInterval(static_cast<double>(p.online_builds), n), "count");
  out->Metric("online.delta_applied",
              PerInterval(static_cast<double>(p.online_delta), n), "count");
  out->Metric("online.max_swap_stall_ms",
              1e3 * std::max(p.online_max_stall_s, d.online_redrive_stall_s),
              "ms");

  out->Metric("fleet.tenants_tuned",
              PerInterval(static_cast<double>(d.tenants_tuned), n), "count");
  out->Metric("fleet.cache_stores", static_cast<double>(d.cache_stores),
              "count");
  out->Metric("fleet.warm_started_frac",
              Ratio(static_cast<double>(d.warm_started),
                    static_cast<double>(d.tenants_tuned)),
              "fraction");
  out->Metric("fleet.degraded_ticks", static_cast<double>(d.degraded),
              "count");
  out->Metric("pool.busy_cores", d.busy_cores, "cores");

  out->Metric("sql.parse_s", Median(d.parse_s), "s");
  out->Metric("catalog.analyze_s", Median(d.analyze_s), "s");

  std::vector<double> lateness, service, queue;
  for (const WriteSample& s : d.writes) {
    lateness.push_back(1e3 * (s.end_s - s.due_s));
    service.push_back(1e3 * (s.end_s - s.start_s));
    queue.push_back(1e3 * (s.start_s - s.due_s));
  }
  out->Metric("writer.p50_ms", Median(lateness), "ms");
  out->Metric("writer.service_ms", Median(service), "ms");
  out->Metric("writer.queue_ms", Median(queue), "ms");
  out->Metric("writer.generator_lag_ms", Quantile(queue, 0.99), "ms");
  out->Metric("writer.txns", static_cast<double>(d.writes.size()), "count");
  out->Metric("host.latency_ns", d.latency_ns, "ns");
}

void RedriveValidation(const Database& production,
                       const aim::core::AimReport& report, Tracer* tracer,
                       LayerData* out) {
  std::vector<aim::core::CandidateIndex> candidates =
      report.validation.accepted;
  candidates.insert(candidates.end(), report.validation.rejected_unused.begin(),
                    report.validation.rejected_unused.end());
  if (candidates.empty()) return;
  Span redrive(tracer, "core.ValidateOnClone.redrive");
  std::vector<IndexDef> defs;
  for (const aim::core::CandidateIndex& c : candidates) {
    IndexDef def = c.def;
    def.hypothetical = false;
    def.id = aim::catalog::kInvalidIndex;
    def.created_by_automation = true;
    defs.push_back(std::move(def));
  }

  Database control;
  Database test;
  out->clone_s += Timed(tracer, "storage.Database.copy", [&] {
    control = production;
    test = production;
  });
  std::vector<aim::Result<aim::catalog::IndexId>> built;
  out->build_s += Timed(tracer, "storage.Database.CreateIndexes",
                        [&] { built = test.CreateIndexes(defs); });
  for (const aim::Result<aim::catalog::IndexId>& id : built) {
    if (!id.ok()) continue;
    if (const aim::storage::BTreeIndex* tree = test.btree(id.ValueOrDie())) {
      out->entries_built += tree->entry_count();
    }
  }

  // The statements ValidateOnClone executes: one per distinct statement
  // within each DML-free segment.
  std::vector<const aim::sql::Statement*> owners;
  std::set<uint64_t> seen;
  for (const aim::core::SelectedQuery& sq : report.selected_workload) {
    const aim::sql::Statement& stmt = sq.query->stmt;
    if (stmt.is_dml()) {
      seen.clear();
      owners.push_back(&stmt);
      continue;
    }
    if (seen.insert(aim::optimizer::FingerprintStatement(stmt)).second) {
      owners.push_back(&stmt);
    }
  }
  aim::executor::ExecutorOptions exec_options;
  exec_options.engine = aim::executor::EngineKind::kBatch;
  auto replay = [&](Database* db, aim::executor::ExecutionMetrics* sum) {
    aim::executor::Executor exec(db, aim::optimizer::CostModel(),
                                 exec_options);
    for (const aim::sql::Statement* stmt : owners) {
      aim::Result<aim::executor::ExecuteResult> r = exec.Execute(*stmt);
      if (r.ok()) sum->MergeFrom(r.ValueOrDie().metrics);
    }
  };
  aim::executor::ExecutionMetrics before;
  aim::executor::ExecutionMetrics after;
  out->control_replay_s += Timed(tracer, "executor.Executor.Execute.control",
                                 [&] { replay(&control, &before); });
  out->test_replay_s += Timed(tracer, "executor.Executor.Execute.test",
                              [&] { replay(&test, &after); });
  out->rows_examined_before += before.rows_examined;
  out->rows_examined += after.rows_examined;
  out->index_entries_read += after.index_entries_read;
  out->rows_returned += after.rows_sent;

  // The accepted set installed online on the (unindexed) control clone.
  Span span(tracer, "storage.OnlineIndexBuilder.Build");
  aim::storage::OnlineIndexBuilder builder(&control);
  for (const aim::core::CandidateIndex& c : report.validation.accepted) {
    IndexDef def = c.def;
    def.hypothetical = false;
    def.id = aim::catalog::kInvalidIndex;
    def.created_by_automation = true;
    aim::Result<aim::storage::OnlineBuildReport> r = builder.Build(def);
    if (r.ok()) {
      out->online_redrive_stall_s =
          std::max(out->online_redrive_stall_s, r.ValueOrDie().stall_seconds);
    }
  }
}

void SamplePlanTimes(const Database& db, const aim::workload::Workload& w,
                     int repeats, Tracer* tracer,
                     std::vector<double>* plan_us) {
  aim::optimizer::WhatIfOptimizer what_if(db.catalog(),
                                          aim::optimizer::CostModel());
  for (int r = 0; r < repeats; ++r) {
    for (const aim::workload::Query& q : w.queries) {
      plan_us->push_back(
          1e6 * Timed(tracer, "optimizer.WhatIfOptimizer.PlanQuery",
                      [&] { (void)what_if.PlanQuery(q.stmt); }));
    }
  }
}

LatencyProbe::LatencyProbe() : next_(kBytes / sizeof(uint64_t)) {
  // Sattolo's shuffle of the line numbers: line i links to line a[i], and
  // all lines form one cycle, so no hop can be predicted or skipped.
  constexpr size_t kWordsPerLine = 64 / sizeof(uint64_t);
  const size_t lines = next_.size() / kWordsPerLine;
  std::vector<uint32_t> a(lines);
  for (size_t i = 0; i < lines; ++i) a[i] = static_cast<uint32_t>(i);
  uint64_t x = 0x9E3779B97F4A7C15ull;
  for (size_t i = lines - 1; i > 0; --i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::swap(a[i], a[x % i]);
  }
  for (size_t i = 0; i < lines; ++i) {
    next_[i * kWordsPerLine] = uint64_t{a[i]} * kWordsPerLine;
  }
}

double LatencyProbe::ChaseNs() {
  constexpr int kHops = 100000;
  const Clock::time_point t0 = Clock::now();
  uint64_t at = at_;
  for (int h = 0; h < kHops; ++h) at = next_[at];
  const double ns = 1e9 * SecondsSince(t0) / kHops;
  at_ = at;  // the chase's result is kept, so it cannot be skipped
  return ns;
}

void ReportSetup(const std::vector<double>& setup_s,
                 const HostLatency& setup_latency,
                 const HostLatency& window_latency, RunResult* out) {
  out->Metric("setup_s", setup_latency.AtReference(Median(setup_s)), "s");
  out->info["raw_setup_s"] = Median(setup_s);
  out->info["setup_latency_ns"] = setup_latency.MedianNs();
  out->info["latency_ns"] = window_latency.MedianNs();
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                    usage.ru_stime.tv_usec);
}

}  // namespace perfbench
