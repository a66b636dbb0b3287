// Shared plumbing of the AIM benchmark program: run options, the result
// record every workload fills, order statistics, the benchmark's own span
// recorder, and the checks and quality ratios all workloads report.
#ifndef AIM_PERFBENCH_COMMON_H_
#define AIM_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/aim.h"
#include "storage/database.h"
#include "workload/workload.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-check size: a fraction of the inputs and a short window, used by
  /// `run.py --self-check` to prove the deterministic counts repeat.
  bool small = false;
  /// Where the traced run writes its spans (empty = nowhere).
  std::string trace_path;
};

/// What one workload run reports. `metrics` holds the end-to-end metrics
/// (untraced run) or the per-layer metrics (traced run); `counts` holds
/// the values that must repeat bit-for-bit for one workload and seed.
struct RunResult {
  int threads = 1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, bool> checks;
  std::map<std::string, std::pair<double, std::string>> metrics;
  std::map<std::string, double> counts;
  std::map<std::string, double> info;

  void Metric(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  /// Records a check; a failed check also counts as a failed operation.
  void Check(const std::string& name, bool ok) {
    checks[name] = ok;
    ++attempted;
    if (!ok) ++failed;
  }
};

double Median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double Quantile(std::vector<double> v, double q);
double PeakRssMb();

/// \brief The benchmark's span recorder, single-threaded. Spans live in
/// memory and are written out once at the end; a span's self time is its
/// duration minus the part its children cover. A disabled recorder costs
/// one branch per span.
class Tracer {
 public:
  struct SpanRecord {
    std::string name;
    int id = 0;
    int parent = -1;
    double start_s = 0.0;
    double end_s = 0.0;
  };

  explicit Tracer(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}

  bool enabled() const { return enabled_; }
  int Begin(const std::string& name);
  void End(int id);
  /// Writes every span as JSON: name, id, parent id (-1 at the top),
  /// start and end in seconds since the recorder was made.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  Clock::time_point t0_;
  std::vector<SpanRecord> spans_;
  std::vector<int> open_;
};

/// RAII span on a Tracer (no-op when the tracer is disabled).
class Span {
 public:
  Span(Tracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer->enabled() ? tracer->Begin(name) : -1) {}
  ~Span() {
    if (id_ >= 0) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int id_;
};

/// Runs `fn` inside a span called `name`; returns its wall time, seconds.
template <typename Fn>
double Timed(Tracer* tracer, const std::string& name, Fn&& fn) {
  Span span(tracer, name);
  const Clock::time_point t0 = Clock::now();
  fn();
  return SecondsSince(t0);
}

/// \brief The host's memory latency, sampled through a run. AIM's set-ups
/// and intervals are bound by dependent memory accesses, and on a shared
/// virtual machine the latency of those accesses moves with the load that
/// other tenants put on the host, taking every wall time with it (over one
/// twenty-minute stretch, tpch-validate's median interval ranged over 1.8x
/// and moved in proportion to this probe). The probe chases a single cycle
/// of pointers through 128 MiB, one hop per cache line, and runs no AIM
/// code, so no change to AIM moves it. tpch-validate and fleet-steady,
/// whose working sets are several times the last-level cache, report wall
/// times at a fixed reference latency (see HostLatency).
class LatencyProbe {
 public:
  static constexpr double kReferenceNs = 200.0;
  static constexpr size_t kBytes = size_t{128} << 20;

  LatencyProbe();
  /// One chase of 100k hops; returns nanoseconds per hop.
  double ChaseNs();

 private:
  std::vector<uint64_t> next_;  // word 0 of each 64-byte line links on
  uint64_t at_ = 0;
};

/// Probe samples taken in the stretch of a run in which some wall times
/// were measured, and those wall times at the reference latency: measured
/// times kReferenceNs over the samples' median.
struct HostLatency {
  std::vector<double> ns;

  double MedianNs() const { return Median(ns); }
  /// A duration (any unit) measured in this stretch.
  double AtReference(double duration) const {
    return duration * LatencyProbe::kReferenceNs / MedianNs();
  }
};

/// Sums of the program's own per-run statistics over a set of runs.
struct PhaseSums {
  double selection_s = 0.0, candgen_s = 0.0, ranking_s = 0.0;
  double validation_s = 0.0, apply_s = 0.0;
  uint64_t whatif_calls = 0, cache_hits = 0, cache_misses = 0;
  uint64_t cache_evictions = 0, candidates_evaluated = 0, recommended = 0;
  uint64_t candgen_total = 0, candgen_reused = 0;
  uint64_t online_builds = 0, online_delta = 0;
  double online_max_stall_s = 0.0;

  void Add(const aim::core::AimRunStats& s);
  double phase_s() const {
    return selection_s + candgen_s + ranking_s + validation_s + apply_s;
  }
};

/// The open-loop writer's rate (tpcc-online).
constexpr double kWriterTxnPerSecond = 1000.0;

/// One writer transaction, in seconds since the run's window origin.
struct WriteSample {
  double due_s = 0.0;
  double start_s = 0.0;
  double end_s = 0.0;
};

/// One tuning interval's wall-clock span, same origin.
struct Window {
  double start_s = 0.0;
  double end_s = 0.0;
};

/// Writer lateness (end minus due, ms) of every sample, and per interval
/// the worst lateness among samples due inside it, appended to `lateness`
/// and `worst`.
void CollectLateness(const std::vector<WriteSample>& samples,
                     const std::vector<Window>& intervals,
                     std::vector<double>* lateness, std::vector<double>* worst);

/// Writer end-to-end metrics on a workload tuned in classic (blocking)
/// mode. A classic RunOnce/Tick stages hypothetical indexes in, and builds
/// indexes on, the production database without taking its latch, so under
/// the Database latch protocol production writers are held off for the
/// whole interval: a transaction due t seconds into an interval of length
/// L waits L - t. With intervals back to back and the open-loop writer's
/// transactions due uniformly, the worst lateness in an interval is L and
/// the lateness p99 is 0.99 L. Both are reported for L = `interval_s`; no
/// writer runs.
void ReportBlockedWriter(double interval_s, RunResult* out);

/// Writer end-to-end metrics: `stall_ms` (median over intervals of the
/// worst lateness) and `write_p99_ms` (lateness from due time, p99).
void ReportWriterEndToEnd(const std::vector<double>& lateness,
                          const std::vector<double>& worst, RunResult* out);

/// Repetitions of the traced run's parse and analyze timings.
constexpr int kLayerSamples = 5;

/// Set-up is timed before the first interval, as users pay it: `setup`
/// (which appends its own wall time to `setup_s`) runs until it has run at
/// least 8 times and for at least 1.5 s in all (twice, at the self-check
/// size), with one probe chase after each into `latency`. The last set-up
/// serves the run. Returns false if any set-up failed.
template <typename Setup>
bool RunSetups(bool small, Setup&& setup, const std::vector<double>& setup_s,
               LatencyProbe* probe, HostLatency* latency) {
  const size_t min_runs = small ? 2 : 8;
  const double min_total_s = small ? 0.0 : 1.5;
  bool ok = true;
  double total_s = 0.0;
  while (setup_s.size() < min_runs || total_s < min_total_s) {
    ok = setup() && ok;
    total_s += setup_s.back();
    latency->ns.push_back(probe->ChaseNs());
  }
  return ok;
}

/// \brief True once every `every_s` seconds, asked at interval boundaries:
/// when the workload samples the probe during its timed window.
class Periodic {
 public:
  explicit Periodic(double every_s) : every_s_(every_s), last_(Clock::now()) {}
  bool Due() {
    if (SecondsSince(last_) < every_s_) return false;
    last_ = Clock::now();
    return true;
  }

 private:
  double every_s_;
  Clock::time_point last_;
};

/// Per-layer measurements a workload gathers; every field is reported
/// under its metric name whether or not the workload exercises that layer
/// (a layer it never enters reads as zero work).
struct LayerData {
  PhaseSums timed;            // the timed intervals (traced and untraced)
  uint64_t intervals = 0;     // how many timed intervals `timed` sums
  std::vector<double> interval_s;  // traced timed intervals' wall times
  std::vector<double> untraced_interval_s;
  double coverage = 0.0;  // Σ core phases ÷ Σ tenant tick wall (traced)
  // Validation re-driven from outside on the cold interval's inputs.
  double clone_s = 0.0, build_s = 0.0, control_replay_s = 0.0,
         test_replay_s = 0.0;
  uint64_t entries_built = 0;
  uint64_t rows_examined_before = 0, rows_examined = 0,
           index_entries_read = 0, rows_returned = 0;
  double online_redrive_stall_s = 0.0;
  std::vector<double> plan_us;
  std::vector<double> copy_s;       // one copy of the production database
  std::vector<double> snapshot_hold_s;  // a copy under the exclusive latch
  double heap_bytes = 0.0, index_bytes = 0.0;
  uint64_t dropped = 0, shrunk = 0;
  uint64_t tenants_tuned = 0, cache_stores = 0, warm_started = 0,
           degraded = 0;
  double busy_cores = 0.0;
  std::vector<double> parse_s, analyze_s;
  std::vector<WriteSample> writes;
  double latency_ns = 0.0;
};

void ReportLayers(const LayerData& d, RunResult* out);

/// Validation as ValidateOnClone does it (same dedup of duplicate
/// statements within DML-free segments, same batch engine), re-driven from
/// outside so each step gets its own span; then the accepted candidates
/// are installed through OnlineIndexBuilder on the control clone, which
/// lacks them.
void RedriveValidation(const aim::storage::Database& production,
                       const aim::core::AimReport& report, Tracer* tracer,
                       LayerData* out);

/// Wall time of each `WhatIfOptimizer::PlanQuery` call over `w`'s
/// statements (`repeats` rounds) on `db`'s configuration, appended in
/// microseconds.
void SamplePlanTimes(const aim::storage::Database& db,
                     const aim::workload::Workload& w, int repeats,
                     Tracer* tracer, std::vector<double>* plan_us);

/// Process CPU seconds (user + system) so far.
double ProcessCpuSeconds();

/// Every automation-created index holds exactly its table's live rows.
bool AutomationIndexesComplete(const aim::storage::Database& db);

/// Optimizer-estimated weighted cost of `w` on `catalog`.
double WorkloadCost(const aim::catalog::Catalog& catalog,
                    const aim::workload::Workload& w);

/// `db`'s catalog with every automation-created index removed: the
/// starting configuration, under the same statistics.
aim::catalog::Catalog WithoutAutomationIndexes(const aim::storage::Database& db);

/// Estimated workload cost on `db`'s configuration over the same without
/// its automation-created indexes.
double EstCostRatio(const aim::storage::Database& db,
                    const aim::workload::Workload& w);

/// Catalog-estimated bytes of automation-created indexes, and of heaps.
double AutomationIndexBytes(const aim::storage::Database& db);
double HeapBytes(const aim::storage::Database& db);

/// Automation-created indexes on `db`, as "table:col,col" strings.
std::vector<std::string> AutomationIndexKeys(const aim::storage::Database& db);

/// Index entries held by automation-created indexes.
uint64_t AutomationIndexEntries(const aim::storage::Database& db);

/// Estimated bytes of the materialized heaps and automation indexes
/// (catalog widths times live rows / entries).
double MaterializedHeapBytes(const aim::storage::Database& db);
double MaterializedIndexBytes(const aim::storage::Database& db);

RunResult RunTpchValidate(const RunOptions& options, LatencyProbe* probe);
RunResult RunFleetSteady(const RunOptions& options, LatencyProbe* probe);
RunResult RunTpccOnline(const RunOptions& options, LatencyProbe* probe);

/// Reports `setup_s`, the set-up median at the reference latency, with the
/// raw medians of set-up and of both stretches' latencies under `info`.
void ReportSetup(const std::vector<double>& setup_s,
                 const HostLatency& setup_latency,
                 const HostLatency& window_latency, RunResult* out);

}  // namespace perfbench

#endif  // AIM_PERFBENCH_COMMON_H_
