// Sharded tuning at fleet scale: (1) per-shard clone validation fanned
// out over the worker pool vs the serial shard loop, on a 4-shard TPC-H
// fleet with comprehensive validation, both with the what-if cache on;
// (2) the continuous tuner's cross-interval what-if cache carry —
// interval-2 hit rate and runtime, warm vs cold. Emits the
// "sharded_tuning" section of BENCH_results.json.
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/continuous.h"
#include "core/sharding.h"
#include "workload/tpch.h"

using namespace aim;

namespace {

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       t0)
      .count();
}

struct ShardedRun {
  double wall_seconds = 0.0;
  core::AimRunStats stats;
  size_t applied = 0;
  size_t rejected = 0;
};

/// One sharded RunOnce on fresh copies of `base` (every shard starts
/// from the identical physical design, as a fleet would).
Result<ShardedRun> RunShardedOnce(const storage::Database& base,
                                  const workload::Workload& w,
                                  int shard_count, int threads,
                                  size_t cache_entries) {
  std::vector<storage::Database> dbs(shard_count, base);
  std::vector<core::Shard> shards;
  shards.reserve(dbs.size());
  for (storage::Database& db : dbs) {
    shards.push_back(core::Shard{&db, nullptr});
  }
  core::ShardedOptions options;
  options.comprehensive_validation = true;  // validate on every shard
  options.aim.num_threads = threads;
  options.aim.what_if_cache_entries = cache_entries;
  core::ShardedIndexManager manager(options);

  const auto t0 = std::chrono::steady_clock::now();
  Result<core::ShardedReport> r =
      manager.RunOnce(w, shards, optimizer::CostModel());
  if (!r.ok()) return r.status();
  ShardedRun run;
  run.wall_seconds = SecondsSince(t0);
  run.stats = r.ValueOrDie().aim.stats;
  run.applied = r.ValueOrDie().aim.recommended.size();
  run.rejected = r.ValueOrDie().rejected_by_shards.size();
  return run;
}

/// Best-of-N by wall clock. The first run of a config in a fresh process
/// pays one-time costs (peak-RSS page faults from holding every shard and
/// its clone concurrently); the minimum over repeats is the standard
/// least-noise estimator for the steady-state cost.
Result<ShardedRun> RunSharded(const storage::Database& base,
                              const workload::Workload& w, int shard_count,
                              int threads, size_t cache_entries,
                              int runs) {
  Result<ShardedRun> best = Status::Internal("no runs");
  for (int i = 0; i < runs; ++i) {
    Result<ShardedRun> r =
        RunShardedOnce(base, w, shard_count, threads, cache_entries);
    if (!r.ok()) return r;
    if (!best.ok() ||
        r.ValueOrDie().wall_seconds < best.ValueOrDie().wall_seconds) {
      best = std::move(r);
    }
  }
  return best;
}

std::string RunJson(const ShardedRun& run) {
  bench::JsonObject o;
  o.Add("wall_seconds", run.wall_seconds)
      .Add("shard_validation_seconds", run.stats.shard_validation_seconds)
      .Add("shard_apply_seconds", run.stats.shard_apply_seconds)
      .Add("what_if_calls", run.stats.what_if_calls)
      .Add("cache_hit_rate", run.stats.cache_hit_rate())
      .Add("applied", static_cast<uint64_t>(run.applied))
      .Add("indexes_adopted",
           static_cast<uint64_t>(run.stats.indexes_adopted))
      .Add("rejected_by_shards", static_cast<uint64_t>(run.rejected));
  return o.ToString();
}

struct TunerInterval {
  double wall_seconds = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  size_t entries_carried = 0;
};

/// Three tuning intervals over the same workload, with or without the
/// cross-interval cache carry. Interval 2 is the telling one: it re-costs
/// interval 1's statements under the configuration interval 1 installed.
Result<std::vector<TunerInterval>> RunTuner(const storage::Database& base,
                                            const workload::Workload& w,
                                            bool carry, int threads) {
  storage::Database db = base;
  core::ContinuousTunerOptions options;
  options.carry_what_if_cache = carry;
  options.aim.num_threads = threads;
  core::ContinuousTuner tuner(&db, optimizer::CostModel(), options);

  std::vector<TunerInterval> intervals;
  for (int tick = 0; tick < 3; ++tick) {
    const auto t0 = std::chrono::steady_clock::now();
    Result<core::IntervalReport> r = tuner.Tick(w, nullptr);
    if (!r.ok()) return r.status();
    const core::IntervalReport& report = r.ValueOrDie();
    TunerInterval iv;
    iv.wall_seconds = SecondsSince(t0);
    iv.cache_hit_rate = report.aim.stats.cache_hit_rate();
    iv.cache_hits = report.aim.stats.cache_hits;
    iv.cache_misses = report.aim.stats.cache_misses;
    iv.entries_carried = report.cache_entries_carried;
    intervals.push_back(iv);
  }
  return intervals;
}

std::string IntervalsJson(const std::vector<TunerInterval>& intervals) {
  std::string out = "[";
  for (size_t i = 0; i < intervals.size(); ++i) {
    if (i > 0) out += ", ";
    bench::JsonObject o;
    o.Add("wall_seconds", intervals[i].wall_seconds)
        .Add("cache_hit_rate", intervals[i].cache_hit_rate)
        .Add("cache_hits", intervals[i].cache_hits)
        .Add("cache_misses", intervals[i].cache_misses)
        .Add("entries_carried",
             static_cast<uint64_t>(intervals[i].entries_carried));
    out += o.ToString();
  }
  return out + "]";
}

}  // namespace

int main() {
  bench::Header(
      "Sharded tuning — parallel shard fan-out and cross-interval "
      "what-if cache (TPC-H SF10 stats, 4 shards)");

  storage::Database db;
  workload::TpchOptions tpch;
  tpch.materialized_sf = 0.002;
  tpch.stats_sf = 10.0;
  if (Status s = workload::BuildTpch(&db, tpch); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Result<workload::Workload> queries = workload::TpchQueries();
  if (!queries.ok()) return 1;
  // Concurrent TPC-H streams repeat every statement; the repeats are
  // what replay dedup and the plan-cost cache exist for.
  constexpr int kStreams = 4;
  workload::Workload w;
  for (int s = 0; s < kStreams; ++s) {
    for (const workload::Query& q : queries.ValueOrDie().queries) {
      w.queries.push_back(q);
    }
  }

  constexpr int kShards = 4;
  constexpr int kRuns = 2;
  // Untimed warm-up at the peak-memory config: the first fan-out in a
  // fresh process page-faults every shard + clone into residence, which
  // would otherwise be billed to whichever config runs first.
  (void)RunShardedOnce(db, w, kShards, /*threads=*/4,
                       /*cache_entries=*/4096);
  // Both sides run with the same what-if cache (and so the same replay
  // dedup): the speedups measure the shard fan-out only.
  Result<ShardedRun> serial = RunSharded(db, w, kShards, /*threads=*/1,
                                         /*cache_entries=*/4096, kRuns);
  Result<ShardedRun> parallel = RunSharded(db, w, kShards, /*threads=*/4,
                                           /*cache_entries=*/4096, kRuns);
  if (!serial.ok() || !parallel.ok()) {
    std::fprintf(
        stderr, "sharded benchmark failed: %s\n",
        (serial.ok() ? parallel : serial).status().ToString().c_str());
    return 1;
  }
  const ShardedRun& s = serial.ValueOrDie();
  const ShardedRun& p = parallel.ValueOrDie();
  auto row = [](const char* name, const ShardedRun& r) {
    std::printf(
        "%-24s wall=%7.3fs validation=%7.3fs apply=%7.3fs "
        "whatif=%6llu cache_hit=%5.1f%% applied=%zu adopted=%zu "
        "rejected=%zu\n",
        name, r.wall_seconds, r.stats.shard_validation_seconds,
        r.stats.shard_apply_seconds,
        (unsigned long long)r.stats.what_if_calls,
        100.0 * r.stats.cache_hit_rate(), r.applied,
        r.stats.indexes_adopted, r.rejected);
  };
  row("serial shard loop", s);
  row("4-way shard fan-out", p);
  const double validation_speedup =
      p.stats.shard_validation_seconds > 0
          ? s.stats.shard_validation_seconds /
                p.stats.shard_validation_seconds
          : 0;
  const double total_speedup =
      p.wall_seconds > 0 ? s.wall_seconds / p.wall_seconds : 0;
  std::printf(
      "\nvalidation speedup: %.2fx   end-to-end: %.2fx   "
      "(%u hardware threads)\n",
      validation_speedup, total_speedup,
      std::thread::hardware_concurrency());

  Result<std::vector<TunerInterval>> cold =
      RunTuner(db, w, /*carry=*/false, /*threads=*/4);
  Result<std::vector<TunerInterval>> warm =
      RunTuner(db, w, /*carry=*/true, /*threads=*/4);
  if (!cold.ok() || !warm.ok()) {
    std::fprintf(stderr, "tuner benchmark failed: %s\n",
                 (cold.ok() ? warm : cold).status().ToString().c_str());
    return 1;
  }
  std::printf("\ncontinuous tuner, 3 intervals (same workload):\n");
  for (size_t i = 0; i < warm.ValueOrDie().size(); ++i) {
    const TunerInterval& c = cold.ValueOrDie()[i];
    const TunerInterval& h = warm.ValueOrDie()[i];
    std::printf(
        "interval %zu  cold: %6.3fs hit=%5.1f%%   warm: %6.3fs "
        "hit=%5.1f%% carried=%zu\n",
        i + 1, c.wall_seconds, 100.0 * c.cache_hit_rate, h.wall_seconds,
        100.0 * h.cache_hit_rate, h.entries_carried);
  }
  const double warm_interval2_hit_rate =
      warm.ValueOrDie()[1].cache_hit_rate;
  std::printf("warm-start interval-2 cache hit rate: %.1f%%\n",
              100.0 * warm_interval2_hit_rate);

  bench::JsonObject section;
  section.Add("workload", "tpch")
      .Add("streams", kStreams)
      .Add("shards", kShards)
      .Add("hardware_concurrency",
           static_cast<int>(std::thread::hardware_concurrency()))
      .Add("measured_runs", kRuns)
      .AddRaw("serial", RunJson(s))
      .AddRaw("parallel", RunJson(p))
      .Add("validation_speedup", validation_speedup)
      .Add("total_speedup", total_speedup)
      .AddRaw("tuner_cold", IntervalsJson(cold.ValueOrDie()))
      .AddRaw("tuner_warm", IntervalsJson(warm.ValueOrDie()))
      .Add("warm_interval2_hit_rate", warm_interval2_hit_rate)
      .AddRaw("run_meta", bench::RunMetadataJson(/*threads_used=*/4));
  if (!bench::WriteJsonSection("BENCH_results.json", "sharded_tuning",
                               section)) {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
    return 1;
  }
  std::printf("wrote BENCH_results.json [sharded_tuning]\n");
  return 0;
}
