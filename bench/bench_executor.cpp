// Row-at-a-time interpreter (the batch suite's oracle, tests/row_oracle.h)
// vs vectorized batch engine on the clone-validation replay workload: the
// 22 TPC-H templates executed against an AIM-tuned configuration, exactly
// what ValidateOnClone replays on its control/test clones. Reports wall
// seconds, replay throughput (statements/s and produced rows/s), the
// speedup, and the batch engine's per-operator traffic. Emits
// BENCH_results.json [executor_batch].
#include <chrono>
#include <cstdio>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/aim.h"
#include "executor/executor.h"
#include "tests/row_oracle.h"
#include "workload/tpch.h"

using namespace aim;

namespace {

struct ReplayStats {
  double seconds = 0.0;
  uint64_t statements = 0;
  uint64_t rows = 0;
  executor::ExecutionMetrics metrics;  // summed over every execution
};

/// Replays the workload `repeats` times on one engine (executor::Executor
/// or testing::RowOracle), accumulating metrics. The queries are
/// read-only, so repeated replay on the same database is exactly the
/// clone-validation access pattern.
template <typename Engine>
ReplayStats Replay(Engine* exec, const workload::Workload& w, int repeats) {
  ReplayStats out;
  const auto t0 = std::chrono::steady_clock::now();
  for (int r = 0; r < repeats; ++r) {
    for (const workload::Query& q : w.queries) {
      Result<executor::ExecuteResult> res = exec->Execute(q.stmt);
      if (!res.ok()) {
        std::fprintf(stderr, "replay failed: %s\n",
                     res.status().ToString().c_str());
        continue;
      }
      ++out.statements;
      out.rows += res.ValueOrDie().rows.size();
      out.metrics.MergeFrom(res.ValueOrDie().metrics);
    }
  }
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return out;
}

std::string OpJson(const executor::OperatorStats& op) {
  bench::JsonObject o;
  o.Add("batches", op.batches)
      .Add("rows_in", op.rows_in)
      .Add("rows_out", op.rows_out);
  return o.ToString();
}

std::string EngineJson(const ReplayStats& s) {
  bench::JsonObject o;
  o.Add("seconds", s.seconds)
      .Add("statements", s.statements)
      .Add("statements_per_sec",
           s.seconds > 0 ? s.statements / s.seconds : 0.0)
      .Add("rows_returned", s.rows)
      .Add("rows_per_sec", s.seconds > 0 ? s.rows / s.seconds : 0.0)
      .Add("rows_examined", s.metrics.rows_examined)
      .Add("index_entries_read", s.metrics.index_entries_read);
  return o.ToString();
}

}  // namespace

int main() {
  bench::Header(
      "Executor — row-at-a-time vs vectorized batch on the TPC-H "
      "validation replay (AIM-tuned configuration)");

  storage::Database db;
  workload::TpchOptions tpch;
  tpch.materialized_sf = 0.02;
  if (Status s = workload::BuildTpch(&db, tpch); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  Result<workload::Workload> w = workload::TpchQueries();
  if (!w.ok()) return 1;

  // Tune first so the replay exercises index probes (the batched-descent
  // path), not just heap scans — same physical design the clone sees.
  {
    core::AimOptions options;
    options.num_threads = 8;
    core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
    if (!aim.RunOnce(w.ValueOrDie(), nullptr).ok()) {
      std::fprintf(stderr, "tuning failed\n");
      return 1;
    }
  }

  constexpr int kRepeats = 6;
  // Warm both engines once before timing: page in heaps and indexes, and
  // let the oracle build its rows of Values (tests/row_oracle.h).
  testing::RowOracle oracle(&db, optimizer::CostModel());
  executor::Executor exec(&db, optimizer::CostModel());
  Replay(&oracle, w.ValueOrDie(), 1);
  Replay(&exec, w.ValueOrDie(), 1);
  const ReplayStats row = Replay(&oracle, w.ValueOrDie(), kRepeats);
  const ReplayStats batch = Replay(&exec, w.ValueOrDie(), kRepeats);

  const double speedup = batch.seconds > 0 ? row.seconds / batch.seconds : 0;
  std::printf("%-14s %8.3fs  %9.0f stmts/s  %12.0f rows/s\n", "row engine",
              row.seconds, row.statements / row.seconds,
              row.rows / row.seconds);
  std::printf("%-14s %8.3fs  %9.0f stmts/s  %12.0f rows/s\n", "batch engine",
              batch.seconds, batch.statements / batch.seconds,
              batch.rows / batch.seconds);
  std::printf("\nbatch speedup: %.2fx over %llu statements/engine\n", speedup,
              (unsigned long long)batch.statements);

  const executor::ExecutionMetrics& m = batch.metrics;
  std::printf("\nbatch operator traffic:\n");
  std::printf("  %-10s batches=%8llu in=%10llu out=%10llu\n", "scan",
              (unsigned long long)m.op_scan.batches,
              (unsigned long long)m.op_scan.rows_in,
              (unsigned long long)m.op_scan.rows_out);
  std::printf("  %-10s batches=%8llu in=%10llu out=%10llu\n", "filter",
              (unsigned long long)m.op_filter.batches,
              (unsigned long long)m.op_filter.rows_in,
              (unsigned long long)m.op_filter.rows_out);
  std::printf("  %-10s batches=%8llu in=%10llu out=%10llu\n", "join",
              (unsigned long long)m.op_join.batches,
              (unsigned long long)m.op_join.rows_in,
              (unsigned long long)m.op_join.rows_out);
  std::printf("  %-10s batches=%8llu in=%10llu out=%10llu\n", "aggregate",
              (unsigned long long)m.op_aggregate.batches,
              (unsigned long long)m.op_aggregate.rows_in,
              (unsigned long long)m.op_aggregate.rows_out);

  bench::JsonObject section;
  section.Add("workload", "tpch")
      .Add("materialized_sf", tpch.materialized_sf)
      .Add("repeats", kRepeats)
      .Add("statements_per_engine", batch.statements)
      .AddRaw("row", EngineJson(row))
      .AddRaw("batch", EngineJson(batch))
      .Add("batch_speedup", speedup)
      .AddRaw("batch_op_scan", OpJson(m.op_scan))
      .AddRaw("batch_op_filter", OpJson(m.op_filter))
      .AddRaw("batch_op_join", OpJson(m.op_join))
      .AddRaw("batch_op_aggregate", OpJson(m.op_aggregate))
      .AddRaw("run_meta", bench::RunMetadataJson(/*threads_used=*/8));
  if (!bench::WriteJsonSection("BENCH_results.json", "executor_batch",
                               section)) {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
    return 1;
  }
  std::printf("\nwrote BENCH_results.json [executor_batch]\n");
  return 0;
}
