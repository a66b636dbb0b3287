// Online index build vs blocking CreateIndex under live TPC-C traffic.
// Measures what the robustness work actually buys: the write stall a
// DDL imposes on concurrent OLTP clients. The blocking path holds the
// exclusive latch for the whole heap scan; the online path's only
// exclusive window is the bounded-tail swap. Also sweeps the online
// tuner's per-tick snapshot: a copy of the live TPC-C database under the
// exclusive latch at about 25k, 100k and 388k rows, and the writer's
// first transaction after it, which copies the chunks and leaves it
// writes. Emits the "online_build" section of BENCH_results.json
// (write-stall seconds both ways, worst client txn latency both ways,
// build throughput, the snapshot sweep). Run from the repo root.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "common/thread_pool.h"
#include "storage/online_index_builder.h"
#include "workload/tpcc_oltp.h"

using namespace aim;

namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

workload::TpccConfig BenchScale() {
  workload::TpccConfig config;
  config.warehouses = 2;
  config.districts_per_warehouse = 8;
  config.customers_per_district = 50;
  config.items = 200;
  // ~2k pre-loaded orders -> ~20k order_line rows: enough heap that the
  // blocking scan's stall is visibly worse than the online swap's.
  config.initial_orders_per_district = 120;
  config.seed = 7;
  return config;
}

catalog::IndexDef OrderLineByItem(const workload::TpccDatabase& tpcc) {
  catalog::IndexDef def;
  def.table = tpcc.order_line_table();
  def.columns = {4};  // ol_i_id — none of the clustered PKs cover it
  return def;
}

struct RunResult {
  double stall_seconds = 0.0;      // exclusive-latch time the DDL held
  double build_seconds = 0.0;      // DDL wall time end to end
  double max_txn_seconds = 0.0;    // worst client transaction latency
  uint64_t commits = 0;
  uint64_t errors = 0;
  uint64_t rows = 0;               // entries in the finished index
  uint64_t delta_applied = 0;      // online only
};

/// Runs `clients` OLTP loops, performs one DDL mid-traffic via `ddl`,
/// lets traffic run a beat longer, then stops and merges the numbers.
template <typename Ddl>
Result<RunResult> RunUnderTraffic(int clients, Ddl&& ddl) {
  workload::TpccDatabase tpcc(BenchScale());
  Status loaded = tpcc.Load();
  if (!loaded.ok()) return loaded;
  common::ThreadPool pool(clients + 1);
  workload::OltpDriver driver(&tpcc, &pool, clients);
  Status started = driver.Start();
  if (!started.ok()) return started;
  // Let the clients reach steady state before the DDL lands.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));

  RunResult out;
  const auto build_begin = Clock::now();
  Result<uint64_t> rows = ddl(&tpcc, &out);
  out.build_seconds = Seconds(build_begin, Clock::now());
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  workload::OltpStats stats = driver.Stop();
  if (!rows.ok()) return rows.status();
  out.rows = rows.ValueOrDie();
  out.max_txn_seconds = stats.max_txn_seconds;
  out.commits = stats.total_commits();
  out.errors = stats.errors;
  return out;
}

Result<uint64_t> IndexRows(storage::Database* db, catalog::IndexId id) {
  const storage::BTreeIndex* tree = db->btree(id);
  if (tree == nullptr) return Status::Internal("index has no tree");
  return tree->entry_count();
}

/// One size of the snapshot sweep (medians over kSnapshotSamples).
struct SnapshotPoint {
  uint64_t rows = 0;
  double hold_seconds = 0.0;          // copy under the exclusive latch
  double first_write_seconds = 0.0;   // NewOrder while the copy lives
  double steady_write_seconds = 0.0;  // NewOrder with no copy alive
};

constexpr int kSnapshotSamples = 31;

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

/// Times what ContinuousTuner::TickInternal's online snapshot costs the
/// writer on a loaded TPC-C database: the copy under the exclusive latch,
/// the first NewOrder afterwards (it copies every chunk and leaf it
/// writes that the copy still shares) and, once the copy is gone, a
/// NewOrder that writes in place.
Result<SnapshotPoint> MeasureSnapshot(workload::TpccDatabase* tpcc) {
  storage::Database& db = tpcc->db();
  SnapshotPoint point;
  for (catalog::TableId t = 0; t < db.catalog().table_count(); ++t) {
    point.rows += db.heap(t).live_count();
  }
  Rng rng(3);
  std::vector<double> hold, first, steady;
  for (int i = 0; i < kSnapshotSamples; ++i) {
    {
      storage::Database snapshot;
      const auto copy_begin = Clock::now();
      {
        std::unique_lock<std::shared_mutex> lock(db.latch());
        snapshot = db;
      }
      hold.push_back(Seconds(copy_begin, Clock::now()));
      const auto write_begin = Clock::now();
      AIM_RETURN_NOT_OK(tpcc->NewOrder(&rng));
      first.push_back(Seconds(write_begin, Clock::now()));
    }
    const auto write_begin = Clock::now();
    AIM_RETURN_NOT_OK(tpcc->NewOrder(&rng));
    steady.push_back(Seconds(write_begin, Clock::now()));
  }
  point.hold_seconds = Median(hold);
  point.first_write_seconds = Median(first);
  point.steady_write_seconds = Median(steady);
  return point;
}

/// A JSON array of one field of every sweep point.
template <typename Field>
std::string JsonArray(const std::vector<SnapshotPoint>& points,
                      Field field) {
  std::string out = "[";
  for (size_t i = 0; i < points.size(); ++i) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.9g", field(points[i]));
    out += (i == 0 ? "" : ", ") + std::string(buf);
  }
  return out + "]";
}

}  // namespace

int main() {
  bench::Header(
      "Online index build — write stall vs blocking CreateIndex under "
      "live TPC-C traffic");
  constexpr int kClients = 4;

  // Blocking: CreateIndex scans the whole heap under one exclusive
  // latch acquisition; every client stalls for the duration.
  Result<RunResult> blocking =
      RunUnderTraffic(kClients, [](workload::TpccDatabase* tpcc,
                                   RunResult* out) -> Result<uint64_t> {
        std::unique_lock<std::shared_mutex> lock(tpcc->db().latch());
        const auto stall_begin = Clock::now();
        Result<catalog::IndexId> id =
            tpcc->db().CreateIndex(OrderLineByItem(*tpcc));
        out->stall_seconds = Seconds(stall_begin, Clock::now());
        if (!id.ok()) return id.status();
        return IndexRows(&tpcc->db(), id.ValueOrDie());
      });
  if (!blocking.ok()) {
    std::fprintf(stderr, "blocking run failed: %s\n",
                 blocking.status().ToString().c_str());
    return 1;
  }

  // Online: chunked shared-latch scan + delta catch-up; the swap is the
  // only exclusive window and applies at most max_swap_tail entries.
  Result<RunResult> online =
      RunUnderTraffic(kClients, [](workload::TpccDatabase* tpcc,
                                   RunResult* out) -> Result<uint64_t> {
        storage::OnlineIndexBuilder builder(&tpcc->db());
        Result<storage::OnlineBuildReport> r =
            builder.Build(OrderLineByItem(*tpcc));
        if (!r.ok()) return r.status();
        out->stall_seconds = r.ValueOrDie().stall_seconds;
        out->delta_applied = r.ValueOrDie().delta_applied +
                             r.ValueOrDie().swap_tail_applied;
        return IndexRows(&tpcc->db(), r.ValueOrDie().id);
      });
  if (!online.ok()) {
    std::fprintf(stderr, "online run failed: %s\n",
                 online.status().ToString().c_str());
    return 1;
  }

  const RunResult& b = blocking.ValueOrDie();
  const RunResult& o = online.ValueOrDie();
  const double online_throughput =
      o.build_seconds > 0 ? static_cast<double>(o.rows) / o.build_seconds
                          : 0.0;

  std::printf("%-10s %14s %14s %14s %10s %8s\n", "path", "stall_ms",
              "max_txn_ms", "build_ms", "commits", "rows");
  std::printf("%-10s %14.3f %14.3f %14.3f %10llu %8llu\n", "blocking",
              b.stall_seconds * 1e3, b.max_txn_seconds * 1e3,
              b.build_seconds * 1e3,
              static_cast<unsigned long long>(b.commits),
              static_cast<unsigned long long>(b.rows));
  std::printf("%-10s %14.3f %14.3f %14.3f %10llu %8llu\n", "online",
              o.stall_seconds * 1e3, o.max_txn_seconds * 1e3,
              o.build_seconds * 1e3,
              static_cast<unsigned long long>(o.commits),
              static_cast<unsigned long long>(o.rows));
  std::printf(
      "online: %llu delta entries caught up, %.0f rows/s build "
      "throughput, stall %.2fx smaller than blocking\n",
      static_cast<unsigned long long>(o.delta_applied), online_throughput,
      o.stall_seconds > 0 ? b.stall_seconds / o.stall_seconds : 0.0);

  // The snapshot sweep: ~25k, ~100k and ~388k rows. All three databases
  // are loaded before any is timed. The copy's fixed part is the catalog
  // copy, about 90 small allocations, and glibc malloc serves those 4-5x
  // slower once a large load has fragmented the heap; loading first puts
  // every size's copy on the same allocator state, so the sweep varies
  // only the size of the database copied.
  std::vector<std::unique_ptr<workload::TpccDatabase>> databases;
  for (const int orders : {120, 500, 2000}) {
    workload::TpccConfig config = BenchScale();
    config.initial_orders_per_district = orders;
    databases.push_back(std::make_unique<workload::TpccDatabase>(config));
    const Status loaded = databases.back()->Load();
    if (!loaded.ok()) {
      std::fprintf(stderr, "snapshot sweep load failed: %s\n",
                   loaded.ToString().c_str());
      return 1;
    }
  }
  std::vector<SnapshotPoint> sweep;
  for (const auto& tpcc : databases) {
    Result<SnapshotPoint> point = MeasureSnapshot(tpcc.get());
    if (!point.ok()) {
      std::fprintf(stderr, "snapshot sweep failed: %s\n",
                   point.status().ToString().c_str());
      return 1;
    }
    sweep.push_back(point.ValueOrDie());
  }
  std::printf("\n%-10s %14s %18s %18s\n", "rows", "hold_ms",
              "first_write_ms", "steady_write_ms");
  for (const SnapshotPoint& p : sweep) {
    std::printf("%-10llu %14.4f %18.4f %18.4f\n",
                static_cast<unsigned long long>(p.rows), p.hold_seconds * 1e3,
                p.first_write_seconds * 1e3, p.steady_write_seconds * 1e3);
  }

  bench::JsonObject result;
  result.Add("clients", kClients)
      .Add("blocking_stall_seconds", b.stall_seconds)
      .Add("blocking_max_txn_seconds", b.max_txn_seconds)
      .Add("blocking_build_seconds", b.build_seconds)
      .Add("blocking_commits", b.commits)
      .Add("blocking_errors", b.errors)
      .Add("online_swap_stall_seconds", o.stall_seconds)
      .Add("online_max_txn_seconds", o.max_txn_seconds)
      .Add("online_build_seconds", o.build_seconds)
      .Add("online_commits", o.commits)
      .Add("online_errors", o.errors)
      .Add("online_delta_applied", o.delta_applied)
      .Add("online_rows_per_second", online_throughput)
      .Add("index_rows", o.rows)
      .AddRaw("snapshot_rows",
              JsonArray(sweep, [](const SnapshotPoint& p) {
                return static_cast<double>(p.rows);
              }))
      .AddRaw("snapshot_hold_seconds",
              JsonArray(sweep,
                        [](const SnapshotPoint& p) { return p.hold_seconds; }))
      .AddRaw("first_write_seconds",
              JsonArray(sweep, [](const SnapshotPoint& p) {
                return p.first_write_seconds;
              }))
      .AddRaw("steady_write_seconds",
              JsonArray(sweep, [](const SnapshotPoint& p) {
                return p.steady_write_seconds;
              }))
      .AddRaw("run_meta", bench::RunMetadataJson(kClients));
  if (bench::WriteJsonSection("BENCH_results.json", "online_build",
                              result)) {
    std::printf("wrote BENCH_results.json [online_build]\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
    return 1;
  }
  return 0;
}
