// Component micro-benchmarks (google-benchmark): the building blocks
// whose costs explain the end-to-end runtime differences of Fig. 4 —
// parsing/normalization, what-if optimizer calls (cold and memoized),
// partial-order merging, structural candidate generation, parallel
// ranking, and executor primitives. The custom main additionally records
// the what-if/cache/ranking numbers into BENCH_results.json.
#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>
#include <thread>

#include "bench/bench_json.h"
#include "common/thread_pool.h"
#include "core/candidate_generation.h"
#include "core/merge.h"
#include "core/ranking.h"
#include "executor/executor.h"
#include "optimizer/what_if.h"
#include "optimizer/what_if_cache.h"
#include "sql/normalizer.h"
#include "sql/parser.h"
#include "workload/demo.h"
#include "workload/tpch.h"

namespace {

using namespace aim;

const char* kJoinSql =
    "SELECT users.id FROM users, orders WHERE users.id = orders.user_id "
    "AND users.org_id = 5 AND orders.day > 100 ORDER BY orders.day "
    "LIMIT 10";

void BM_ParseStatement(benchmark::State& state) {
  for (auto _ : state) {
    auto r = sql::Parse(kJoinSql);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_ParseStatement);

void BM_NormalizeFingerprint(benchmark::State& state) {
  auto stmt = sql::Parse(kJoinSql).MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sql::NormalizedFingerprint(stmt));
  }
}
BENCHMARK(BM_NormalizeFingerprint);

void BM_WhatIfSingleTable(benchmark::State& state) {
  storage::Database db = workload::MakeUsersDemoDb(5000);
  optimizer::WhatIfOptimizer what_if(db.catalog(), optimizer::CostModel());
  auto stmt =
      sql::Parse("SELECT id FROM users WHERE org_id = 5 AND status = 2")
          .MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(what_if.QueryCost(stmt));
  }
}
BENCHMARK(BM_WhatIfSingleTable);

void BM_WhatIfJoinQuery(benchmark::State& state) {
  storage::Database db = workload::MakeOrdersDemoDb(1000, 5000);
  optimizer::WhatIfOptimizer what_if(db.catalog(), optimizer::CostModel());
  auto stmt = sql::Parse(kJoinSql).MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(what_if.QueryCost(stmt));
  }
}
BENCHMARK(BM_WhatIfJoinQuery);

void BM_WhatIfTpchQ5(benchmark::State& state) {
  storage::Database db;
  workload::TpchOptions options;
  options.materialized_sf = 0.001;
  (void)workload::BuildTpch(&db, options);
  optimizer::WhatIfOptimizer what_if(db.catalog(), optimizer::CostModel());
  auto q = workload::TpchQuery(5).MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(what_if.QueryCost(q.stmt));
  }
}
BENCHMARK(BM_WhatIfTpchQ5);

void BM_WhatIfTpchQ5Cached(benchmark::State& state) {
  storage::Database db;
  workload::TpchOptions options;
  options.materialized_sf = 0.001;
  (void)workload::BuildTpch(&db, options);
  optimizer::WhatIfOptimizer what_if(db.catalog(), optimizer::CostModel());
  optimizer::WhatIfCache cache(4096);
  what_if.set_cache(&cache);
  auto q = workload::TpchQuery(5).MoveValue();
  (void)what_if.QueryCost(q.stmt);  // warm the entry
  for (auto _ : state) {
    benchmark::DoNotOptimize(what_if.QueryCost(q.stmt));
  }
}
BENCHMARK(BM_WhatIfTpchQ5Cached);

void BM_WhatIfCacheHit(benchmark::State& state) {
  optimizer::WhatIfCache cache(4096);
  auto compute = [] { return Result<double>(1.0); };
  (void)cache.GetOrCompute({1, 1}, compute);
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.GetOrCompute({1, 1}, compute));
  }
}
BENCHMARK(BM_WhatIfCacheHit);

/// Ranking fan-out: RankAndSelect over the TPC-H query set at 1/2/4/8
/// pool threads (thread count is the benchmark argument; results are
/// bit-identical across all of them). The cache is off, so this measures
/// pure parallel planning — each what-if call is ~0.5 ms of real work,
/// the scale where the pool pays off.
void BM_RankAndSelectThreads(benchmark::State& state) {
  const int threads = static_cast<int>(state.range(0));
  static const storage::Database* db = [] {
    auto* built = new storage::Database();
    workload::TpchOptions options;
    options.materialized_sf = 0.001;
    (void)workload::BuildTpch(built, options);
    return built;
  }();
  static const workload::Workload* w =
      new workload::Workload(workload::TpchQueries().MoveValue());
  std::vector<core::SelectedQuery> queries;
  for (int stream = 0; stream < 3; ++stream) {
    for (const workload::Query& q : w->queries) {
      core::SelectedQuery sq;
      sq.query = &q;
      queries.push_back(sq);
    }
  }
  const catalog::TableId lineitem =
      db->catalog().FindTable("lineitem").ValueOrDie();
  const catalog::TableId orders =
      db->catalog().FindTable("orders").ValueOrDie();
  auto col = [&](catalog::TableId t, const char* name) {
    return *db->catalog().table(t).FindColumn(name);
  };
  std::vector<catalog::IndexDef> candidates;
  for (const char* name : {"l_shipdate", "l_partkey", "l_suppkey"}) {
    catalog::IndexDef def;
    def.table = lineitem;
    def.columns = {col(lineitem, name)};
    candidates.push_back(def);
  }
  {
    catalog::IndexDef def;
    def.table = orders;
    def.columns = {col(orders, "o_orderdate")};
    candidates.push_back(def);
  }
  common::ThreadPool pool(threads);
  for (auto _ : state) {
    optimizer::WhatIfOptimizer what_if(db->catalog(),
                                       optimizer::CostModel());
    core::RankingResult r =
        core::RankAndSelect(candidates, queries, &what_if, {},
                            threads > 1 ? &pool : nullptr);
    benchmark::DoNotOptimize(r);
  }
}
BENCHMARK(BM_RankAndSelectThreads)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_MergePartialOrders(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  std::vector<core::PartialOrder> orders;
  // Chains of subset-related orders that actually merge.
  for (int i = 0; i < n; ++i) {
    std::vector<core::PartialOrder::Partition> parts;
    core::PartialOrder::Partition p;
    for (catalog::ColumnId c = 0; c <= static_cast<catalog::ColumnId>(i % 5);
         ++c) {
      p.push_back(c);
    }
    parts.push_back(p);
    orders.push_back(core::PartialOrder::FromPartitions(0, parts));
  }
  for (auto _ : state) {
    auto merged = core::MergePartialOrders(orders);
    benchmark::DoNotOptimize(merged);
  }
}
BENCHMARK(BM_MergePartialOrders)->Arg(8)->Arg(32)->Arg(128);

void BM_CandidateGeneration(benchmark::State& state) {
  storage::Database db = workload::MakeOrdersDemoDb(1000, 5000);
  optimizer::WhatIfOptimizer what_if(db.catalog(), optimizer::CostModel());
  core::CandidateGenerator gen(db.catalog(), &what_if,
                               core::CandidateGenOptions{});
  auto q = workload::MakeQuery(kJoinSql).MoveValue();
  auto aq = optimizer::Analyze(q.stmt, db.catalog()).MoveValue();
  for (auto _ : state) {
    auto orders = gen.GenerateForQuery(q, aq, nullptr);
    benchmark::DoNotOptimize(orders);
  }
}
BENCHMARK(BM_CandidateGeneration);

void BM_ExecutorPointLookup(benchmark::State& state) {
  storage::Database db = workload::MakeUsersDemoDb(20000);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  (void)db.CreateIndex(def);
  executor::Executor exec(&db, optimizer::CostModel());
  auto stmt =
      sql::Parse("SELECT id FROM users WHERE org_id = 7").MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(stmt));
  }
}
BENCHMARK(BM_ExecutorPointLookup);

void BM_ExecutorFullScan(benchmark::State& state) {
  storage::Database db = workload::MakeUsersDemoDb(20000);
  executor::Executor exec(&db, optimizer::CostModel());
  auto stmt =
      sql::Parse("SELECT id FROM users WHERE org_id = 7").MoveValue();
  for (auto _ : state) {
    benchmark::DoNotOptimize(exec.Execute(stmt));
  }
}
BENCHMARK(BM_ExecutorFullScan);

void BM_BTreeInsertErase(benchmark::State& state) {
  storage::BTreeIndex index;
  int64_t i = 0;
  for (auto _ : state) {
    index.Insert(
        storage::EncodeKey({sql::Value::Int(i % 1000), sql::Value::Int(i)}),
        i);
    if (i % 2 == 1) {
      index.Erase(storage::EncodeKey({sql::Value::Int((i - 1) % 1000),
                                      sql::Value::Int(i - 1)}),
                  i - 1);
    }
    ++i;
  }
}
BENCHMARK(BM_BTreeInsertErase);

/// Deterministic cache/parallelism numbers for BENCH_results.json: cold
/// vs memoized TPC-H Q5 costing, and serial vs pooled ranking wall time
/// over a duplicated workload.
void WriteMicroResults() {
  storage::Database db;
  workload::TpchOptions options;
  options.materialized_sf = 0.001;
  (void)workload::BuildTpch(&db, options);
  auto q = workload::TpchQuery(5).MoveValue();
  constexpr int kReps = 200;

  auto time_seconds = [](const std::function<void()>& fn) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };

  optimizer::WhatIfOptimizer cold(db.catalog(), optimizer::CostModel());
  const double cold_seconds = time_seconds([&] {
    for (int i = 0; i < kReps; ++i) {
      benchmark::DoNotOptimize(cold.QueryCost(q.stmt));
    }
  });

  optimizer::WhatIfOptimizer warm(db.catalog(), optimizer::CostModel());
  optimizer::WhatIfCache cache(4096);
  warm.set_cache(&cache);
  const double warm_seconds = time_seconds([&] {
    for (int i = 0; i < kReps; ++i) {
      benchmark::DoNotOptimize(warm.QueryCost(q.stmt));
    }
  });

  bench::JsonObject section;
  section.Add("hardware_concurrency",
              static_cast<int>(std::thread::hardware_concurrency()))
      .Add("whatif_reps", kReps)
      .Add("whatif_cold_seconds", cold_seconds)
      .Add("whatif_cached_seconds", warm_seconds)
      .Add("whatif_cold_calls", cold.call_count())
      .Add("whatif_cached_calls", warm.call_count())
      .Add("cache_hits", cache.stats().hits)
      .Add("cache_misses", cache.stats().misses)
      .Add("cache_hit_rate", cache.stats().hit_rate())
      .Add("cache_speedup",
           warm_seconds > 0 ? cold_seconds / warm_seconds : 0.0)
      .AddRaw("obs_metrics", bench::MetricsJson())
      .AddRaw("run_meta", bench::RunMetadataJson());
  if (bench::WriteJsonSection("BENCH_results.json", "micro_components",
                              section)) {
    std::printf("wrote BENCH_results.json [micro_components]\n");
  } else {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  WriteMicroResults();
  return 0;
}
