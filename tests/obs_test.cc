// aim::obs unit + integration coverage, and the trace-file fixture for
// tools/trace_check.py.
//
// Run with `ctest -L tracing` (and under TSan: AIM_SANITIZE=thread — the
// cache-stats hammer below is the WhatIfCache stats regression test).
//
// TraceExportTest doubles as the Chrome-trace generator: when
// AIM_TRACE_OUT is set (the ctest fixture sets it to
// <build>/obs_trace.json) it writes the full-pipeline trace that the
// trace_check.py test then validates.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/aim.h"
#include "core/continuous.h"
#include "core/sharding.h"
#include "executor/executor.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/what_if_cache.h"
#include "storage/online_index_builder.h"
#include "tests/row_oracle.h"
#include "tests/test_util.h"

namespace aim::obs {
namespace {

using aim::testing::MakeUsersDb;

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsTest, CounterGaugeHistogramBasics) {
  Counter c;
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.value(), 42u);
  c.Reset();
  EXPECT_EQ(c.value(), 0u);

  Gauge g;
  g.Set(2.5);
  g.Add(-1.0);
  EXPECT_DOUBLE_EQ(g.value(), 1.5);

  Histogram h;
  h.Observe(1e-3);
  h.Observe(3e-3);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_DOUBLE_EQ(h.sum(), 4e-3);
  EXPECT_DOUBLE_EQ(h.mean(), 2e-3);
  // Both observations land in finite buckets and total counts agree.
  uint64_t bucketed = 0;
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    bucketed += h.bucket_count(i);
  }
  EXPECT_EQ(bucketed, 2u);
}

TEST(MetricsTest, RegistryPointersStableAcrossResetAll) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  Counter* c = reg->counter("obs_test.stable");
  EXPECT_EQ(c, reg->counter("obs_test.stable"));
  c->Add(7);
  reg->ResetAll();
  EXPECT_EQ(c, reg->counter("obs_test.stable"));  // pointer survives
  EXPECT_EQ(c->value(), 0u);                      // value does not
}

TEST(MetricsTest, WriteJsonEmitsEveryInstrument) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  reg->counter("obs_test.json_counter")->Add(3);
  reg->gauge("obs_test.json_gauge")->Set(1.5);
  reg->histogram("obs_test.json_hist")->Observe(2.0);
  std::ostringstream out;
  reg->WriteJson(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"obs_test.json_counter\": 3"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"obs_test.json_gauge\": 1.5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"obs_test.json_hist\": {\"count\": 1"),
            std::string::npos)
      << json;
}

// ---------------------------------------------------------------------------
// Tracer

TEST(TracerTest, DisabledSpanRecordsNothing) {
  Tracer* disabled = Tracer::Disabled();
  EXPECT_FALSE(disabled->enabled());
  {
    Span span(disabled, "never");
    EXPECT_FALSE(span.enabled());
    EXPECT_EQ(span.id(), 0u);
    span.SetAttr("k", uint64_t{1});
  }
  EXPECT_EQ(disabled->event_count(), 0u);
  // The default installed tracer IS the disabled one.
  EXPECT_EQ(Tracer::Get(), disabled);
}

TEST(TracerTest, NestedSpansAutoParentOnOneThread) {
  Tracer tracer(Tracer::Clock::kVirtual);
  uint64_t outer_id = 0;
  uint64_t inner_id = 0;
  {
    Span outer(&tracer, "outer");
    outer_id = outer.id();
    {
      Span inner(&tracer, "inner");
      inner_id = inner.id();
    }
  }
  ASSERT_TRUE(tracer.CheckBalanced().ok());
  const std::vector<Tracer::SpanRecord> spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  std::map<std::string, Tracer::SpanRecord> by_name;
  for (const auto& s : spans) by_name[s.name] = s;
  EXPECT_EQ(by_name["outer"].id, outer_id);
  EXPECT_EQ(by_name["outer"].parent, 0u);
  EXPECT_EQ(by_name["inner"].id, inner_id);
  EXPECT_EQ(by_name["inner"].parent, outer_id);
}

TEST(TracerTest, ExplicitParentAttachesCrossThreadChildren) {
  Tracer tracer(Tracer::Clock::kVirtual);
  Tracer::Install(&tracer);
  {
    Span root(Tracer::Get(), "fanout");
    std::thread worker([parent = root.id()] {
      // A worker thread has an empty span stack: without the explicit
      // parent this span would be a root.
      Span child(Tracer::Get(), "worker", parent);
      child.SetAttr("shard", uint64_t{3});
    });
    worker.join();
  }
  Tracer::Install(nullptr);
  ASSERT_TRUE(tracer.CheckBalanced().ok()) << tracer.CheckBalanced().ToString();
  const auto spans = tracer.Snapshot();
  ASSERT_EQ(spans.size(), 2u);
  const auto& root = spans[0].name == "fanout" ? spans[0] : spans[1];
  const auto& child = spans[0].name == "worker" ? spans[0] : spans[1];
  EXPECT_EQ(child.parent, root.id);
  EXPECT_NE(child.tid, root.tid);
  ASSERT_EQ(child.attrs.size(), 1u);
  EXPECT_EQ(child.attrs[0].key, "shard");
  EXPECT_EQ(child.attrs[0].value, "3");
}

TEST(TracerTest, VirtualClockIsDeterministic) {
  auto run = [] {
    Tracer tracer(Tracer::Clock::kVirtual);
    {
      Span a(&tracer, "a");
      Span b(&tracer, "b");
    }
    std::ostringstream out;
    EXPECT_TRUE(tracer.WriteJsonLines(out).ok());
    return out.str();
  };
  const std::string first = run();
  EXPECT_EQ(first, run());
  EXPECT_NE(first.find("\"dur_us\""), std::string::npos);
}

TEST(TracerTest, ChromeTraceIsBalancedJson) {
  Tracer tracer(Tracer::Clock::kVirtual);
  {
    Span a(&tracer, "alpha");
    { Span b(&tracer, "beta \"quoted\"\n"); }
  }
  std::ostringstream out;
  ASSERT_TRUE(tracer.WriteChromeTrace(out).ok());
  const std::string json = out.str();
  EXPECT_EQ(json.find("{\"traceEvents\": ["), 0u);
  // One B and one E per span, escaping applied.
  size_t begins = 0;
  size_t ends = 0;
  for (size_t pos = 0; (pos = json.find("\"ph\": \"B\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++begins;
  }
  for (size_t pos = 0; (pos = json.find("\"ph\": \"E\"", pos)) !=
                       std::string::npos;
       ++pos) {
    ++ends;
  }
  EXPECT_EQ(begins, 2u);
  EXPECT_EQ(ends, 2u);
  EXPECT_NE(json.find("beta \\\"quoted\\\"\\n"), std::string::npos) << json;
}

TEST(TracerTest, CheckBalancedCatchesOrphanEnds) {
  Tracer tracer(Tracer::Clock::kVirtual);
  const uint64_t id = tracer.BeginSpan("open");
  EXPECT_FALSE(tracer.CheckBalanced().ok());  // still open
  tracer.EndSpan(id, {});
  EXPECT_TRUE(tracer.CheckBalanced().ok());
}

TEST(TracerTest, PhaseTimerRecordsSecondsAndHistogram) {
  MetricsRegistry* reg = MetricsRegistry::Global();
  Histogram* hist = reg->histogram("obs_test.phase.seconds");
  const uint64_t before = hist->count();
  double seconds = -1.0;
  {
    PhaseTimer timer("obs_test.phase", &seconds);
    EXPECT_GE(timer.elapsed_seconds(), 0.0);
  }
  EXPECT_GE(seconds, 0.0);
  EXPECT_EQ(hist->count(), before + 1);
}

// ---------------------------------------------------------------------------
// Full pipeline: every phase spanned, per-shard children attached, and
// the exported Chrome trace validates. Writes the trace_check.py fixture
// when AIM_TRACE_OUT is set.

workload::Workload PipelineWorkload() {
  workload::Workload w;
  EXPECT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 3", 50.0).ok());
  EXPECT_TRUE(
      w.Add("SELECT email FROM users WHERE status = 2 AND score > 500",
            20.0)
          .ok());
  EXPECT_TRUE(
      w.Add("SELECT id FROM users WHERE created_at BETWEEN 10 AND 40",
            10.0)
          .ok());
  EXPECT_TRUE(
      w.Add("UPDATE users SET score = 1 WHERE org_id = 3", 4.0).ok());
  return w;
}

TEST(TraceExportTest, FullPipelineChromeTraceValidates) {
  FaultRegistry::Instance().DisarmAll();
  Tracer tracer;  // steady clock: the exported trace has real durations
  Tracer::Install(&tracer);

  // Workload parsing happens under the tracer so sql.parse spans appear.
  const workload::Workload w = PipelineWorkload();

  // One full continuous-tuner interval…
  {
    storage::Database db = MakeUsersDb(500, /*seed=*/7);
    core::ContinuousTunerOptions options;
    options.aim.num_threads = 2;
    // Compression on (and the candidate cache carried by default) so the
    // trace gate can demand the workload.compress and candgen.incremental
    // spans alongside the classic pipeline phases.
    options.aim.compression.enabled = true;
    // Exploration + ordered deployment on, so the exploration.gate and
    // deploy.step spans the trace gate demands are exported too.
    options.exploration.enabled = true;
    options.aim.deployment.ordered = true;
    core::ContinuousTuner tuner(&db, optimizer::CostModel(), options);
    Result<core::IntervalReport> r = tuner.Tick(w, nullptr);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.ValueOrDie().degraded);
    ASSERT_FALSE(r.ValueOrDie().aim.recommended.empty());
  }

  // …and one sharded run, for the per-shard child spans.
  {
    std::vector<storage::Database> dbs;
    for (int i = 0; i < 3; ++i) {
      dbs.push_back(MakeUsersDb(500, /*seed=*/100 + i));
    }
    core::ShardedOptions options;
    options.comprehensive_validation = true;
    options.aim.num_threads = 2;
    core::ShardedIndexManager manager(options);
    std::vector<core::Shard> shards;
    for (storage::Database& db : dbs) {
      shards.push_back(core::Shard{&db, nullptr});
    }
    Result<core::ShardedReport> r =
        manager.RunOnce(w, shards, optimizer::CostModel());
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }

  // …and one (quiesced) online index build, so the trace carries the
  // online.build/online.catchup/online.swap spans the trace gate's
  // --require-if rules enforce.
  {
    storage::Database db = MakeUsersDb(300, /*seed=*/21);
    catalog::IndexDef def;
    def.table = 0;
    def.columns = {1};
    storage::OnlineIndexBuilder builder(&db);
    Result<storage::OnlineBuildReport> r = builder.Build(def);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.ValueOrDie().snapshot_rows, 300u);
  }

  Tracer::Install(nullptr);
  ASSERT_TRUE(tracer.CheckBalanced().ok())
      << tracer.CheckBalanced().ToString();

  const std::vector<Tracer::SpanRecord> spans = tracer.Snapshot();
  std::set<std::string> names;
  std::map<uint64_t, const Tracer::SpanRecord*> by_id;
  for (const auto& s : spans) {
    names.insert(s.name);
    by_id[s.id] = &s;
  }
  // Every pipeline phase is spanned.
  for (const char* phase :
       {"tuner.tick", "aim.run_once", "aim.recommend", "aim.selection",
        "aim.candgen", "aim.merge", "aim.knapsack", "aim.ranking",
        "aim.validation", "aim.apply", "whatif.plan", "sql.parse",
        "executor.execute", "sharded.run_once", "sharded.validation",
        "shard.validate", "sharded.apply", "shard.apply", "online.build",
        "online.snapshot", "online.catchup", "online.swap",
        "exploration.gate", "deploy.step"}) {
    EXPECT_EQ(names.count(phase), 1u) << "missing span: " << phase;
  }
  // Per-shard children hang off the sharded validation/apply phases.
  size_t validate_children = 0;
  size_t apply_children = 0;
  for (const auto& s : spans) {
    if (s.name == "shard.validate") {
      ASSERT_NE(s.parent, 0u);
      ASSERT_TRUE(by_id.count(s.parent));
      EXPECT_EQ(by_id[s.parent]->name, "sharded.validation");
      ++validate_children;
    }
    if (s.name == "shard.apply") {
      ASSERT_NE(s.parent, 0u);
      ASSERT_TRUE(by_id.count(s.parent));
      EXPECT_EQ(by_id[s.parent]->name, "sharded.apply");
      ++apply_children;
    }
  }
  EXPECT_EQ(validate_children, 3u);
  EXPECT_EQ(apply_children, 3u);

  // Export the Chrome trace — to the fixture path when the ctest wiring
  // asks for it, to a scratch file otherwise (the write path itself is
  // under test either way).
  const char* out_path = std::getenv("AIM_TRACE_OUT");
  const std::string path = out_path != nullptr
                               ? std::string(out_path)
                               : ::testing::TempDir() + "/obs_trace.json";
  std::ofstream out(path, std::ios::trunc);
  ASSERT_TRUE(out.good()) << path;
  ASSERT_TRUE(tracer.WriteChromeTrace(out).ok());
  out.close();
  ASSERT_TRUE(out.good()) << path;
}

// The AimRunStats phase timings are sourced from the obs layer: the same
// run must populate both the report fields and the registry histograms.
TEST(TraceExportTest, RunStatsSourcedFromRegistry) {
  FaultRegistry::Instance().DisarmAll();
  MetricsRegistry* reg = MetricsRegistry::Global();
  Histogram* selection = reg->histogram("aim.selection.seconds");
  Histogram* apply = reg->histogram("aim.apply.seconds");
  const uint64_t selection_before = selection->count();
  const uint64_t apply_before = apply->count();

  storage::Database db = MakeUsersDb(500, /*seed=*/7);
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), {});
  Result<core::AimReport> r = aim.RunOnce(PipelineWorkload(), nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  EXPECT_EQ(selection->count(), selection_before + 1);
  EXPECT_EQ(apply->count(), apply_before + 1);
  EXPECT_GE(r.ValueOrDie().stats.selection_seconds, 0.0);
  EXPECT_GE(r.ValueOrDie().stats.apply_seconds, 0.0);
}

// The default (batch) engine feeds the executor.batch.* counters: one
// SELECT bumps the batch count and accounts every row its scan/join
// operators produced. The row interpreter must leave them untouched.
TEST(TraceExportTest, BatchExecutorCountersTrackDefaultEngine) {
  FaultRegistry::Instance().DisarmAll();
  MetricsRegistry* reg = MetricsRegistry::Global();
  Counter* count = reg->counter("executor.batch.count");
  Counter* rows = reg->counter("executor.batch.rows");

  storage::Database db = MakeUsersDb(500, /*seed=*/7);
  const sql::Statement stmt =
      aim::testing::MustParse("SELECT id FROM users WHERE org_id = 3");

  executor::Executor batch_exec(&db, optimizer::CostModel());
  const uint64_t count_before = count->value();
  const uint64_t rows_before = rows->value();
  ASSERT_TRUE(batch_exec.Execute(stmt).ok());
  EXPECT_EQ(count->value(), count_before + 1);
  EXPECT_GE(rows->value(), rows_before + 500);  // full scan feeds 500 rows

  testing::RowOracle row_exec(&db, optimizer::CostModel());
  const uint64_t count_mid = count->value();
  ASSERT_TRUE(row_exec.Execute(stmt).ok());
  EXPECT_EQ(count->value(), count_mid);
}

// ---------------------------------------------------------------------------
// WhatIfCache stats: the TSan regression test. stats()/size()/Peek poll
// concurrently with a GetOrCompute storm; under AIM_SANITIZE=thread any
// unsynchronized counter access fails the run, and the monotonicity +
// conservation asserts pin the lock-free snapshot semantics.

TEST(WhatIfCacheStatsTest, ConcurrentPollersSeeMonotoneConsistentStats) {
  constexpr int kWriters = 4;
  constexpr int kIters = 3000;
  constexpr uint64_t kKeys = 64;
  // Capacity below the key count so evictions churn continuously.
  optimizer::WhatIfCache cache(/*capacity=*/32);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> computes{0};

  std::thread poller([&] {
    optimizer::WhatIfCacheStats last;
    while (!done.load(std::memory_order_acquire)) {
      const optimizer::WhatIfCacheStats s = cache.stats();
      // Counters are monotone: a torn or racy read would go backwards.
      EXPECT_GE(s.hits, last.hits);
      EXPECT_GE(s.misses, last.misses);
      EXPECT_GE(s.evictions, last.evictions);
      last = s;
      (void)cache.size();
      (void)cache.Peek({1, 1});
    }
  });

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(1000 + t);
      for (int i = 0; i < kIters; ++i) {
        const uint64_t k = rng.Uniform(kKeys);
        Result<double> r = cache.GetOrCompute(
            {k, k * 31}, [&]() -> Result<double> {
              computes.fetch_add(1, std::memory_order_relaxed);
              return static_cast<double>(k);
            });
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r.ValueOrDie(), static_cast<double>(k));
      }
    });
  }
  for (std::thread& w : writers) w.join();
  done.store(true, std::memory_order_release);
  poller.join();

  const optimizer::WhatIfCacheStats s = cache.stats();
  // Conservation at quiescence: every lookup was a hit or a miss…
  EXPECT_EQ(s.hits + s.misses,
            static_cast<uint64_t>(kWriters) * kIters);
  // …every miss ran the compute exactly once (single flight)…
  EXPECT_EQ(s.misses, computes.load());
  // …and the eviction count matches what left the cache.
  EXPECT_EQ(s.misses - s.evictions, cache.size());
  EXPECT_GT(s.evictions, 0u);
}

}  // namespace
}  // namespace aim::obs
