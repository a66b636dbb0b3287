// Fleet-scale multi-tenant tuning suite (`ctest -L fleet`): the
// benefit-ranked scheduler, the global budget, the schema-keyed shared
// what-if cache store, atomic snapshot persistence, the stats
// aggregator's at-least-once dedup, and — the core contract — per-tenant
// decisions bit-identical to isolated single-tenant ContinuousTuner runs
// at 1, 2, and 8 threads. Pair with AIM_SANITIZE=thread for the TSan job.
#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault_injection.h"
#include "common/snapshot_file.h"
#include "core/continuous.h"
#include "core/fleet.h"
#include "obs/trace.h"
#include "optimizer/what_if_cache.h"
#include "support/stats_exporter.h"
#include "workload/tenants.h"

namespace aim {
namespace {

workload::TenantFleetOptions SmallFleetOptions(int tenants, int families) {
  workload::TenantFleetOptions options;
  options.tenants = tenants;
  options.families = families;
  options.seed = 42;
  options.scale = 0.3;
  options.queries_per_tenant = 6;
  return options;
}

void AppendIndexDef(std::ostringstream* out, const catalog::IndexDef& def) {
  *out << "t" << def.table;
  for (catalog::ColumnId col : def.columns) *out << "," << col;
}

/// Everything decision-relevant about one tuning interval, doubles in
/// hexfloat so "close" never passes for "identical".
std::string ReportSignature(const core::IntervalReport& report) {
  std::ostringstream out;
  out << std::hexfloat;
  out << "degraded=" << report.degraded << "\n";
  for (const core::CandidateIndex& c : report.aim.recommended) {
    out << "idx ";
    AppendIndexDef(&out, c.def);
    out << " benefit=" << c.benefit << "\n";
  }
  for (const core::QueryValidation& v : report.aim.validation.per_query) {
    out << "q" << v.fingerprint << " before=" << v.cpu_before
        << " after=" << v.cpu_after << "\n";
  }
  for (const catalog::IndexDef& d : report.dropped) {
    out << "dropped ";
    AppendIndexDef(&out, d);
    out << "\n";
  }
  for (const auto& [old_def, new_def] : report.shrunk) {
    out << "shrunk ";
    AppendIndexDef(&out, old_def);
    out << " -> ";
    AppendIndexDef(&out, new_def);
    out << "\n";
  }
  return out.str();
}

/// Final physical design of one tenant database.
std::string CatalogSignature(const storage::Database& db) {
  std::ostringstream out;
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(false, true)) {
    out << "final ";
    AppendIndexDef(&out, *idx);
    out << "\n";
  }
  return out.str();
}

// ---------------------------------------------------------------------------
// Tenant fleet generator

TEST(TenantFleetTest, DeterministicAndFamilyStructured) {
  const workload::TenantFleetOptions options = SmallFleetOptions(6, 3);
  Result<std::vector<workload::GeneratedTenant>> a =
      workload::GenerateTenantFleet(options);
  Result<std::vector<workload::GeneratedTenant>> b =
      workload::GenerateTenantFleet(options);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  const std::vector<workload::GeneratedTenant>& fleet = a.ValueOrDie();
  ASSERT_EQ(fleet.size(), 6u);
  for (size_t i = 0; i < fleet.size(); ++i) {
    const workload::GeneratedTenant& t = fleet[i];
    EXPECT_EQ(t.name, b.ValueOrDie()[i].name);
    EXPECT_EQ(t.family, static_cast<int>(i) % 3);
    EXPECT_EQ(t.workload.queries.size(), 6u);
    // Same options => bit-identical databases.
    EXPECT_EQ(t.db.catalog().SchemaStatsFingerprint(),
              b.ValueOrDie()[i].db.catalog().SchemaStatsFingerprint());
  }
  // Same-family tenants share one fingerprint; families differ.
  EXPECT_EQ(fleet[0].db.catalog().SchemaStatsFingerprint(),
            fleet[3].db.catalog().SchemaStatsFingerprint());
  EXPECT_NE(fleet[0].db.catalog().SchemaStatsFingerprint(),
            fleet[1].db.catalog().SchemaStatsFingerprint());
  EXPECT_NE(fleet[1].db.catalog().SchemaStatsFingerprint(),
            fleet[2].db.catalog().SchemaStatsFingerprint());
}

// ---------------------------------------------------------------------------
// The core fleet contract: scheduling and sharing change WHEN a tenant is
// tuned, never WHAT a tick decides.

TEST(FleetEquivalenceTest, BitIdenticalToIsolatedTunersAcrossThreads) {
  const workload::TenantFleetOptions gen = SmallFleetOptions(6, 3);
  constexpr int kIntervals = 3;

  // Baseline: each tenant tuned in isolation by its own ContinuousTuner
  // on a private database copy — no shared pool, no shared cache.
  std::vector<std::string> baseline;
  {
    Result<std::vector<workload::GeneratedTenant>> fleet =
        workload::GenerateTenantFleet(gen);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
      core::ContinuousTuner tuner(&t.db, optimizer::CostModel(), {});
      std::string sig;
      for (int i = 0; i < kIntervals; ++i) {
        Result<core::IntervalReport> r = tuner.Tick(t.workload, nullptr);
        ASSERT_TRUE(r.ok()) << r.status().ToString();
        EXPECT_FALSE(r.ValueOrDie().degraded)
            << r.ValueOrDie().error.ToString();
        sig += ReportSignature(r.ValueOrDie());
      }
      sig += CatalogSignature(t.db);
      baseline.push_back(std::move(sig));
    }
  }

  for (int threads : {1, 2, 8}) {
    Result<std::vector<workload::GeneratedTenant>> fleet =
        workload::GenerateTenantFleet(gen);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    core::FleetTunerOptions options;
    options.num_threads = threads;  // budget left unconstrained
    core::FleetTuner tuner(options);
    for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
      tuner.AddTenant(t.name, &t.db, &t.workload);
    }
    std::vector<std::string> sigs(tuner.tenant_count());
    for (int i = 0; i < kIntervals; ++i) {
      Result<core::FleetIntervalReport> r = tuner.RunInterval();
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      const core::FleetIntervalReport& report = r.ValueOrDie();
      EXPECT_EQ(report.tenants_tuned, tuner.tenant_count());
      EXPECT_EQ(report.tenants_skipped_budget, 0u);
      EXPECT_EQ(report.degraded_ticks, 0u);
      for (size_t t = 0; t < report.outcomes.size(); ++t) {
        EXPECT_TRUE(report.outcomes[t].tuned);
        sigs[t] += ReportSignature(report.outcomes[t].report);
      }
    }
    for (size_t t = 0; t < fleet.ValueOrDie().size(); ++t) {
      sigs[t] += CatalogSignature(fleet.ValueOrDie()[t].db);
      EXPECT_EQ(sigs[t], baseline[t])
          << "tenant " << fleet.ValueOrDie()[t].name << " diverged at "
          << threads << " threads";
    }
    // Same-schema tenants landed in the same cache store.
    EXPECT_EQ(tuner.cache_store()->store_count(), 3u);
  }
}

// ---------------------------------------------------------------------------
// Scheduler: budget admission and aging

TEST(FleetSchedulerTest, MaxTenantsBudgetAgingPreventsStarvation) {
  Result<std::vector<workload::GeneratedTenant>> fleet =
      workload::GenerateTenantFleet(SmallFleetOptions(4, 2));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  core::FleetTunerOptions options;
  options.budget.max_tenants = 1;
  core::FleetTuner tuner(options);
  for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
    tuner.AddTenant(t.name, &t.db, &t.workload);
  }
  std::vector<int> tuned_count(4, 0);
  for (int i = 0; i < 8; ++i) {
    Result<core::FleetIntervalReport> r = tuner.RunInterval();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    const core::FleetIntervalReport& report = r.ValueOrDie();
    EXPECT_EQ(report.tenants_tuned, 1u);
    EXPECT_EQ(report.tenants_skipped_budget, 3u);
    for (size_t t = 0; t < report.outcomes.size(); ++t) {
      if (report.outcomes[t].tuned) ++tuned_count[t];
      EXPECT_NE(report.outcomes[t].tuned,
                report.outcomes[t].skipped_for_budget);
    }
  }
  // Additive aging: every tenant got its turn within 8 intervals.
  for (size_t t = 0; t < tuned_count.size(); ++t) {
    EXPECT_GE(tuned_count[t], 1) << "tenant " << t << " starved";
  }
}

TEST(FleetSchedulerTest, CpuBudgetIsSoftForTheTopTenantOnly) {
  Result<std::vector<workload::GeneratedTenant>> fleet =
      workload::GenerateTenantFleet(SmallFleetOptions(3, 3));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  core::FleetTunerOptions options;
  // Far below any tenant's cost estimate: only the top-ranked tenant is
  // admitted (an interval always makes progress), everyone else skips.
  options.budget.cpu_seconds = 1e-9;
  core::FleetTuner tuner(options);
  for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
    tuner.AddTenant(t.name, &t.db, &t.workload);
  }
  Result<core::FleetIntervalReport> r = tuner.RunInterval();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r.ValueOrDie().tenants_tuned, 1u);
  EXPECT_EQ(r.ValueOrDie().tenants_skipped_budget, 2u);
}

// ---------------------------------------------------------------------------
// Schema-keyed shared cache store

TEST(FleetCacheStoreTest, SameFamilyTenantsShareOneStore) {
  Result<std::vector<workload::GeneratedTenant>> fleet =
      workload::GenerateTenantFleet(SmallFleetOptions(4, 2));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  core::FleetTuner tuner;
  for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
    tuner.AddTenant(t.name, &t.db, &t.workload);
  }
  Result<core::FleetIntervalReport> r = tuner.RunInterval();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const core::FleetIntervalReport& report = r.ValueOrDie();
  EXPECT_EQ(tuner.cache_store()->store_count(), 2u);
  // Registration order 0(f0) 1(f1) 2(f0) 3(f1) with equal priorities:
  // the first tenant of each family creates the store, the second finds
  // it warm.
  EXPECT_FALSE(report.outcomes[0].cache_shared);
  EXPECT_FALSE(report.outcomes[1].cache_shared);
  EXPECT_TRUE(report.outcomes[2].cache_shared);
  EXPECT_TRUE(report.outcomes[3].cache_shared);
}

TEST(FleetCacheStoreTest, SnapshotDirWarmStartsARestartedFleet) {
  const std::string dir = ::testing::TempDir();
  const workload::TenantFleetOptions gen = SmallFleetOptions(2, 2);
  core::FleetTunerOptions options;
  options.cache_store.snapshot_dir = dir;
  {
    Result<std::vector<workload::GeneratedTenant>> fleet =
        workload::GenerateTenantFleet(gen);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    // Stale snapshots from a previous test run would warm-start the
    // "cold" fleet below; start from a clean slate.
    for (const workload::GeneratedTenant& t : fleet.ValueOrDie()) {
      std::remove(SnapshotPathForFingerprint(
                      dir + "/whatif_cache",
                      t.db.catalog().SchemaStatsFingerprint())
                      .c_str());
    }
    core::FleetTuner tuner(options);
    for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
      tuner.AddTenant(t.name, &t.db, &t.workload);
    }
    ASSERT_TRUE(tuner.RunInterval().ok());
    EXPECT_EQ(tuner.cache_store()->snapshot_loads(), 0u);
  }
  {
    // A brand-new fleet service over the same schemas: both stores load
    // from the snapshots the previous instance persisted.
    Result<std::vector<workload::GeneratedTenant>> fleet =
        workload::GenerateTenantFleet(gen);
    ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
    core::FleetTuner tuner(options);
    for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
      tuner.AddTenant(t.name, &t.db, &t.workload);
    }
    Result<core::FleetIntervalReport> r = tuner.RunInterval();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(tuner.cache_store()->snapshot_loads(), 2u);
    EXPECT_EQ(r.ValueOrDie().degraded_ticks, 0u);
  }
}

TEST(FleetCacheStoreTest, FlippedSnapshotByteIsAColdStart) {
  // A directory of its own: other tests persist the same fingerprints.
  const std::string dir = ::testing::TempDir() + "/flipped_whatif_snapshot";
  std::filesystem::create_directories(dir);
  Result<std::vector<workload::GeneratedTenant>> fleet =
      workload::GenerateTenantFleet(SmallFleetOptions(1, 1));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  const workload::GeneratedTenant& tenant = fleet.ValueOrDie()[0];
  const std::string path = SnapshotPathForFingerprint(
      dir + "/whatif_cache", tenant.db.catalog().SchemaStatsFingerprint());
  std::remove(path.c_str());
  core::FleetCacheStoreOptions options;
  options.snapshot_dir = dir;
  // One tick of a tenant on a store over `dir`: its decisions and whether
  // the store warm-started.
  auto tick = [&](core::FleetCacheStore* store) {
    storage::Database db = tenant.db;
    core::ContinuousTuner tuner(&db, optimizer::CostModel(), {}, store);
    Result<core::IntervalReport> r = tuner.Tick(tenant.workload, nullptr);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_FALSE(r.ValueOrDie().degraded);
    return std::make_pair(
        ReportSignature(r.ValueOrDie()) + CatalogSignature(db),
        r.ValueOrDie().cache_loaded_from_snapshot);
  };
  core::FleetCacheStore cold_store(options);
  const auto [cold, cold_loaded] = tick(&cold_store);
  EXPECT_FALSE(cold_loaded);
  ASSERT_TRUE(cold_store.SaveAll().ok());

  // Flip one exponent bit of the most recently used entry's cost (header
  // 20 bytes, fingerprint and count 16, statement and configuration 16).
  std::optional<std::string> image = ReadSnapshotFile(path);
  ASSERT_TRUE(image.has_value());
  ASSERT_GT(image->size(), 60u);
  (*image)[20 + 16 + 16 + 7] ^= 0x40;
  ASSERT_TRUE(WriteSnapshotFile(path, *image).ok());

  core::FleetCacheStore restarted(options);
  const auto [warm, warm_loaded] = tick(&restarted);
  EXPECT_FALSE(warm_loaded);
  EXPECT_EQ(restarted.snapshot_loads(), 0u);
  EXPECT_EQ(warm, cold);
  std::remove(path.c_str());
}

TEST(FleetCacheStoreTest, TrimEvictsLeastRecentlyUsedStores) {
  core::FleetCacheStoreOptions options;
  options.max_stores = 2;
  core::FleetCacheStore store(options);
  store.GetOrCreate(1);
  store.GetOrCreate(2);
  store.GetOrCreate(1);  // refresh 1
  store.GetOrCreate(3);
  EXPECT_EQ(store.store_count(), 3u);
  store.TrimToCapacity();
  EXPECT_EQ(store.store_count(), 2u);
  // 2 was the least recently used; 1 and 3 survive. Recreating 2 is a
  // fresh store, finding 1/3 is not.
  const size_t before = store.store_count();
  store.GetOrCreate(1);
  store.GetOrCreate(3);
  EXPECT_EQ(store.store_count(), before);
  store.GetOrCreate(2);
  EXPECT_EQ(store.store_count(), before + 1);
}

// ---------------------------------------------------------------------------
// Atomic snapshot persistence (the SaveTo collision fix)

TEST(SnapshotAtomicityTest, PathsAreNamespacedByFingerprint) {
  const std::string a = SnapshotPathForFingerprint("/x/c.bin", 1);
  const std::string b = SnapshotPathForFingerprint("/x/c.bin", 2);
  EXPECT_NE(a, b);
  EXPECT_EQ(a.rfind("/x/c.bin", 0), 0u);
}

TEST(SnapshotAtomicityTest, TempPathIsPrivateToProcessAndThread) {
  const std::string tmp = SnapshotTempPath("/x/c.bin");
  EXPECT_EQ(tmp.rfind("/x/c.bin.tmp.", 0), 0u);
  EXPECT_NE(tmp.find("." + std::to_string(getpid()) + "."), std::string::npos)
      << tmp;
  std::string other;
  std::thread([&] { other = SnapshotTempPath("/x/c.bin"); }).join();
  EXPECT_NE(tmp, other);
}

TEST(SnapshotAtomicityTest, ConcurrentSaversNeverTearTheSnapshot) {
  const std::string path =
      ::testing::TempDir() + "/concurrent_whatif_snapshot.bin";
  std::remove(path.c_str());
  // Two caches with *different* contents hammering one path: any
  // interleaving must leave a loadable snapshot (one writer's complete
  // file), never a torn mix.
  optimizer::WhatIfCache a(64), b(64);
  for (uint64_t i = 0; i < 16; ++i) {
    ASSERT_TRUE(a.GetOrCompute({i, 1}, [i] {
                   return Result<double>(static_cast<double>(i));
                 }).ok());
    ASSERT_TRUE(b.GetOrCompute({i + 100, 2}, [i] {
                   return Result<double>(static_cast<double>(i) * 2.0);
                 }).ok());
  }
  constexpr uint64_t kFingerprint = 77;
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      const optimizer::WhatIfCache& cache = (t % 2 == 0) ? a : b;
      for (int i = 0; i < 25; ++i) {
        Status st = WriteSnapshotFile(path, cache.SaveTo(kFingerprint));
        EXPECT_TRUE(st.ok()) << st.ToString();
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const std::optional<std::string> image = ReadSnapshotFile(path);
  ASSERT_TRUE(image.has_value());
  optimizer::WhatIfCache loaded(64);
  Result<bool> adopted = loaded.LoadFrom(*image, kFingerprint);
  ASSERT_TRUE(adopted.ok()) << adopted.status().ToString();
  EXPECT_TRUE(adopted.ValueOrDie());
  EXPECT_EQ(loaded.size(), 16u);
}

// ---------------------------------------------------------------------------
// StatsExporter under concurrent multi-tenant publishers (satellite 3)

TEST(StatsExporterConcurrencyTest, ExportsAreUnbrokenMonotoneBatches) {
  constexpr int kReplicas = 4;
  constexpr int kPublishers = 4;
  constexpr int kExportsPerPublisher = 25;
  std::vector<workload::WorkloadMonitor> monitors(kReplicas);
  support::StatsExporter exporter;
  for (int r = 0; r < kReplicas; ++r) {
    exporter.RegisterReplica("tenant-" + std::to_string(r), &monitors[r]);
  }
  // The subscriber runs under the exporter's lock, so appends are
  // already serialized; the log is the ground truth for batching.
  std::vector<std::pair<int, std::string>> log;
  exporter.Subscribe([&](const support::StatsMessage& msg) {
    log.emplace_back(msg.interval, msg.replica);
  });

  std::atomic<bool> stop{false};
  std::thread traffic([&] {
    executor::ExecutionMetrics m;
    m.rows_examined = 100;
    m.rows_sent = 10;
    m.cpu_seconds = 0.001;
    uint64_t i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      monitors[i % kReplicas].RecordKeyed(i % 7, "q", m);
      ++i;
    }
  });
  std::vector<std::thread> publishers;
  for (int p = 0; p < kPublishers; ++p) {
    publishers.emplace_back([&] {
      for (int i = 0; i < kExportsPerPublisher; ++i) {
        ASSERT_TRUE(exporter.ExportInterval().ok());
      }
    });
  }
  for (std::thread& t : publishers) t.join();
  stop.store(true);
  traffic.join();

  constexpr int kTotal = kPublishers * kExportsPerPublisher;
  EXPECT_EQ(exporter.intervals_exported(), kTotal);
  ASSERT_EQ(log.size(), static_cast<size_t>(kTotal) * kReplicas);
  // Unbroken batches: the log is exactly interval 0 × kReplicas, then
  // interval 1 × kReplicas, ... — no interleaving, no torn batch, and
  // interval numbers strictly monotone across batches.
  for (int batch = 0; batch < kTotal; ++batch) {
    for (int r = 0; r < kReplicas; ++r) {
      const auto& [interval, replica] = log[batch * kReplicas + r];
      EXPECT_EQ(interval, batch);
      EXPECT_EQ(replica, "tenant-" + std::to_string(r));
    }
  }
}

TEST(StatsExporterConcurrencyTest, AtLeastOnceSurvivesConcurrentFaults) {
  constexpr int kReplicas = 3;
  std::vector<workload::WorkloadMonitor> monitors(kReplicas);
  support::StatsExporter exporter;
  for (int r = 0; r < kReplicas; ++r) {
    exporter.RegisterReplica("tenant-" + std::to_string(r), &monitors[r]);
  }
  support::FleetAggregator aggregator;
  aggregator.AttachTo(&exporter);

  executor::ExecutionMetrics m;
  m.rows_examined = 100;
  m.rows_sent = 10;
  m.cpu_seconds = 0.001;
  for (int r = 0; r < kReplicas; ++r) monitors[r].RecordKeyed(1, "q", m);

  {
    FaultSpec spec;
    spec.code = Status::Code::kUnavailable;
    spec.probability = 0.3;
    ScopedFault fault("support.stats.export", spec);
    std::vector<std::thread> publishers;
    for (int p = 0; p < 3; ++p) {
      publishers.emplace_back([&] {
        for (int i = 0; i < 20; ++i) {
          // Failures are expected; retries redeliver (at-least-once).
          (void)exporter.ExportInterval();
        }
      });
    }
    for (std::thread& t : publishers) t.join();
  }
  // A final clean export: any partially-published (never-committed) last
  // interval is redelivered in full, so every tenant's dedup'd view lines
  // up with the committed-interval count.
  ASSERT_TRUE(exporter.ExportInterval().ok());

  const int committed = exporter.intervals_exported();
  EXPECT_GT(committed, 0);
  // Every committed interval folded exactly once per tenant despite
  // redelivered messages from failed attempts.
  EXPECT_EQ(aggregator.tenant_count(), static_cast<size_t>(kReplicas));
  for (const support::TenantStatsView& view : aggregator.views()) {
    EXPECT_EQ(view.messages, static_cast<uint64_t>(committed));
    EXPECT_EQ(view.last_interval, committed - 1);
  }
}

TEST(FleetAggregatorTest, DedupsByTenantAndInterval) {
  support::FleetAggregator aggregator;
  support::StatsMessage msg;
  msg.replica = "tenant-a";
  msg.interval = 0;
  workload::QueryStats q;
  q.fingerprint = 1;
  q.executions = 10;
  q.total_cpu_seconds = 2.0;
  q.sum_sent_to_read = 1.0;  // ddr_avg 0.1 => benefit 0.9 * cpu_avg
  msg.stats.push_back(q);
  aggregator.Ingest(msg);
  aggregator.Ingest(msg);  // redelivery
  const support::TenantStatsView view = aggregator.view("tenant-a");
  EXPECT_EQ(view.messages, 1u);
  EXPECT_EQ(aggregator.duplicates_dropped(), 1u);
  EXPECT_NEAR(view.last_delta_benefit_seconds, 10 * 0.9 * 0.2, 1e-12);
  EXPECT_NEAR(view.last_delta_cpu_seconds, 2.0, 1e-12);
  // A later interval folds normally.
  msg.interval = 1;
  aggregator.Ingest(msg);
  EXPECT_EQ(aggregator.view("tenant-a").messages, 2u);
  EXPECT_EQ(aggregator.view("tenant-a").last_interval, 1);
}

// ---------------------------------------------------------------------------
// Observability: fleet spans

TEST(FleetTracingTest, TenantSpansParentUnderIntervalSpan) {
  Result<std::vector<workload::GeneratedTenant>> fleet =
      workload::GenerateTenantFleet(SmallFleetOptions(2, 1));
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  obs::Tracer tracer;
  obs::Tracer* previous = obs::Tracer::Install(&tracer);
  {
    core::FleetTunerOptions options;
    options.num_threads = 2;
    core::FleetTuner tuner(options);
    for (workload::GeneratedTenant& t : fleet.ValueOrDie()) {
      tuner.AddTenant(t.name, &t.db, &t.workload);
    }
    ASSERT_TRUE(tuner.RunInterval().ok());
  }
  obs::Tracer::Install(previous);
  ASSERT_TRUE(tracer.CheckBalanced().ok())
      << tracer.CheckBalanced().ToString();
  uint64_t interval_id = 0;
  size_t tenant_spans = 0;
  for (const obs::Tracer::SpanRecord& span : tracer.Snapshot()) {
    if (span.name == "fleet.interval") interval_id = span.id;
    if (span.name == "fleet.tenant") {
      ++tenant_spans;
      EXPECT_EQ(span.parent, interval_id);
    }
  }
  EXPECT_GT(interval_id, 0u);
  EXPECT_EQ(tenant_spans, 2u);
}

}  // namespace
}  // namespace aim
