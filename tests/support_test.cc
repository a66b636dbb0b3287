#include <gtest/gtest.h>

#include "common/fault_injection.h"
#include "support/regression_detector.h"
#include "support/stats_exporter.h"

namespace aim::support {
namespace {

TEST(StatsExporterTest, AggregatesAcrossReplicas) {
  workload::WorkloadMonitor m0, m1, m2;
  executor::ExecutionMetrics m;
  m.rows_examined = 100;
  m.rows_sent = 10;
  m.cpu_seconds = 1.0;
  m0.RecordKeyed(1, "q", m);
  m1.RecordKeyed(1, "q", m);
  m1.RecordKeyed(1, "q", m);
  m2.RecordKeyed(2, "other", m);

  StatsExporter exporter;
  exporter.RegisterReplica("replica-a", &m0);
  exporter.RegisterReplica("replica-b", &m1);
  exporter.RegisterReplica("replica-c", &m2);

  int messages = 0;
  exporter.Subscribe([&](const StatsMessage& msg) {
    ++messages;
    EXPECT_EQ(msg.interval, 0);
  });
  Result<size_t> published = exporter.ExportInterval();
  ASSERT_TRUE(published.ok());
  EXPECT_EQ(published.ValueOrDie(), 3u);
  EXPECT_EQ(messages, 3);

  // Warehouse view: query 1 has 3 executions across replicas.
  const workload::QueryStats* agg = exporter.aggregate().Find(1);
  ASSERT_NE(agg, nullptr);
  EXPECT_EQ(agg->executions, 3u);
  // Replica monitors were reset (delta semantics).
  EXPECT_EQ(m0.distinct_queries(), 0u);
  EXPECT_EQ(exporter.intervals_exported(), 1);
}

TEST(StatsExporterTest, SecondIntervalAccumulates) {
  workload::WorkloadMonitor replica;
  StatsExporter exporter;
  exporter.RegisterReplica("r", &replica);
  executor::ExecutionMetrics m;
  m.cpu_seconds = 1.0;
  replica.RecordKeyed(7, "q", m);
  ASSERT_TRUE(exporter.ExportInterval().ok());
  replica.RecordKeyed(7, "q", m);
  ASSERT_TRUE(exporter.ExportInterval().ok());
  EXPECT_EQ(exporter.aggregate().Find(7)->executions, 2u);
  EXPECT_EQ(exporter.intervals_exported(), 2);
}

TEST(StatsExporterTest, FailedExportDoesNotAdvanceInterval) {
  workload::WorkloadMonitor replica;
  StatsExporter exporter;
  exporter.RegisterReplica("r", &replica);
  executor::ExecutionMetrics m;
  m.cpu_seconds = 1.0;
  replica.RecordKeyed(7, "q", m);

  std::vector<int> seen_intervals;
  exporter.Subscribe([&](const StatsMessage& msg) {
    seen_intervals.push_back(msg.interval);
  });

  // Publish fails mid-export: the interval must not commit — monitors
  // keep their deltas, the aggregate is untouched, interval_ unchanged.
  {
    FaultSpec spec;
    spec.code = Status::Code::kUnavailable;
    ScopedFault fault("support.stats.export", spec);
    Result<size_t> r = exporter.ExportInterval();
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), Status::Code::kUnavailable);
  }
  EXPECT_EQ(exporter.intervals_exported(), 0);
  EXPECT_EQ(exporter.aggregate().Find(7), nullptr);
  EXPECT_EQ(replica.Find(7)->executions, 1u);

  // Retry re-exports the SAME interval number with the same deltas —
  // at-least-once delivery, deduplicable by (replica, interval).
  Result<size_t> retry = exporter.ExportInterval();
  ASSERT_TRUE(retry.ok());
  EXPECT_EQ(retry.ValueOrDie(), 1u);
  ASSERT_EQ(seen_intervals.size(), 1u);
  EXPECT_EQ(seen_intervals[0], 0);
  EXPECT_EQ(exporter.intervals_exported(), 1);
  ASSERT_NE(exporter.aggregate().Find(7), nullptr);
  EXPECT_EQ(exporter.aggregate().Find(7)->executions, 1u);
  EXPECT_EQ(replica.distinct_queries(), 0u);  // reset only after success
}

TEST(RegressionDetectorTest, FlagsCpuSpike) {
  RegressionDetector detector;
  auto stats_at = [](double cpu_avg) {
    workload::QueryStats s;
    s.fingerprint = 42;
    s.executions = 100;
    s.total_cpu_seconds = cpu_avg * 100;
    return std::vector<workload::QueryStats>{s};
  };
  // Build a stable baseline.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(detector.Observe(stats_at(1.0)).empty());
  }
  // Spike to 3x: flagged, with suspect automation index attached.
  std::vector<Regression> r =
      detector.Observe(stats_at(3.0), {{7, 0}});
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0].fingerprint, 42u);
  EXPECT_GT(r[0].ratio, 2.0);
  ASSERT_EQ(r[0].suspect_indexes.size(), 1u);
  EXPECT_EQ(r[0].suspect_indexes[0], 7u);
}

TEST(RegressionDetectorTest, IgnoresLowTraffic) {
  RegressionDetector detector;
  workload::QueryStats s;
  s.fingerprint = 1;
  s.executions = 2;  // below min_executions
  s.total_cpu_seconds = 100.0;
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(detector.Observe({s}).empty());
  }
}

TEST(RegressionDetectorTest, GradualDriftNotFlagged) {
  RegressionDetector detector;
  auto stats_at = [](double cpu_avg) {
    workload::QueryStats s;
    s.fingerprint = 9;
    s.executions = 50;
    s.total_cpu_seconds = cpu_avg * 50;
    return std::vector<workload::QueryStats>{s};
  };
  double cpu = 1.0;
  for (int i = 0; i < 10; ++i) {
    EXPECT_TRUE(detector.Observe(stats_at(cpu)).empty())
        << "interval " << i;
    cpu *= 1.05;  // 5% per interval stays under the 1.5x window ratio
  }
}

TEST(RegressionDetectorTest, RecoversAfterWindowRefills) {
  RegressionDetector detector;
  auto stats_at = [](double cpu_avg) {
    workload::QueryStats s;
    s.fingerprint = 5;
    s.executions = 50;
    s.total_cpu_seconds = cpu_avg * 50;
    return std::vector<workload::QueryStats>{s};
  };
  for (int i = 0; i < 4; ++i) detector.Observe(stats_at(1.0));
  EXPECT_FALSE(detector.Observe(stats_at(5.0)).empty());
  // The new level becomes the baseline after the window refills.
  for (int i = 0; i < 4; ++i) detector.Observe(stats_at(5.0));
  EXPECT_TRUE(detector.Observe(stats_at(5.0)).empty());
}

}  // namespace
}  // namespace aim::support
