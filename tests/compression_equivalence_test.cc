// Compression-equivalence differential suite (`ctest -L compression`).
//
// Workload compression and incremental candidate generation are pure
// optimizations: tuning on weighted cluster representatives — or serving
// unchanged clusters from the carried candidate cache — must select
// exactly the indexes a full uncompressed recompute selects. These tests
// diff the *selected index set* (and the final catalog after RunOnce)
// between compressed and uncompressed runs across 1/2/8 threads with the
// WhatIfCache on and off, on the TPC-H templates and on seeded random
// storms salted with exact duplicates and permuted/duplicated IN lists.
//
// Benefits are compared as sets, not hexfloat scalars: the per-cluster
// frequency roll-up legitimately re-associates float sums (k terms of
// U₊·f versus one term of U₊·kf), which can drift the printed benefit by
// ulps without ever moving a knapsack decision.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "core/aim.h"
#include "core/candidate_cache.h"
#include "executor/executor.h"
#include "optimizer/what_if.h"
#include "sql/printer.h"
#include "tests/test_util.h"
#include "workload/compression.h"
#include "workload/monitor.h"
#include "workload/tpch.h"

namespace aim {
namespace {

using aim::testing::MakeUsersDb;
using aim::testing::MustParse;

// ---------------------------------------------------------------------------
// Signatures

/// The recommended index set, order-independent.
std::string IndexSetSignature(const std::vector<core::CandidateIndex>& rec) {
  std::set<std::string> defs;
  for (const core::CandidateIndex& c : rec) {
    std::ostringstream d;
    d << "t" << c.def.table;
    for (catalog::ColumnId col : c.def.columns) d << "," << col;
    defs.insert(d.str());
  }
  std::ostringstream out;
  for (const std::string& d : defs) out << d << "\n";
  return out.str();
}

/// The final physical design, order-independent.
std::string CatalogIndexSet(const storage::Database& db) {
  std::set<std::string> defs;
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(false, true)) {
    std::ostringstream d;
    d << "t" << idx->table;
    for (catalog::ColumnId col : idx->columns) d << "," << col;
    defs.insert(d.str());
  }
  std::ostringstream out;
  for (const std::string& d : defs) out << d << "\n";
  return out.str();
}

core::AimOptions BaseOptions(bool compress, int threads,
                             size_t cache_entries) {
  core::AimOptions o;
  o.num_threads = threads;
  o.what_if_cache_entries = cache_entries;
  o.compression.enabled = compress;
  // Admit everything hot enough to matter; a huge cap keeps both paths
  // away from the top-k boundary (cap semantics are covered separately).
  o.selection.min_executions = 1;
  o.selection.min_benefit_cores = 1e-9;
  o.selection.max_queries = 512;
  return o;
}

/// Recommend-only run (no apply): returns the selected index set.
std::string RecommendSet(const storage::Database& base,
                         const workload::Workload& w,
                         const workload::WorkloadMonitor* monitor,
                         bool compress, int threads, size_t cache_entries) {
  storage::Database db = base;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(),
                                  BaseOptions(compress, threads,
                                              cache_entries));
  Result<core::AimReport> r = aim.Recommend(w, monitor);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  return IndexSetSignature(r.ValueOrDie().recommended);
}

/// Full RunOnce (validate + apply): selected set plus the final catalog.
std::string RunOnceSet(const storage::Database& base,
                       const workload::Workload& w,
                       const workload::WorkloadMonitor* monitor,
                       bool compress, int threads, size_t cache_entries) {
  storage::Database db = base;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(),
                                  BaseOptions(compress, threads,
                                              cache_entries));
  Result<core::AimReport> r = aim.RunOnce(w, monitor);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  if (!r.ok()) return "";
  return IndexSetSignature(r.ValueOrDie().recommended) + "--\n" +
         CatalogIndexSet(db);
}

// ---------------------------------------------------------------------------
// TPC-H templates

TEST(CompressionEquivalenceTest, TpchBootstrapSelectionIdentical) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db;
  workload::TpchOptions topt;
  topt.materialized_sf = 0.005;
  ASSERT_TRUE(workload::BuildTpch(&db, topt).ok());
  Result<workload::Workload> w = workload::TpchQueries();
  ASSERT_TRUE(w.ok());

  const std::string reference =
      RecommendSet(db, w.ValueOrDie(), nullptr, /*compress=*/false, 1, 4096);
  ASSERT_FALSE(reference.empty()) << "TPC-H bootstrap recommended nothing";
  for (int threads : {1, 2, 8}) {
    for (size_t cache : {size_t{0}, size_t{4096}}) {
      EXPECT_EQ(reference, RecommendSet(db, w.ValueOrDie(), nullptr,
                                        /*compress=*/true, threads, cache))
          << "threads=" << threads << " cache=" << cache;
    }
  }
}

TEST(CompressionEquivalenceTest, TpchMonitorDrivenSelectionIdentical) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db;
  workload::TpchOptions topt;
  topt.materialized_sf = 0.005;
  ASSERT_TRUE(workload::BuildTpch(&db, topt).ok());
  Result<workload::Workload> w = workload::TpchQueries();
  ASSERT_TRUE(w.ok());

  // Synthetic monitor statistics: every template hot and inefficient,
  // with per-template execution counts that vary enough to exercise the
  // benefit-rate ordering and the per-cluster frequency roll-up.
  workload::WorkloadMonitor monitor;
  executor::ExecutionMetrics m;
  for (size_t i = 0; i < w.ValueOrDie().queries.size(); ++i) {
    const workload::Query& q = w.ValueOrDie().queries[i];
    m.rows_examined = 2000 + 37 * i;
    m.rows_sent = 1 + i % 3;
    m.cpu_seconds = 0.01 + 0.003 * static_cast<double>(i % 7);
    const int executions = 5 + static_cast<int>(i) * 3;
    for (int rep = 0; rep < executions; ++rep) {
      monitor.RecordKeyed(q.fingerprint, q.normalized_sql, m);
    }
  }

  const std::string reference =
      RecommendSet(db, w.ValueOrDie(), &monitor, /*compress=*/false, 1, 4096);
  ASSERT_FALSE(reference.empty())
      << "monitor-driven TPC-H recommended nothing";
  for (int threads : {1, 2, 8}) {
    for (size_t cache : {size_t{0}, size_t{4096}}) {
      EXPECT_EQ(reference, RecommendSet(db, w.ValueOrDie(), &monitor,
                                        /*compress=*/true, threads, cache))
          << "threads=" << threads << " cache=" << cache;
    }
  }
}

// ---------------------------------------------------------------------------
// Seeded random storms: 3 seeds × 220 statements, salted with exact
// duplicates and permuted/duplicated IN-list variants (which the
// normalizer canonicalizes to byte-identical statements).

class CompressionStormTest : public ::testing::TestWithParam<uint64_t> {};

workload::Workload MakeStorm(Rng* rng, uint64_t rows, int statements) {
  auto lit = [&](uint64_t domain) {
    return std::to_string(rng->Uniform(domain));
  };
  auto column = [&](uint64_t* domain) -> std::string {
    static constexpr const char* kNames[] = {"id", "org_id", "status",
                                             "score", "created_at"};
    const uint64_t domains[] = {rows, 100, 5, 1000, rows};
    const size_t i = rng->Uniform(5);
    *domain = domains[i];
    return kNames[i];
  };
  auto predicate = [&]() -> std::string {
    uint64_t domain = 0;
    const std::string col = column(&domain);
    switch (rng->Uniform(5)) {
      case 0:
        return col + " = " + lit(domain);
      case 1:
        return col + " < " + lit(domain);
      case 2:
        return col + " > " + lit(domain);
      case 3: {
        const uint64_t lo = rng->Uniform(domain);
        return col + " BETWEEN " + std::to_string(lo) + " AND " +
               std::to_string(lo + 1 + rng->Uniform(domain / 4 + 1));
      }
      default: {
        std::string in = col + " IN (";
        const int n = 2 + static_cast<int>(rng->Uniform(3));
        for (int i = 0; i < n; ++i) {
          if (i > 0) in += ", ";
          in += lit(domain);
        }
        return in + ")";
      }
    }
  };
  auto fresh = [&]() -> std::string {
    if (rng->Bernoulli(0.08)) {
      return "UPDATE users SET score = " + lit(1000) + " WHERE org_id = " +
             lit(100);
    }
    static constexpr const char* kCols[] = {"id", "org_id", "status",
                                            "score", "created_at", "email"};
    std::string cols;
    const int n = 1 + static_cast<int>(rng->Uniform(3));
    for (int i = 0; i < n; ++i) {
      if (i > 0) cols += ", ";
      cols += kCols[rng->Uniform(6)];
    }
    std::string sql = "SELECT " + cols + " FROM users WHERE " + predicate();
    const int extra = static_cast<int>(rng->Uniform(3));
    for (int i = 0; i < extra; ++i) sql += " AND " + predicate();
    if (rng->Bernoulli(0.2)) {
      sql += std::string(" ORDER BY ") + kCols[rng->Uniform(6)];
    }
    return sql;
  };

  workload::Workload w;
  std::vector<std::string> history;
  // Distinct IN lists whose permuted/duplicated re-emissions below must
  // canonicalize into the same template cluster.
  const std::string in_base =
      "SELECT id FROM users WHERE org_id IN (4, 17, 52)";
  const std::string in_permuted =
      "SELECT id FROM users WHERE org_id IN (52, 4, 17)";
  const std::string in_duplicated =
      "SELECT id FROM users WHERE org_id IN (17, 52, 4, 17, 4)";
  while (static_cast<int>(w.size()) < statements) {
    std::string sql;
    const uint64_t pick = rng->Uniform(10);
    if (pick < 2 && !history.empty()) {
      // Exact duplicate of an earlier statement.
      sql = history[rng->Uniform(history.size())];
    } else if (pick == 2) {
      sql = in_base;
    } else if (pick == 3) {
      sql = rng->Bernoulli(0.5) ? in_permuted : in_duplicated;
    } else {
      sql = fresh();
      history.push_back(sql);
    }
    EXPECT_TRUE(w.Add(sql, 1.0).ok()) << sql;
  }
  return w;
}

TEST_P(CompressionStormTest, SelectedIndexSetIdentical) {
  FaultRegistry::Instance().DisarmAll();
  constexpr uint64_t kRows = 1200;
  Rng rng(GetParam());
  const workload::Workload w = MakeStorm(&rng, kRows, 220);
  storage::Database db = MakeUsersDb(kRows, /*seed=*/GetParam() + 41);

  // Real execution statistics: run every statement once on the heap
  // configuration. Entries sharing a template share the monitor record,
  // exactly as the production monitor keys by normalized fingerprint.
  workload::WorkloadMonitor monitor;
  executor::Executor exec(&db, optimizer::CostModel());
  for (const workload::Query& q : w.queries) {
    auto res = exec.Execute(q.stmt);
    ASSERT_TRUE(res.ok()) << q.sql << ": " << res.status().ToString();
    monitor.RecordKeyed(q.fingerprint, q.normalized_sql,
                        res.ValueOrDie().metrics);
  }

  const std::string reference =
      RunOnceSet(db, w, &monitor, /*compress=*/false, 1, 4096);
  ASSERT_NE(reference.find("t0"), std::string::npos)
      << "storm run recommended nothing:\n" << reference;
  for (int threads : {1, 2, 8}) {
    for (size_t cache : {size_t{0}, size_t{4096}}) {
      EXPECT_EQ(reference, RunOnceSet(db, w, &monitor, /*compress=*/true,
                                      threads, cache))
          << "threads=" << threads << " cache=" << cache;
    }
  }

  // The storm's duplicates and IN variants must actually compress.
  workload::CompressedWorkload c =
      workload::WorkloadCompressor().Compress(w, &monitor, &db.catalog());
  EXPECT_EQ(c.stats.statements_in, w.size());
  EXPECT_LT(c.stats.clusters, c.stats.entries_in);
  EXPECT_GT(c.stats.ratio(), 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionStormTest,
                         ::testing::Values<uint64_t>(1, 2, 3));

// ---------------------------------------------------------------------------
// Compressor units: accounting, idempotence, clustering

TEST(WorkloadCompressorTest, MultiplicityAndWeightAccounting) {
  const storage::Database db = MakeUsersDb(200);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 2.0).ok());
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 7", 3.0).ok());
  ASSERT_TRUE(w.Add("SELECT email FROM users WHERE status = 2", 1.5).ok());

  workload::CompressedWorkload c =
      workload::WorkloadCompressor().Compress(w, nullptr, &db.catalog());
  ASSERT_EQ(c.clusters.size(), 2u);
  ASSERT_EQ(c.workload.size(), 2u);
  EXPECT_EQ(c.stats.statements_in, 3u);
  EXPECT_EQ(c.stats.entries_in, 3u);
  EXPECT_DOUBLE_EQ(c.stats.ratio(), 1.5);
  // First occurrence represents the cluster.
  EXPECT_EQ(c.workload.queries[0].sql,
            "SELECT id FROM users WHERE org_id = 1");
  EXPECT_EQ(c.clusters[0].members, 2u);
  EXPECT_DOUBLE_EQ(c.workload.queries[0].weight, 5.0);
  EXPECT_EQ(c.workload.queries[0].multiplicity, 2u);
  EXPECT_EQ(c.clusters[1].members, 1u);
  EXPECT_DOUBLE_EQ(c.workload.queries[1].weight, 1.5);
}

TEST(WorkloadCompressorTest, ExecutionRollUpCountsEveryMemberEntry) {
  const storage::Database db = MakeUsersDb(200);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1").ok());
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 9").ok());

  workload::WorkloadMonitor monitor;
  executor::ExecutionMetrics m;
  m.rows_examined = 100;
  m.cpu_seconds = 0.01;
  for (int i = 0; i < 6; ++i) {
    monitor.RecordKeyed(w.queries[0].fingerprint,
                        w.queries[0].normalized_sql, m);
  }

  workload::CompressedWorkload c =
      workload::WorkloadCompressor().Compress(w, &monitor, &db.catalog());
  ASSERT_EQ(c.clusters.size(), 1u);
  // Each of the two member entries contributes its template's 6 observed
  // executions — mirroring the uncompressed path, where both entries are
  // selected with the same per-template stats.
  EXPECT_EQ(c.clusters[0].executions, 12u);
}

TEST(WorkloadCompressorTest, CompressionIsIdempotent) {
  const storage::Database db = MakeUsersDb(200);
  Rng rng(5);
  const workload::Workload w = MakeStorm(&rng, 200, 120);

  const workload::WorkloadCompressor compressor;
  workload::CompressedWorkload once =
      compressor.Compress(w, nullptr, &db.catalog());
  workload::CompressedWorkload twice =
      compressor.Compress(once.workload, nullptr, &db.catalog());

  ASSERT_EQ(once.clusters.size(), twice.clusters.size());
  EXPECT_EQ(once.stats.statements_in, twice.stats.statements_in);
  for (size_t i = 0; i < once.clusters.size(); ++i) {
    EXPECT_EQ(once.clusters[i].fingerprint, twice.clusters[i].fingerprint);
    EXPECT_EQ(once.clusters[i].members, twice.clusters[i].members);
    EXPECT_EQ(once.clusters[i].executions, twice.clusters[i].executions);
    EXPECT_DOUBLE_EQ(once.workload.queries[i].weight,
                     twice.workload.queries[i].weight);
    EXPECT_EQ(once.workload.queries[i].sql, twice.workload.queries[i].sql);
  }
}

TEST(WorkloadCompressorTest, PermutedConjunctsMergeByStructuralSignature) {
  const storage::Database db = MakeUsersDb(200);
  const sql::Statement a =
      MustParse("SELECT id FROM users WHERE org_id = 1 AND status = 2");
  const sql::Statement b =
      MustParse("SELECT id FROM users WHERE status = 4 AND org_id = 5");
  EXPECT_EQ(workload::WorkloadCompressor::StructuralSignature(a,
                                                              db.catalog()),
            workload::WorkloadCompressor::StructuralSignature(b,
                                                              db.catalog()));

  workload::Workload w;
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE org_id = 1 AND status = 2").ok());
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE status = 4 AND org_id = 5").ok());

  workload::WorkloadCompressionOptions merge_on;
  workload::CompressedWorkload merged =
      workload::WorkloadCompressor(merge_on).Compress(w, nullptr,
                                                      &db.catalog());
  ASSERT_EQ(merged.clusters.size(), 1u);
  EXPECT_EQ(merged.clusters[0].members, 2u);
  // Two distinct normalized templates folded into the one cluster.
  EXPECT_EQ(merged.clusters[0].template_fingerprints.size(), 2u);

  workload::WorkloadCompressionOptions merge_off;
  merge_off.merge_equivalent_templates = false;
  EXPECT_EQ(workload::WorkloadCompressor(merge_off)
                .Compress(w, nullptr, &db.catalog())
                .clusters.size(),
            2u);
}

TEST(WorkloadCompressorTest, DifferentShapesNeverMerge) {
  const storage::Database db = MakeUsersDb(200);
  const auto sig = [&](const std::string& sql) {
    return workload::WorkloadCompressor::StructuralSignature(MustParse(sql),
                                                             db.catalog());
  };
  const uint64_t base = sig("SELECT id FROM users WHERE org_id = 1");
  EXPECT_NE(base, sig("SELECT id FROM users WHERE org_id > 1"));
  EXPECT_NE(base, sig("SELECT id FROM users WHERE status = 1"));
  EXPECT_NE(base, sig("SELECT email FROM users WHERE org_id = 1"));
  EXPECT_NE(base,
            sig("SELECT id FROM users WHERE org_id = 1 ORDER BY score"));
  EXPECT_NE(base, sig("UPDATE users SET score = 2 WHERE org_id = 1"));
}

TEST(WorkloadCompressorTest, CanonicalizedInListsShareClusterAndCacheKey) {
  const storage::Database db = MakeUsersDb(200);
  workload::Workload w;
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE org_id IN (4, 17, 52)").ok());
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE org_id IN (52, 4, 17)").ok());
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE org_id IN (17, 52, 4, 17, 4)").ok());

  // The normalizer sorts and dedups literal-only IN lists at MakeQuery
  // time, so all three parse to the same canonical statement: same SQL
  // text, same literal-inclusive fingerprint (the candidate-cache cluster
  // key), one compression cluster.
  const std::string canonical = sql::ToSql(w.queries[0].stmt);
  EXPECT_EQ(canonical, sql::ToSql(w.queries[1].stmt));
  EXPECT_EQ(canonical, sql::ToSql(w.queries[2].stmt));
  EXPECT_EQ(core::CandidateCache::ClusterKey(w.queries[0].stmt, 0),
            core::CandidateCache::ClusterKey(w.queries[1].stmt, 0));
  EXPECT_EQ(core::CandidateCache::ClusterKey(w.queries[0].stmt, 0),
            core::CandidateCache::ClusterKey(w.queries[2].stmt, 0));

  workload::CompressedWorkload c =
      workload::WorkloadCompressor().Compress(w, nullptr, &db.catalog());
  ASSERT_EQ(c.clusters.size(), 1u);
  EXPECT_EQ(c.clusters[0].members, 3u);
}

// ---------------------------------------------------------------------------
// Incremental candidate generation: exact reuse, exact invalidation

core::AimReport MustRecommend(core::AutomaticIndexManager* aim,
                              const workload::Workload& w) {
  Result<core::AimReport> r = aim->Recommend(w, nullptr);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return r.ok() ? r.MoveValue() : core::AimReport{};
}

TEST(IncrementalCandgenTest, SecondRunServedEntirelyFromCache) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(1500);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 3", 40.0).ok());
  ASSERT_TRUE(w.Add("SELECT email FROM users WHERE status = 2 AND "
                    "score > 500",
                    20.0)
                  .ok());
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE created_at BETWEEN 10 AND 40", 10.0)
          .ok());

  core::CandidateCache cache(1024);
  core::AimOptions o = BaseOptions(/*compress=*/true, /*threads=*/2, 4096);
  core::TuningResources resources;
  resources.candidate_cache = &cache;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), o, resources);

  const core::AimReport first = MustRecommend(&aim, w);
  ASSERT_GT(first.stats.candgen_clusters_total, 0u);
  EXPECT_EQ(first.stats.candgen_clusters_reused, 0u);
  EXPECT_EQ(first.stats.candgen_clusters_recomputed,
            first.stats.candgen_clusters_total);

  // Nothing changed: every cluster of both generation passes is a hit,
  // and the recommendation is bit-for-bit the first one.
  const core::AimReport second = MustRecommend(&aim, w);
  EXPECT_EQ(second.stats.candgen_clusters_total,
            first.stats.candgen_clusters_total);
  EXPECT_EQ(second.stats.candgen_clusters_reused,
            second.stats.candgen_clusters_total);
  EXPECT_EQ(second.stats.candgen_clusters_recomputed, 0u);
  EXPECT_DOUBLE_EQ(second.stats.candgen_reuse_rate(), 1.0);
  EXPECT_EQ(IndexSetSignature(first.recommended),
            IndexSetSignature(second.recommended));
}

TEST(IncrementalCandgenTest, OnlyDriftedClustersRecompute) {
  FaultRegistry::Instance().DisarmAll();
  storage::Database db = MakeUsersDb(1500);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 3", 40.0).ok());
  ASSERT_TRUE(w.Add("SELECT email FROM users WHERE status = 2", 20.0).ok());
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE score > 500", 10.0).ok());

  core::CandidateCache cache(1024);
  // Single-pass generation: with two-phase on, a workload change can
  // legitimately alter the staged phase-1 configuration and so the phase-2
  // context fingerprint — correct (phase 2's input changed) but noisy for
  // exact per-cluster counting. One pass makes the arithmetic exact.
  core::AimOptions o = BaseOptions(/*compress=*/true, /*threads=*/1, 4096);
  o.two_phase = false;
  core::TuningResources resources;
  resources.candidate_cache = &cache;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), o, resources);

  const core::AimReport first = MustRecommend(&aim, w);
  EXPECT_EQ(first.stats.candgen_clusters_total, 3u);
  EXPECT_EQ(first.stats.candgen_clusters_recomputed, 3u);

  // Mix shift: one new template joins, the three old ones stay.
  ASSERT_TRUE(
      w.Add("SELECT id FROM users WHERE created_at BETWEEN 1 AND 9", 5.0)
          .ok());
  const core::AimReport drifted = MustRecommend(&aim, w);
  EXPECT_EQ(drifted.stats.candgen_clusters_total, 4u);
  EXPECT_EQ(drifted.stats.candgen_clusters_reused, 3u);
  EXPECT_EQ(drifted.stats.candgen_clusters_recomputed, 1u);

  // Statistics drift: every carried key embeds the old schema/stats
  // fingerprint, so the whole interval recomputes.
  db.AnalyzeAll(/*histogram_buckets=*/8);
  const core::AimReport refreshed = MustRecommend(&aim, w);
  EXPECT_EQ(refreshed.stats.candgen_clusters_total, 4u);
  EXPECT_EQ(refreshed.stats.candgen_clusters_reused, 0u);
  EXPECT_EQ(refreshed.stats.candgen_clusters_recomputed, 4u);

  // And reuse resumes once the statistics are stable again — with the
  // same selection a cold cache would produce.
  const core::AimReport resumed = MustRecommend(&aim, w);
  EXPECT_EQ(resumed.stats.candgen_clusters_reused, 4u);
  core::AutomaticIndexManager cold_aim(&db, optimizer::CostModel(), o);
  EXPECT_EQ(IndexSetSignature(MustRecommend(&cold_aim, w).recommended),
            IndexSetSignature(resumed.recommended));
}

TEST(IncrementalCandgenTest, CacheBoundedLruEvicts) {
  core::CandidateCache cache(2);
  std::vector<core::PartialOrder> empty;
  cache.Insert(1, 0, empty);
  cache.Insert(2, 0, empty);
  cache.Insert(3, 0, empty);  // evicts key 1
  std::vector<core::PartialOrder> out;
  EXPECT_FALSE(cache.Lookup(1, 0, &out));
  EXPECT_TRUE(cache.Lookup(2, 0, &out));
  EXPECT_TRUE(cache.Lookup(3, 0, &out));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // Same cluster, different context (e.g. new configuration): distinct key.
  cache.Insert(3, 9, empty);
  EXPECT_FALSE(cache.Lookup(3, 8, &out));
  EXPECT_TRUE(cache.Lookup(3, 9, &out));
}

}  // namespace
}  // namespace aim
