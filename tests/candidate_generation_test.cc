#include <gtest/gtest.h>

#include <set>

#include "core/candidate_generation.h"
#include "optimizer/predicate.h"
#include "tests/test_util.h"

namespace aim::core {
namespace {

using aim::testing::MustQuery;

/// Fixture schema mirrors the paper's running examples: tables t1/t2/t3
/// with columns id (PK), col1..col7.
struct Fixture {
  storage::Database db;
  optimizer::WhatIfOptimizer what_if;
  CandidateGenerator gen;

  explicit Fixture(CandidateGenOptions options = {})
      : db(MakeDb()), what_if(db.catalog(), optimizer::CostModel()),
        gen(db.catalog(), &what_if, options) {}

  static storage::Database MakeDb() {
    storage::Database db;
    Rng rng(3);
    for (int t = 1; t <= 3; ++t) {
      catalog::TableDef def;
      def.name = "t" + std::to_string(t);
      catalog::ColumnDef id;
      id.name = "id";
      id.type = catalog::ColumnType::kInt64;
      id.avg_width = 8;
      def.columns.push_back(id);
      for (int c = 1; c <= 7; ++c) {
        catalog::ColumnDef col;
        col.name = "col" + std::to_string(c);
        col.type = catalog::ColumnType::kInt64;
        col.avg_width = 8;
        def.columns.push_back(col);
      }
      def.primary_key = {0};
      const catalog::TableId tid = db.CreateTable(std::move(def));
      std::vector<storage::ColumnSpec> specs(8);
      for (int c = 1; c <= 7; ++c) {
        specs[c].ndv = 10 * c;
      }
      (void)storage::GenerateRows(&db, tid, 1000, specs, &rng);
    }
    db.AnalyzeAll();
    return db;
  }

  optimizer::AnalyzedQuery Analyze(const workload::Query& q) {
    Result<optimizer::AnalyzedQuery> r =
        optimizer::Analyze(q.stmt, db.catalog());
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    return r.ok() ? r.MoveValue() : optimizer::AnalyzedQuery{};
  }
};

bool HasOrder(const std::vector<PartialOrder>& orders,
              const PartialOrder& want) {
  for (const PartialOrder& po : orders) {
    if (po == want) return true;
  }
  return false;
}

PartialOrder PO(catalog::TableId table,
                std::vector<std::vector<catalog::ColumnId>> parts) {
  return PartialOrder::FromPartitions(table, std::move(parts));
}

// Column ids in the fixture: id=0, col1=1, ..., col7=7.

TEST(CandidateGenTest, SimpleEqualityPredicate) {
  // E1 (Sec. IV-B): col1 = ? AND col2 = ? AND col3 = ?
  // -> <{col1, col2, col3}>.
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT col5 FROM t1 WHERE col1 = 1 AND col2 = 2 AND col3 = 3");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kNonCovering);
  EXPECT_TRUE(HasOrder(orders, PO(0, {{1, 2, 3}})))
      << "missing <{col1,col2,col3}>";
}

TEST(CandidateGenTest, PaperExampleE2OrChain) {
  // E2: (col1=? AND col2=? AND col3=?) OR (col2=? AND col4=?)
  // -> <{col1,col2,col3}> and <{col2,col4}>.
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT col5 FROM t1 WHERE (col1 = 1 AND col2 = 2 AND col3 = 3) "
      "OR (col2 = 4 AND col4 = 5)");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kNonCovering);
  EXPECT_TRUE(HasOrder(orders, PO(0, {{1, 2, 3}})));
  EXPECT_TRUE(HasOrder(orders, PO(0, {{2, 4}})));
}

TEST(CandidateGenTest, PaperExampleE3RangeResidual) {
  // E3: col1 = 5 AND col2 = 2 AND col3 > 5 AND col4 < 2
  // -> <{col1,col2},{one of col3/col4 chosen via dataless cost}>.
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT col5 FROM t1 WHERE col1 = 5 AND col2 = 2 AND col3 > 5 "
      "AND col4 < 2");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kNonCovering);
  ASSERT_EQ(orders.size(), 1u);
  const auto& parts = orders[0].partitions();
  ASSERT_EQ(parts.size(), 2u);
  EXPECT_EQ(parts[0], (PartialOrder::Partition{1, 2}));
  ASSERT_EQ(parts[1].size(), 1u);
  EXPECT_TRUE(parts[1][0] == 3 || parts[1][0] == 4);
  EXPECT_GT(f.gen.dataless_cost_calls(), 0u);
}

TEST(CandidateGenTest, ProjectionCoveringExample) {
  // Q1 (Sec. IV-A): SELECT col2, col3 FROM t1 WHERE col5 < 2
  // -> <{col5}, {col2, col3}> in covering mode.
  Fixture f;
  workload::Query q =
      MustQuery("SELECT col2, col3 FROM t1 WHERE col5 < 2");
  auto aq = f.Analyze(q);
  auto covering = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kCovering);
  EXPECT_TRUE(HasOrder(covering, PO(0, {{5}, {2, 3}})));
  auto non_covering = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kNonCovering);
  EXPECT_TRUE(HasOrder(non_covering, PO(0, {{5}})));
}

TEST(CandidateGenTest, GroupByNonCovering) {
  // Q3: SELECT col3, COUNT(*) FROM t1 GROUP BY col3 -> <{col3}>.
  Fixture f;
  workload::Query q =
      MustQuery("SELECT col3, COUNT(*) FROM t1 GROUP BY col3");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForGroupBy(
      q, aq, 2, CoveringMode::kNonCovering);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_TRUE(HasOrder(orders, PO(0, {{3}})));
}

TEST(CandidateGenTest, GroupByCoveringQ4) {
  // Q4: SELECT col3, SUM(col1) FROM t1 WHERE col2 = 5 GROUP BY col3
  // -> <{col2}, {col3}, {col1}> (Sec. IV-D).
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT col3, SUM(col1) FROM t1 WHERE col2 = 5 GROUP BY col3");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForGroupBy(
      q, aq, 2, CoveringMode::kCovering);
  EXPECT_TRUE(HasOrder(orders, PO(0, {{2}, {3}, {1}})));
}

TEST(CandidateGenTest, OrderByNonCoveringSequence) {
  // Q5-style: ORDER BY col6 yields the sequence <col6>.
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT col1 FROM t1 WHERE col5 IN (1, 2) ORDER BY col6 LIMIT 10");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForOrderBy(
      q, aq, 2, CoveringMode::kNonCovering);
  ASSERT_EQ(orders.size(), 1u);
  EXPECT_TRUE(HasOrder(orders, PO(0, {{6}})));
}

TEST(CandidateGenTest, OrderByCoveringIncludesIppPrefix) {
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT col1 FROM t1 WHERE col5 = 3 ORDER BY col6 LIMIT 10");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForOrderBy(
      q, aq, 2, CoveringMode::kCovering);
  // <{col5}, {col6}, {col1}>: IPP prefix, then order column, then the
  // remaining referenced column.
  EXPECT_TRUE(HasOrder(orders, PO(0, {{5}, {6}, {1}})));
}

TEST(CandidateGenTest, MultiColumnOrderByPreservesSequence) {
  Fixture f;
  workload::Query q =
      MustQuery("SELECT col1 FROM t1 ORDER BY col6, col2 LIMIT 5");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForOrderBy(
      q, aq, 2, CoveringMode::kNonCovering);
  ASSERT_EQ(orders.size(), 1u);
  ASSERT_EQ(orders[0].partitions().size(), 2u);
  EXPECT_TRUE(orders[0].Precedes(6, 2));
}

TEST(CandidateGenTest, JoinedTablesPowersetRespectsJ) {
  // Q2 (Sec. IV-C): t1.col2 = t3.col2 AND t2.col4 = t3.col7: t3 has two
  // join partners.
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT t1.col1, t2.col2, t3.col3 FROM t1, t2, t3 WHERE "
      "t1.col2 = t3.col2 AND t2.col4 = t3.col7");
  auto aq = f.Analyze(q);
  // t3 is instance 2.
  auto with_j2 = f.gen.JoinedTablesPowerset(aq, 2, 2);
  EXPECT_EQ(with_j2.size(), 4u);  // {}, {t1}, {t2}, {t1,t2}
  auto with_j1 = f.gen.JoinedTablesPowerset(aq, 2, 1);
  ASSERT_EQ(with_j1.size(), 1u);  // partner count exceeds j: only {}
  EXPECT_TRUE(with_j1[0].empty());
  // t1 has a single partner (t3), under both j values.
  EXPECT_EQ(f.gen.JoinedTablesPowerset(aq, 0, 1).size(), 2u);
}

TEST(CandidateGenTest, JoinColumnsBecomeIppCandidates) {
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT t1.col1, t2.col2, t3.col3 FROM t1, t2, t3 WHERE "
      "t1.col2 = t3.col2 AND t2.col4 = t3.col7");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kNonCovering);
  // t3 (table id 2) should get a candidate on both join columns
  // {col2, col7} to support join orders where t3 is probed last.
  EXPECT_TRUE(HasOrder(orders, PO(2, {{2, 7}})));
  // And single-column candidates for the other tables' join keys.
  EXPECT_TRUE(HasOrder(orders, PO(0, {{2}})));
  EXPECT_TRUE(HasOrder(orders, PO(1, {{4}})));
}

TEST(CandidateGenTest, JoinParameterLimitsExploration) {
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT t1.col1, t2.col2, t3.col3 FROM t1, t2, t3 WHERE "
      "t1.col2 = t3.col2 AND t2.col4 = t3.col7");
  auto aq = f.Analyze(q);
  auto j1 = f.gen.GenerateCandidatesForSelection(
      q, aq, 1, CoveringMode::kNonCovering);
  auto j2 = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kNonCovering);
  // j=1 cannot produce t3's two-column join-support candidate.
  EXPECT_FALSE(HasOrder(j1, PO(2, {{2, 7}})));
  EXPECT_TRUE(HasOrder(j2, PO(2, {{2, 7}})));
  EXPECT_GE(j2.size(), j1.size());
}

TEST(CandidateGenTest, FilterPlusJoinComposite) {
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT t1.col1 FROM t1, t2 WHERE t1.col3 = t2.col3 AND "
      "t1.col5 = 4");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateCandidatesForSelection(
      q, aq, 2, CoveringMode::kNonCovering);
  // With S={t2}: t1's candidate combines filter col5 and join col3.
  EXPECT_TRUE(HasOrder(orders, PO(0, {{3, 5}})));
  // With S={}: filter-only candidate.
  EXPECT_TRUE(HasOrder(orders, PO(0, {{5}})));
}

TEST(CandidateGenTest, GenerateForQueryCombinesGenerators) {
  Fixture f;
  workload::Query q = MustQuery(
      "SELECT col1, COUNT(*) FROM t1 WHERE col2 = 1 GROUP BY col1");
  auto aq = f.Analyze(q);
  auto orders = f.gen.GenerateForQuery(q, aq, nullptr);
  // Selection candidate <{col2}> and group candidate <{col1}>.
  EXPECT_TRUE(HasOrder(orders, PO(0, {{2}})));
  EXPECT_TRUE(HasOrder(orders, PO(0, {{1}})));
}

TEST(CandidateGenTest, GenerateCandidateIndexPerPO) {
  Fixture f;
  std::vector<PartialOrder> orders = {PO(0, {{2, 1}, {3}}),
                                      PO(1, {{4}})};
  auto defs = f.gen.GenerateCandidateIndexPerPO(orders);
  ASSERT_EQ(defs.size(), 2u);
  EXPECT_EQ(defs[0].table, 0u);
  EXPECT_EQ(defs[0].columns,
            (std::vector<catalog::ColumnId>{1, 2, 3}));
  EXPECT_EQ(defs[1].table, 1u);
}

TEST(CandidateGenTest, PerPoSkipsPkPrefix) {
  Fixture f;
  std::vector<PartialOrder> orders = {PO(0, {{0}})};  // index on id (PK)
  EXPECT_TRUE(f.gen.GenerateCandidateIndexPerPO(orders).empty());
}

TEST(CandidateGenTest, PerPoTruncatesToMaxWidth) {
  CandidateGenOptions options;
  options.max_index_width = 2;
  Fixture f(options);
  std::vector<PartialOrder> orders = {PO(0, {{1}, {2}, {3}, {4}})};
  auto defs = f.gen.GenerateCandidateIndexPerPO(orders);
  ASSERT_EQ(defs.size(), 1u);
  EXPECT_EQ(defs[0].columns.size(), 2u);
}

TEST(CandidateGenTest, PerPoDeduplicatesEquivalentOrders) {
  Fixture f;
  std::vector<PartialOrder> orders = {PO(0, {{1, 2}}), PO(0, {{1}, {2}})};
  // Both produce total order (col1, col2).
  EXPECT_EQ(f.gen.GenerateCandidateIndexPerPO(orders).size(), 1u);
}

TEST(CandidateGenTest, TryCoveringRequiresExistingSelectivity) {
  // With no indexes at all, TryCoveringIndex must say non-covering.
  Fixture f;
  workload::Query q =
      MustQuery("SELECT col2 FROM t1 WHERE col1 = 3");
  auto aq = f.Analyze(q);
  EXPECT_EQ(f.gen.TryCoveringIndex(q, aq, nullptr),
            CoveringMode::kNonCovering);
}

TEST(CandidateGenTest, TryCoveringTriggersWithIndexAndSeekVolume) {
  CandidateGenOptions options;
  options.covering_seek_threshold = 10.0;
  Fixture f(options);
  // Existing index on col3 in the generator's catalog; bump col3's
  // selectivity so each execution fetches a handful of rows via PK.
  f.db.catalog().mutable_table(0)->stats.columns[3].ndv = 500;
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {3};
  ASSERT_TRUE(f.db.catalog().AddIndex(def).ok());
  workload::Query q =
      MustQuery("SELECT col2 FROM t1 WHERE col3 = 7");
  auto aq = f.Analyze(q);
  workload::QueryStats stats;
  stats.executions = 100;
  EXPECT_EQ(f.gen.TryCoveringIndex(q, aq, &stats),
            CoveringMode::kCovering);
}

TEST(CandidateGenTest, GenerateForWorkloadMerges) {
  Fixture f;
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT col5 FROM t1 WHERE col1 = 1 AND col2 = 2 "
                    "AND col3 = 3")
                  .ok());
  ASSERT_TRUE(w.Add("SELECT col5 FROM t1 WHERE col2 = 2 AND col3 = 3")
                  .ok());
  CandidateGenerator gen(f.db.catalog(), &f.what_if, CandidateGenOptions{});
  Result<std::vector<PartialOrder>> merged =
      gen.GenerateForWorkload(w, nullptr);
  ASSERT_TRUE(merged.ok());
  // The merged order <{col2,col3},{col1}> must be present (Sec. III-E).
  EXPECT_TRUE(HasOrder(merged.ValueOrDie(), PO(0, {{2, 3}, {1}})));
}

TEST(CandidateGenTest, DmlWhereClausesGenerateCandidates) {
  Fixture f;
  workload::Workload w;
  ASSERT_TRUE(w.Add("UPDATE t1 SET col7 = 1 WHERE col2 = 3").ok());
  CandidateGenerator gen(f.db.catalog(), &f.what_if, CandidateGenOptions{});
  Result<std::vector<PartialOrder>> orders =
      gen.GenerateForWorkload(w, nullptr);
  ASSERT_TRUE(orders.ok());
  EXPECT_TRUE(HasOrder(orders.ValueOrDie(), PO(0, {{2}})));
}

}  // namespace
}  // namespace aim::core
