#include <gtest/gtest.h>

#include "catalog/catalog.h"
#include "catalog/statistics.h"

namespace aim::catalog {
namespace {

TableDef SimpleTable(const std::string& name, int columns) {
  TableDef def;
  def.name = name;
  for (int i = 0; i < columns; ++i) {
    ColumnDef c;
    c.name = 'c' + std::to_string(i);
    c.type = ColumnType::kInt64;
    c.avg_width = 8;
    def.columns.push_back(c);
  }
  def.primary_key = {0};
  def.stats.row_count = 1000;
  def.stats.columns.resize(columns);
  return def;
}

TEST(CatalogTest, AddAndFindTable) {
  Catalog cat;
  TableId id = cat.AddTable(SimpleTable("users", 3));
  EXPECT_EQ(id, 0u);
  Result<TableId> found = cat.FindTable("USERS");
  ASSERT_TRUE(found.ok());
  EXPECT_EQ(found.ValueOrDie(), id);
  EXPECT_FALSE(cat.FindTable("ghosts").ok());
}

TEST(CatalogTest, FindColumnCaseInsensitive) {
  Catalog cat;
  TableId id = cat.AddTable(SimpleTable("t", 3));
  EXPECT_TRUE(cat.table(id).FindColumn("C1").has_value());
  EXPECT_FALSE(cat.table(id).FindColumn("zz").has_value());
}

TEST(CatalogTest, AddIndexAssignsIdAndName) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 3));
  IndexDef def;
  def.table = t;
  def.columns = {1, 2};
  Result<IndexId> id = cat.AddIndex(def);
  ASSERT_TRUE(id.ok());
  const IndexDef* stored = cat.index(id.ValueOrDie());
  ASSERT_NE(stored, nullptr);
  EXPECT_FALSE(stored->name.empty());
}

TEST(CatalogTest, DuplicateIndexRejected) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 3));
  IndexDef def;
  def.table = t;
  def.columns = {1};
  ASSERT_TRUE(cat.AddIndex(def).ok());
  Result<IndexId> dup = cat.AddIndex(def);
  EXPECT_FALSE(dup.ok());
  EXPECT_EQ(dup.status().code(), Status::Code::kAlreadyExists);
}

TEST(CatalogTest, IndexValidation) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 3));
  IndexDef empty;
  empty.table = t;
  EXPECT_FALSE(cat.AddIndex(empty).ok());
  IndexDef bad_col;
  bad_col.table = t;
  bad_col.columns = {99};
  EXPECT_FALSE(cat.AddIndex(bad_col).ok());
  IndexDef bad_table;
  bad_table.table = 42;
  bad_table.columns = {0};
  EXPECT_FALSE(cat.AddIndex(bad_table).ok());
}

TEST(CatalogTest, DropIndex) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 3));
  IndexDef def;
  def.table = t;
  def.columns = {1};
  IndexId id = cat.AddIndex(def).ValueOrDie();
  ASSERT_TRUE(cat.DropIndex(id).ok());
  EXPECT_EQ(cat.index(id), nullptr);
  EXPECT_FALSE(cat.DropIndex(id).ok());  // double drop
  // Can be re-added after drop.
  EXPECT_TRUE(cat.AddIndex(def).ok());
}

TEST(CatalogTest, HypotheticalLifecycle) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 4));
  IndexDef real;
  real.table = t;
  real.columns = {1};
  IndexDef hypo;
  hypo.table = t;
  hypo.columns = {2};
  hypo.hypothetical = true;
  ASSERT_TRUE(cat.AddIndex(real).ok());
  ASSERT_TRUE(cat.AddIndex(hypo).ok());
  EXPECT_EQ(cat.AllIndexes(true).size(), 2u);
  EXPECT_EQ(cat.AllIndexes(false).size(), 1u);
  cat.DropAllHypothetical();
  EXPECT_EQ(cat.AllIndexes(true).size(), 1u);
}

TEST(CatalogTest, TableIndexesFiltersByTable) {
  Catalog cat;
  TableId t1 = cat.AddTable(SimpleTable("a", 3));
  TableId t2 = cat.AddTable(SimpleTable("b", 3));
  IndexDef d1;
  d1.table = t1;
  d1.columns = {1};
  IndexDef d2;
  d2.table = t2;
  d2.columns = {1};
  ASSERT_TRUE(cat.AddIndex(d1).ok());
  ASSERT_TRUE(cat.AddIndex(d2).ok());
  EXPECT_EQ(cat.TableIndexes(t1).size(), 1u);
  EXPECT_EQ(cat.TableIndexes(t2).size(), 1u);
}

TEST(CatalogTest, FindIndexMatchesExactColumns) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 4));
  IndexDef def;
  def.table = t;
  def.columns = {1, 2};
  ASSERT_TRUE(cat.AddIndex(def).ok());
  EXPECT_NE(cat.FindIndex(t, {1, 2}), nullptr);
  EXPECT_EQ(cat.FindIndex(t, {2, 1}), nullptr);
  EXPECT_EQ(cat.FindIndex(t, {1}), nullptr);
}

TEST(CatalogTest, SizesScaleWithRowsAndWidth) {
  Catalog cat;
  TableDef small = SimpleTable("small", 3);
  small.stats.row_count = 100;
  TableDef big = SimpleTable("big", 3);
  big.stats.row_count = 10000;
  TableId s = cat.AddTable(small);
  TableId b = cat.AddTable(big);
  EXPECT_GT(cat.TableSizeBytes(b), cat.TableSizeBytes(s));

  IndexDef narrow;
  narrow.table = b;
  narrow.columns = {1};
  IndexDef wide;
  wide.table = b;
  wide.columns = {1, 2};
  EXPECT_GT(cat.IndexSizeBytes(wide), cat.IndexSizeBytes(narrow));
  (void)s;
}

TEST(CatalogTest, TotalIndexBytesExcludesHypothetical) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 4));
  IndexDef real;
  real.table = t;
  real.columns = {1};
  IndexDef hypo;
  hypo.table = t;
  hypo.columns = {2};
  hypo.hypothetical = true;
  ASSERT_TRUE(cat.AddIndex(real).ok());
  ASSERT_TRUE(cat.AddIndex(hypo).ok());
  const double total = cat.TotalIndexBytes();
  EXPECT_GT(total, 0);
  EXPECT_DOUBLE_EQ(total, cat.IndexSizeBytes(real));
}

TEST(CatalogTest, DescribeIndexUsesNames) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("users", 3));
  IndexDef def;
  def.table = t;
  def.columns = {1, 2};
  EXPECT_EQ(cat.DescribeIndex(def), "users(c1, c2)");
}

TEST(CatalogTest, CopyIsDeep) {
  Catalog cat;
  TableId t = cat.AddTable(SimpleTable("t", 3));
  IndexDef def;
  def.table = t;
  def.columns = {1};
  ASSERT_TRUE(cat.AddIndex(def).ok());
  Catalog copy = cat;
  IndexDef extra;
  extra.table = t;
  extra.columns = {2};
  ASSERT_TRUE(copy.AddIndex(extra).ok());
  EXPECT_EQ(cat.AllIndexes().size(), 1u);
  EXPECT_EQ(copy.AllIndexes().size(), 2u);
}

// ---------- Statistics -------------------------------------------------------

TEST(StatsTest, FromSampleBasics) {
  std::vector<int64_t> sample;
  for (int i = 0; i < 1000; ++i) sample.push_back(i % 100);
  ColumnStats stats = ColumnStats::FromSample(sample);
  EXPECT_EQ(stats.min, 0);
  EXPECT_EQ(stats.max, 99);
  EXPECT_EQ(stats.ndv, 100u);
  EXPECT_FALSE(stats.histogram.empty());
  EXPECT_EQ(stats.histogram.back(), stats.max);
}

TEST(StatsTest, EmptySample) {
  ColumnStats stats = ColumnStats::FromSample({});
  EXPECT_EQ(stats.ndv, 1u);
  EXPECT_TRUE(stats.histogram.empty());
}

TEST(StatsTest, EqSelectivityUniform) {
  std::vector<int64_t> sample;
  for (int i = 0; i < 1000; ++i) sample.push_back(i % 10);
  ColumnStats stats = ColumnStats::FromSample(sample);
  EXPECT_NEAR(stats.EqSelectivity(5), 0.1, 1e-9);
  EXPECT_EQ(stats.EqSelectivity(999), 0.0);  // out of range
}

TEST(StatsTest, RangeSelectivityFullAndEmpty) {
  std::vector<int64_t> sample;
  for (int i = 0; i < 1000; ++i) sample.push_back(i);
  ColumnStats stats = ColumnStats::FromSample(sample);
  EXPECT_NEAR(stats.RangeSelectivity(0, 999), 1.0, 0.05);
  EXPECT_EQ(stats.RangeSelectivity(5000, 9000), 0.0);
  EXPECT_EQ(stats.RangeSelectivity(10, 5), 0.0);  // inverted range
}

TEST(StatsTest, RangeSelectivityHalf) {
  std::vector<int64_t> sample;
  for (int i = 0; i < 10000; ++i) sample.push_back(i);
  ColumnStats stats = ColumnStats::FromSample(sample);
  EXPECT_NEAR(stats.RangeSelectivity(0, 4999), 0.5, 0.06);
}

TEST(StatsTest, HistogramCapturesSkew) {
  // 90% of mass at value 0, the rest spread over [1, 1000].
  std::vector<int64_t> sample;
  for (int i = 0; i < 9000; ++i) sample.push_back(0);
  for (int i = 0; i < 1000; ++i) sample.push_back(1 + (i % 1000));
  ColumnStats stats = ColumnStats::FromSample(sample);
  const double head = stats.RangeSelectivity(0, 0);
  const double tail = stats.RangeSelectivity(500, 1000);
  EXPECT_GT(head, 0.5);
  EXPECT_LT(tail, 0.2);
}

TEST(StatsTest, NullFractionDiscountsSelectivity) {
  ColumnStats stats;
  stats.ndv = 10;
  stats.null_fraction = 0.5;
  EXPECT_NEAR(stats.DefaultEqSelectivity(), 0.05, 1e-9);
}

TEST(StatsTest, ConstantColumn) {
  std::vector<int64_t> sample(100, 7);
  ColumnStats stats = ColumnStats::FromSample(sample);
  EXPECT_EQ(stats.ndv, 1u);
  EXPECT_NEAR(stats.RangeSelectivity(7, 7), 1.0, 1e-6);
  EXPECT_EQ(stats.RangeSelectivity(8, 9), 0.0);
}

}  // namespace
}  // namespace aim::catalog
