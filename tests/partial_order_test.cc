#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <unordered_set>

#include "common/rng.h"
#include "core/merge.h"
#include "core/partial_order.h"

namespace aim::core {
namespace {

PartialOrder PO(std::vector<std::vector<catalog::ColumnId>> partitions,
                catalog::TableId table = 0) {
  return PartialOrder::FromPartitions(table, std::move(partitions));
}

/// Text key "t3:<{1,2},{5}>", independent of PartialOrder::Hash: the
/// reference merge below dedups on it.
std::string CanonicalKey(const PartialOrder& po) {
  std::string out = 't' + std::to_string(po.table()) + ":<";
  for (size_t i = 0; i < po.partitions().size(); ++i) {
    if (i > 0) out += ',';
    out += '{';
    for (size_t j = 0; j < po.partitions()[i].size(); ++j) {
      if (j > 0) out += ',';
      out += std::to_string(po.partitions()[i][j]);
    }
    out += '}';
  }
  return out + '>';
}

TEST(PartialOrderTest, BasicAccessors) {
  PartialOrder po = PO({{1, 2}, {3}});
  EXPECT_EQ(po.width(), 3u);
  EXPECT_TRUE(po.Contains(1));
  EXPECT_TRUE(po.Contains(3));
  EXPECT_FALSE(po.Contains(9));
  EXPECT_EQ(po.Columns(), (std::vector<catalog::ColumnId>{1, 2, 3}));
}

TEST(PartialOrderTest, PrecedesAcrossPartitionsOnly) {
  PartialOrder po = PO({{1, 2}, {3}});
  EXPECT_TRUE(po.Precedes(1, 3));
  EXPECT_TRUE(po.Precedes(2, 3));
  EXPECT_FALSE(po.Precedes(3, 1));
  EXPECT_FALSE(po.Precedes(1, 2));  // same partition: unordered
  EXPECT_FALSE(po.Precedes(1, 9));  // absent column
}

TEST(PartialOrderTest, AppendDropsDuplicates) {
  PartialOrder po = PO({{1, 2}});
  po.AppendPartition({2, 3, 3, 4});
  ASSERT_EQ(po.partitions().size(), 2u);
  EXPECT_EQ(po.partitions()[1],
            (PartialOrder::Partition{3, 4}));
}

TEST(PartialOrderTest, AppendAllDuplicatesIsNoop) {
  PartialOrder po = PO({{1, 2}});
  po.AppendPartition({1, 2});
  EXPECT_EQ(po.partitions().size(), 1u);
}

TEST(PartialOrderTest, AppendSequencePreservesOrder) {
  PartialOrder po(0);
  po.AppendSequence({5, 3, 7});
  ASSERT_EQ(po.partitions().size(), 3u);
  EXPECT_TRUE(po.Precedes(5, 3));
  EXPECT_TRUE(po.Precedes(3, 7));
}

TEST(PartialOrderTest, AnyTotalOrderSatisfiesOrder) {
  PartialOrder po = PO({{2, 1}, {4}, {3, 5}});
  std::vector<catalog::ColumnId> total = po.AnyTotalOrder();
  ASSERT_EQ(total.size(), 5u);
  auto pos = [&](catalog::ColumnId c) {
    return std::find(total.begin(), total.end(), c) - total.begin();
  };
  for (catalog::ColumnId a : {1, 2}) {
    EXPECT_LT(pos(a), pos(4));
  }
  for (catalog::ColumnId b : {3, 5}) {
    EXPECT_GT(pos(b), pos(4));
  }
}

TEST(PartialOrderTest, TotalOrderCount) {
  EXPECT_EQ(PO({{1, 2, 3}}).TotalOrderCount(), 6u);
  EXPECT_EQ(PO({{1, 2}, {3}, {4, 5}}).TotalOrderCount(), 4u);
  EXPECT_EQ(PO({{1}}).TotalOrderCount(), 1u);
}

TEST(PartialOrderTest, CanonicalKeyStable) {
  // The dedup key is Hash() with operator== on a hit. Partitions are kept
  // sorted, so neither sees the order columns were given in.
  PartialOrder a = PO({{2, 1}, {3}});
  PartialOrder b = PO({{1, 2}, {3}});
  EXPECT_EQ(a.Hash(), b.Hash());
  EXPECT_EQ(a, b);
  PartialOrder c = PO({{1}, {2}, {3}});
  EXPECT_NE(a.Hash(), c.Hash());
  EXPECT_FALSE(a == c);
  PartialOrderSet seen;
  EXPECT_TRUE(seen.insert(a).second);
  EXPECT_FALSE(seen.insert(b).second);
  EXPECT_TRUE(seen.insert(c).second);
}

TEST(PartialOrderTest, TableDistinguishesKeys) {
  PartialOrder a = PO({{1}}, 0);
  PartialOrder b = PO({{1}}, 1);
  EXPECT_NE(a.Hash(), b.Hash());
  EXPECT_FALSE(a == b);
}

// ---------- MergeCandidatesPairwise ------------------------------------------

TEST(MergeTest, PaperExample) {
  // <{col1, col2, col3}> merged with <{col2, col3}> ->
  // <{col2, col3}, {col1}> (Sec. III-E).
  PartialOrder q = PO({{1, 2, 3}});
  PartialOrder p = PO({{2, 3}});
  auto merged = MergeCandidatesPairwise(p, q);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->partitions().size(), 2u);
  EXPECT_EQ(merged->partitions()[0], (PartialOrder::Partition{2, 3}));
  EXPECT_EQ(merged->partitions()[1], (PartialOrder::Partition{1}));
}

TEST(MergeTest, RequiresSubset) {
  PartialOrder p = PO({{1, 4}});
  PartialOrder q = PO({{1, 2, 3}});
  EXPECT_FALSE(MergeCandidatesPairwise(p, q).has_value());
}

TEST(MergeTest, RequiresSameTable) {
  PartialOrder p = PO({{1}}, 0);
  PartialOrder q = PO({{1, 2}}, 1);
  EXPECT_FALSE(MergeCandidatesPairwise(p, q).has_value());
}

TEST(MergeTest, ConflictingOrderRejected) {
  // P says 1 < 2; Q says 2 < 1: C_merge fails.
  PartialOrder p = PO({{1}, {2}});
  PartialOrder q = PO({{2}, {1}});
  EXPECT_FALSE(MergeCandidatesPairwise(p, q).has_value());
}

TEST(MergeTest, SelfMergeIsIdentity) {
  PartialOrder p = PO({{1, 2}, {3}});
  auto merged = MergeCandidatesPairwise(p, p);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(*merged, p);
}

TEST(MergeTest, CompatibleOrderRefines) {
  // P = <{2},{3}> (2 before 3), Q = <{1,2,3}> (unordered):
  // result <{2},{3},{1}>.
  PartialOrder p = PO({{2}, {3}});
  PartialOrder q = PO({{1, 2, 3}});
  auto merged = MergeCandidatesPairwise(p, q);
  ASSERT_TRUE(merged.has_value());
  ASSERT_EQ(merged->partitions().size(), 3u);
  EXPECT_TRUE(merged->Precedes(2, 3));
  EXPECT_TRUE(merged->Precedes(3, 1));
}

TEST(MergeTest, ResultContainsAllOfQ) {
  PartialOrder p = PO({{2}});
  PartialOrder q = PO({{1, 2}, {3}, {4}});
  auto merged = MergeCandidatesPairwise(p, q);
  ASSERT_TRUE(merged.has_value());
  EXPECT_EQ(merged->Columns(), q.Columns());
}

// ---------- MergePartialOrders fixpoint --------------------------------------

TEST(MergeFixpointTest, KeepsOriginals) {
  std::vector<PartialOrder> input = {PO({{1}}), PO({{2}})};
  std::vector<PartialOrder> out = MergePartialOrders(input);
  // Nothing merges (no subset relation): originals survive.
  EXPECT_EQ(out.size(), 2u);
}

TEST(MergeFixpointTest, ProducesMergedOrder) {
  std::vector<PartialOrder> input = {PO({{1, 2, 3}}), PO({{2, 3}})};
  std::vector<PartialOrder> out = MergePartialOrders(input);
  bool found = false;
  for (const PartialOrder& po : out) {
    if (po == PO({{2, 3}, {1}})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MergeFixpointTest, DeduplicatesInput) {
  std::vector<PartialOrder> input = {PO({{1, 2}}), PO({{2, 1}}),
                                     PO({{1, 2}})};
  EXPECT_EQ(MergePartialOrders(input).size(), 1u);
}

TEST(MergeFixpointTest, DropsEmptyOrders) {
  std::vector<PartialOrder> input = {PartialOrder(0), PO({{1}})};
  EXPECT_EQ(MergePartialOrders(input).size(), 1u);
}

TEST(MergeFixpointTest, ChainOfThree) {
  // {3} ⊂ {2,3} ⊂ {1,2,3}: the fixpoint must contain the doubly-merged
  // <{3},{2},{1}>.
  std::vector<PartialOrder> input = {PO({{1, 2, 3}}), PO({{2, 3}}),
                                     PO({{3}})};
  std::vector<PartialOrder> out = MergePartialOrders(input);
  bool found = false;
  for (const PartialOrder& po : out) {
    if (po == PO({{3}, {2}, {1}})) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MergeFixpointTest, RespectsMaxOrdersCap) {
  std::vector<PartialOrder> input;
  for (catalog::ColumnId c = 0; c < 12; ++c) {
    input.push_back(PO({{c}}));
    input.push_back(PO({{c, static_cast<catalog::ColumnId>(c + 1)}}));
  }
  MergeOptions options;
  options.max_orders = 30;
  EXPECT_LE(MergePartialOrders(input, options).size(), 30u);
}

TEST(MergeFixpointTest, CrossTableNeverMerges) {
  std::vector<PartialOrder> input = {PO({{1, 2}}, 0), PO({{1}}, 1)};
  EXPECT_EQ(MergePartialOrders(input).size(), 2u);
}

// Property-style sweep: random inputs, check invariants.
class MergePropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MergePropertyTest, MergedOrdersPreserveBaseConstraints) {
  Rng rng(GetParam());
  std::vector<PartialOrder> input;
  for (int i = 0; i < 8; ++i) {
    std::vector<std::vector<catalog::ColumnId>> parts;
    int remaining = 1 + static_cast<int>(rng.Uniform(4));
    std::set<catalog::ColumnId> used;
    for (int p = 0; p < remaining; ++p) {
      std::vector<catalog::ColumnId> part;
      const int width = 1 + static_cast<int>(rng.Uniform(3));
      for (int c = 0; c < width; ++c) {
        catalog::ColumnId col =
            static_cast<catalog::ColumnId>(rng.Uniform(6));
        if (used.insert(col).second) part.push_back(col);
      }
      if (!part.empty()) parts.push_back(part);
    }
    if (!parts.empty()) input.push_back(PO(parts));
  }
  std::vector<PartialOrder> out = MergePartialOrders(input);
  // Invariant 1: no duplicates.
  std::set<std::string> keys;
  for (const PartialOrder& po : out) {
    EXPECT_TRUE(keys.insert(CanonicalKey(po)).second);
  }
  // Invariant 2: every input order still present (self-merge identity).
  for (const PartialOrder& po : input) {
    EXPECT_TRUE(keys.count(CanonicalKey(po)) > 0);
  }
  // Invariant 3: every pairwise merge of outputs is already in the set
  // (fixpoint), as long as we are under the cap.
  if (out.size() < 100) {
    for (const PartialOrder& a : out) {
      for (const PartialOrder& b : out) {
        auto merged = MergeCandidatesPairwise(a, b);
        if (merged.has_value()) {
          EXPECT_TRUE(keys.count(CanonicalKey(*merged)) > 0)
              << "missing merge of " << CanonicalKey(a) << " + "
              << CanonicalKey(b);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MergePropertyTest,
                         ::testing::Range<uint64_t>(1, 21));

// ---------- Semi-naive merge vs the all-pairs reference ----------------------

// The all-pairs fixpoint loop MergePartialOrders replaced, kept verbatim
// as the reference: every sweep tests every ordered pair of the orders
// present at its start and dedups on CanonicalKey strings.
std::vector<PartialOrder> ReferenceMerge(std::vector<PartialOrder> orders,
                                         const MergeOptions& options) {
  std::vector<PartialOrder> current;
  std::unordered_set<std::string> seen;
  for (auto& po : orders) {
    if (po.empty()) continue;
    if (seen.insert(CanonicalKey(po)).second) {
      current.push_back(std::move(po));
    }
  }

  for (size_t iter = 0; iter < options.max_iterations; ++iter) {
    bool grew = false;
    const size_t n = current.size();
    for (size_t i = 0; i < n; ++i) {
      for (size_t j = 0; j < n; ++j) {
        if (i == j) continue;
        if (current.size() >= options.max_orders) break;
        std::optional<PartialOrder> merged =
            MergeCandidatesPairwise(current[i], current[j]);
        if (!merged.has_value()) continue;
        if (seen.insert(CanonicalKey(*merged)).second) {
          current.push_back(std::move(*merged));
          grew = true;
        }
      }
      if (current.size() >= options.max_orders) break;
    }
    if (!grew) break;
  }
  return current;
}

// Seeded inputs over 1-4 tables and column ids up to 100, with duplicate
// and empty orders, a max_orders cap that often binds mid-sweep, and every
// max_iterations from 1 to 8. The output must be the reference's, in the
// reference's sequence.
TEST(MergeDifferentialTest, SemiNaiveMatchesAllPairsReference) {
  constexpr int kInputs = 400;
  int capped = 0;
  int multi_sweep = 0;
  for (int seed = 1; seed <= kInputs; ++seed) {
    Rng rng(static_cast<uint64_t>(seed));
    const int tables = 1 + static_cast<int>(rng.Uniform(4));
    // Each table draws its columns from a small pool so subset relations
    // (and therefore merges) are common.
    std::vector<std::vector<catalog::ColumnId>> pools(tables);
    for (auto& pool : pools) {
      const int width = 2 + static_cast<int>(rng.Uniform(5));
      for (int k = 0; k < width; ++k) {
        pool.push_back(static_cast<catalog::ColumnId>(rng.Uniform(101)));
      }
    }
    std::vector<PartialOrder> input;
    const int count = 2 + static_cast<int>(rng.Uniform(15));
    for (int k = 0; k < count; ++k) {
      const catalog::TableId table =
          static_cast<catalog::TableId>(rng.Uniform(tables));
      if (rng.Bernoulli(0.08)) {
        input.push_back(PartialOrder(table));  // empty
        continue;
      }
      if (!input.empty() && rng.Bernoulli(0.12)) {
        input.push_back(input[rng.Uniform(input.size())]);  // duplicate
        continue;
      }
      const std::vector<catalog::ColumnId>& pool = pools[table];
      std::vector<std::vector<catalog::ColumnId>> parts;
      const int nparts = 1 + static_cast<int>(rng.Uniform(3));
      for (int p = 0; p < nparts; ++p) {
        std::vector<catalog::ColumnId> part;
        const int width = 1 + static_cast<int>(rng.Uniform(3));
        for (int c = 0; c < width; ++c) {
          part.push_back(pool[rng.Uniform(pool.size())]);
        }
        parts.push_back(part);
      }
      input.push_back(PO(parts, table));
    }
    MergeOptions options;
    options.max_iterations = 1 + static_cast<size_t>(seed % 8);
    // Every other input caps the set strictly between its deduplicated
    // input and its uncapped result, so the cap binds during a sweep.
    const size_t deduped = ReferenceMerge(input, {4096, 0}).size();
    const size_t uncapped = ReferenceMerge(input, options).size();
    if (seed % 2 == 0 && uncapped > deduped + 1) {
      options.max_orders =
          deduped + 1 + rng.Uniform(uncapped - deduped - 1);
      ++capped;
    }

    const std::vector<PartialOrder> expected = ReferenceMerge(input, options);
    const std::vector<PartialOrder> actual = MergePartialOrders(input, options);
    ASSERT_EQ(actual.size(), expected.size()) << "seed=" << seed;
    for (size_t k = 0; k < expected.size(); ++k) {
      ASSERT_TRUE(actual[k] == expected[k])
          << "seed=" << seed << " position " << k << ": "
          << CanonicalKey(actual[k]) << " vs " << CanonicalKey(expected[k]);
    }
    if (ReferenceMerge(input, {4096, 1}).size() <
        ReferenceMerge(input, {4096, 8}).size()) {
      ++multi_sweep;  // some merge needs a merged order as an input
    }
  }
  // The inputs exercise the cap and merges that need a second sweep.
  EXPECT_GT(capped, 40);
  EXPECT_GT(multi_sweep, 40);
}

}  // namespace
}  // namespace aim::core
