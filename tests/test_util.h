#ifndef AIM_TESTS_TEST_UTIL_H_
#define AIM_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "executor/executor.h"
#include "sql/parser.h"
#include "storage/data_generator.h"
#include "storage/database.h"
#include "storage/online_index_builder.h"
#include "workload/demo.h"
#include "workload/workload.h"

namespace aim::testing {

/// Single-table fixture:
///   users(id PK, org_id, status, score, created_at, email, payload)
/// org_id ndv 100, status ndv 5, score ndv 1000 (zipf), created_at and
/// email quasi-unique.
inline storage::Database MakeUsersDb(uint64_t rows = 2000,
                                     uint64_t seed = 7) {
  return workload::MakeUsersDemoDb(rows, seed);
}

/// users + orders(id PK, user_id, status, total, day) for join tests.
inline storage::Database MakeOrdersDb(uint64_t users = 1000,
                                      uint64_t orders = 5000,
                                      uint64_t seed = 9) {
  return workload::MakeOrdersDemoDb(users, orders, seed);
}

/// A starting point for an online build of `def`: a copy of its table's
/// heap and the tree a blocking build makes on that copy.
inline storage::OnlineBuildSeed SeedOf(const storage::Database& db,
                                       const catalog::IndexDef& def) {
  storage::OnlineBuildSeed seed{db.heap(def.table), {}};
  EXPECT_TRUE(storage::BuildIndexTree(seed.heap, def,
                                      "storage.build_index_entry",
                                      &seed.tree)
                  .ok());
  return seed;
}

/// Parses or records a test failure (for test setup).
inline sql::Statement MustParse(const std::string& text) {
  Result<sql::Statement> r = sql::Parse(text);
  if (!r.ok()) {
    ADD_FAILURE() << "parse failed: " << r.status().ToString()
                  << " sql=" << text;
    return sql::Statement{};
  }
  return r.MoveValue();
}

/// Makes a workload query or records a test failure.
inline workload::Query MustQuery(const std::string& text,
                                 double weight = 1.0) {
  Result<workload::Query> r = workload::MakeQuery(text, weight);
  if (!r.ok()) {
    ADD_FAILURE() << "MakeQuery failed: " << r.status().ToString()
                  << " sql=" << text;
    return workload::Query{};
  }
  return r.MoveValue();
}

/// Order-insensitive result fingerprint: the multiset of rows rendered
/// as SQL literals. Two configurations agree on a query iff their
/// fingerprints match — the oracle and differential suites' comparison
/// key.
inline std::multiset<std::string> RowFingerprints(
    const executor::ExecuteResult& result) {
  std::multiset<std::string> keys;
  for (const storage::Row& row : result.rows) {
    std::string k;
    for (const sql::Value& v : row) k += v.ToSqlLiteral() + "|";
    keys.insert(std::move(k));
  }
  return keys;
}

/// The row ids of an index in its scan order (key order, ties in
/// insertion order); with the heap they determine every entry's key.
inline std::vector<storage::RowId> EntryOrder(const storage::BTreeIndex& tree) {
  std::vector<storage::RowId> rids;
  tree.ScanAll([&](storage::RowId rid) {
    rids.push_back(rid);
    return true;
  });
  return rids;
}

/// Every automation index of `db` against a fresh build of the same
/// definition on `reference` (a database with the same heaps): same
/// entries, keys and tie order.
inline void ExpectAutomationIndexesMatchFreshBuilds(
    const storage::Database& db, storage::Database reference) {
  size_t compared = 0;
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(false, false)) {
    if (!idx->created_by_automation) continue;
    catalog::IndexDef def = *idx;
    def.id = catalog::kInvalidIndex;
    def.name.clear();
    if (const catalog::IndexDef* old =
            reference.catalog().FindIndex(def.table, def.columns)) {
      ASSERT_TRUE(reference.DropIndex(old->id).ok());
    }
    Result<catalog::IndexId> fresh = reference.CreateIndex(def);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    const storage::BTreeIndex* tree = db.btree(idx->id);
    const storage::BTreeIndex* expected = reference.btree(fresh.ValueOrDie());
    ASSERT_NE(tree, nullptr);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(tree->entry_count(), expected->entry_count());
    EXPECT_EQ(tree->entry_count(), db.heap(idx->table).live_count());
    const std::vector<storage::RowId> rids = EntryOrder(*tree);
    ASSERT_EQ(rids, EntryOrder(*expected)) << db.catalog().DescribeIndex(*idx);
    // The keys stored in the tree are the live rows' keys: a prefix scan
    // on each row's own key finds that row.
    for (storage::RowId rid : rids) {
      ASSERT_TRUE(db.heap(idx->table).IsLive(rid));
      const std::string key =
          db.MakeIndexKey(*idx, db.heap(idx->table).row(rid));
      bool found = false;
      tree->ScanPrefix(key, std::nullopt, std::nullopt,
                       [&](storage::RowId r) {
                         found = found || r == rid;
                         return !found;
                       });
      ASSERT_TRUE(found) << "rid " << rid;
    }
    ++compared;
  }
  EXPECT_GT(compared, 0u);
}

/// Catalog-shape signature: one entry per live index (real and
/// hypothetical), keyed by table + key parts + kind. Ids are excluded on
/// purpose: rollback may rebuild an index under a fresh id, which is
/// still the same configuration.
inline std::multiset<std::string> IndexSignature(const storage::Database& db) {
  std::multiset<std::string> sig;
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(true, true)) {
    std::string key = std::to_string(idx->table);
    for (catalog::ColumnId c : idx->columns) {
      key += ',' + std::to_string(c);
    }
    key += idx->hypothetical ? "|hypo" : "|real";
    sig.insert(std::move(key));
  }
  return sig;
}

}  // namespace aim::testing

#endif  // AIM_TESTS_TEST_UTIL_H_
