// Online index builds under live OLTP traffic: builder units, the seeded
// concurrent chaos suite (kills at online.snapshot.scan /
// online.delta.apply / online.swap), the concurrent-writer differential
// oracle, and the tuner-under-traffic integration tests. Everything here
// carries the `online` ctest label; the whole binary must be clean under
// AIM_SANITIZE=thread.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <mutex>
#include <set>
#include <shared_mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/continuous.h"
#include "storage/database.h"
#include "storage/online_index_builder.h"
#include "tests/test_util.h"
#include "workload/tpcc_oltp.h"

namespace aim {
namespace {

using aim::testing::MakeUsersDb;
using storage::Database;
using storage::OnlineBuildOptions;
using storage::OnlineBuildReport;
using storage::OnlineIndexBuilder;
using storage::Row;
using storage::RowId;

// ---------- invariant helpers ------------------------------------------------

/// FNV-1a over every heap slot (liveness + rendered values): bit-identity
/// witness for "a failed build left the heap untouched".
uint64_t HeapFingerprint(const Database& db, catalog::TableId table) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h ^= c;
      h *= 1099511628211ull;
    }
  };
  const storage::HeapTable& heap = db.heap(table);
  mix(std::to_string(heap.slot_count()));
  for (RowId rid = 0; rid < heap.slot_count(); ++rid) {
    if (!heap.IsLive(rid)) {
      mix("|dead");
      continue;
    }
    mix("|");
    for (const sql::Value& v : heap.row(rid)) mix(v.ToSqlLiteral());
  }
  return h;
}

/// Sorted (table, key columns) inventory of every index (real and
/// hypothetical): the configuration witness for "fully absent".
std::vector<std::pair<catalog::TableId, std::vector<catalog::ColumnId>>>
IndexSignature(const Database& db) {
  std::vector<std::pair<catalog::TableId, std::vector<catalog::ColumnId>>>
      sig;
  for (const catalog::IndexDef* idx : db.catalog().AllIndexes(true, true)) {
    sig.emplace_back(idx->table, idx->columns);
  }
  std::sort(sig.begin(), sig.end());
  return sig;
}

/// (encoded key, rid) entries in canonical order: ties on equal keys break
/// by rid. The B+Tree keeps equal keys in insertion order, which an online
/// build (catch-up erase/insert) legitimately permutes relative to a
/// heap-order rebuild — entry *sets* must match, tie order must not.
using Entries = std::vector<std::pair<std::string, RowId>>;

/// Every entry of index `id`, canonically ordered. The tree stores encoded
/// keys only, so each entry's key is read from its heap row and confirmed
/// by probing the tree with it; an entry the probe does not find (a stale
/// key, or a dead row) is reported under a marker that matches nothing.
Entries IndexEntries(const Database& db, catalog::IndexId id) {
  const catalog::IndexDef& def = *db.catalog().index(id);
  const storage::BTreeIndex& tree = *db.btree(id);
  const storage::HeapTable& heap = db.heap(def.table);
  Entries out;
  tree.ScanAll([&](RowId rid) {
    out.emplace_back(
        heap.IsLive(rid) ? db.MakeIndexKey(def, heap.row(rid)) : "", rid);
    return true;
  });
  for (auto& [key, rid] : out) {
    bool stored = false;
    tree.ScanPrefix(key, std::nullopt, std::nullopt, [&](RowId r) {
      stored = r == rid;
      return !stored;
    });
    if (!stored) key = "<not stored under its heap key>";
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// What the index *should* contain: one entry per live heap row, built
/// from the row's current state. Canonically ordered.
Entries ExpectedEntries(const Database& db, const catalog::IndexDef& def) {
  Entries out;
  db.heap(def.table).Scan([&](RowId rid, const Row& row) {
    out.emplace_back(db.MakeIndexKey(def, row), rid);
    return true;
  });
  std::sort(out.begin(), out.end());
  return out;
}

/// The all-or-nothing invariant every chaos schedule asserts. Caller has
/// quiesced the database or holds its latch. Returns true when the index
/// is (fully) installed.
bool CheckAllOrNothing(const Database& db, const catalog::IndexDef& def) {
  const catalog::IndexDef* found =
      db.catalog().FindIndex(def.table, def.columns);
  EXPECT_EQ(db.dml_hook_count(), 0u) << "leaked DML hook";
  if (found == nullptr) return false;  // fully absent: nothing else to check
  const storage::BTreeIndex* tree = db.btree(found->id);
  EXPECT_NE(tree, nullptr) << "catalog entry without materialized tree";
  if (tree == nullptr) return true;
  EXPECT_EQ(IndexEntries(db, found->id), ExpectedEntries(db, def))
      << "installed index does not match the heap";
  return true;
}

class OnlineBuildTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

// ---------- quiesced builder units -------------------------------------------

TEST_F(OnlineBuildTest, QuiescentBuildMatchesBlockingCreate) {
  Database online_db = MakeUsersDb(800, /*seed=*/11);
  Database blocking_db = online_db;

  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1, 2};  // (org_id, status)

  OnlineIndexBuilder builder(&online_db);
  Result<OnlineBuildReport> r = builder.Build(def);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const OnlineBuildReport& report = r.ValueOrDie();
  EXPECT_EQ(report.snapshot_rows, 800u);
  EXPECT_EQ(report.delta_applied, 0u);
  EXPECT_EQ(report.swap_tail_applied, 0u);
  EXPECT_EQ(report.catchup_rounds, 0);
  EXPECT_EQ(online_db.dml_hook_count(), 0u);

  Result<catalog::IndexId> blocking = blocking_db.CreateIndex(def);
  ASSERT_TRUE(blocking.ok());
  EXPECT_EQ(IndexEntries(online_db, report.id),
            IndexEntries(blocking_db, blocking.ValueOrDie()));
}

TEST_F(OnlineBuildTest, RejectsBadDefinitions) {
  Database db = MakeUsersDb(100);
  OnlineIndexBuilder builder(&db);

  catalog::IndexDef unknown;
  unknown.table = 99;
  unknown.columns = {0};
  EXPECT_EQ(builder.Build(unknown).status().code(),
            Status::Code::kInvalidArgument);

  catalog::IndexDef empty;
  empty.table = 0;
  EXPECT_EQ(builder.Build(empty).status().code(),
            Status::Code::kInvalidArgument);

  catalog::IndexDef dup;
  dup.table = 0;
  dup.columns = {1};
  ASSERT_TRUE(builder.Build(dup).ok());
  EXPECT_EQ(builder.Build(dup).status().code(),
            Status::Code::kAlreadyExists);
  EXPECT_EQ(db.dml_hook_count(), 0u);
}

TEST_F(OnlineBuildTest, IndexIsMaintainedAfterSwap) {
  Database db = MakeUsersDb(300, /*seed=*/3);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  OnlineIndexBuilder builder(&db);
  Result<OnlineBuildReport> r = builder.Build(def);
  ASSERT_TRUE(r.ok()) << r.status().ToString();

  // Post-swap DML flows through normal index maintenance.
  Row fresh = db.heap(0).row(0);
  fresh[0] = sql::Value::Int(1000000);
  ASSERT_TRUE(db.InsertRow(0, fresh).ok());
  Row moved = db.heap(0).row(5);
  moved[1] = sql::Value::Int(424242);  // move to a new org_id key
  ASSERT_TRUE(db.UpdateRow(0, 5, moved).ok());
  ASSERT_TRUE(db.DeleteRow(0, 7).ok());

  EXPECT_EQ(IndexEntries(db, r.ValueOrDie().id), ExpectedEntries(db, def));
}

TEST_F(OnlineBuildTest, TransactionRollbackDropsOnlineBuiltIndex) {
  Database db = MakeUsersDb(200);
  catalog::IndexDef def;
  def.table = 0;
  def.columns = {3};
  const auto before = IndexSignature(db);

  storage::IndexSetTransaction txn(&db, &db.latch());
  OnlineIndexBuilder builder(&db);
  Result<OnlineBuildReport> r = builder.Build(def, &txn);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(db.catalog().FindIndex(0, def.columns), nullptr);

  ASSERT_TRUE(txn.Rollback().ok());
  EXPECT_EQ(db.catalog().FindIndex(0, def.columns), nullptr);
  EXPECT_EQ(IndexSignature(db), before);
}

TEST_F(OnlineBuildTest, SnapshotFaultAbortsClean) {
  Database db = MakeUsersDb(500, /*seed=*/5);
  const uint64_t heap_before = HeapFingerprint(db, 0);
  const auto sig_before = IndexSignature(db);

  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  ScopedFault fault("online.snapshot.scan", spec);

  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  OnlineIndexBuilder builder(&db);
  Result<OnlineBuildReport> r = builder.Build(def);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), Status::Code::kInternal);
  EXPECT_EQ(HeapFingerprint(db, 0), heap_before);
  EXPECT_EQ(IndexSignature(db), sig_before);
  EXPECT_EQ(db.dml_hook_count(), 0u);
}

TEST_F(OnlineBuildTest, SwapFaultAbortsClean) {
  Database db = MakeUsersDb(500, /*seed=*/5);
  const uint64_t heap_before = HeapFingerprint(db, 0);
  const auto sig_before = IndexSignature(db);

  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  ScopedFault fault("online.swap", spec);

  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  OnlineIndexBuilder builder(&db);
  Result<OnlineBuildReport> r = builder.Build(def);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(HeapFingerprint(db, 0), heap_before);
  EXPECT_EQ(IndexSignature(db), sig_before);
  EXPECT_EQ(db.dml_hook_count(), 0u);

  // The aborted build left nothing behind: the same definition builds
  // fine once the fault clears.
  FaultRegistry::Instance().DisarmAll();
  ASSERT_TRUE(builder.Build(def).ok());
  EXPECT_TRUE(CheckAllOrNothing(db, def));
}

// A transient (kUnavailable) delta-apply failure is retried under the
// catch-up RetryPolicy and the build still converges. The DML that feeds
// the delta log is injected deterministically through the
// after_snapshot_chunk sync hook (latch released at that point), so the
// fault crossing is guaranteed — no scheduler race.
TEST_F(OnlineBuildTest, TransientDeltaFaultRetriesWithBackoff) {
  Database db = MakeUsersDb(400, /*seed=*/13);
  FaultSpec spec;  // transient: fail twice, then succeed
  spec.code = Status::Code::kUnavailable;
  spec.fail_times = 2;
  ScopedFault fault("online.delta.apply", spec);

  catalog::IndexDef def;
  def.table = 0;
  def.columns = {1};
  OnlineBuildOptions options;
  options.max_swap_tail = 0;  // force all delta through retried catch-up
  options.max_catchup_rounds = 256;
  bool injected = false;
  options.after_snapshot_chunk = [&](uint64_t) {
    if (injected) return;
    injected = true;
    std::unique_lock<std::shared_mutex> lock(db.latch());
    for (int i = 0; i < 8; ++i) {
      Row row = db.heap(0).row(static_cast<RowId>(i));
      row[0] = sql::Value::Int(2000000 + i);
      ASSERT_TRUE(db.InsertRow(0, row).ok());
    }
  };

  OnlineIndexBuilder builder(&db, options);
  Result<OnlineBuildReport> r = builder.Build(def);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_TRUE(injected);
  const OnlineBuildReport& report = r.ValueOrDie();
  EXPECT_GE(report.delta_applied, 8u);
  EXPECT_EQ(report.swap_tail_applied, 0u);
  EXPECT_GE(report.retry_attempts, 3);  // 2 transient failures + success
  EXPECT_GT(report.retry_backoff_ms, 0.0);
  EXPECT_TRUE(CheckAllOrNothing(db, def));
}

// ---------- TPC-C workload units ---------------------------------------------

TEST(TpccTest, LoadPopulatesEveryTable) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  const workload::TpccConfig& cfg = tpcc.config();
  const Database& db = tpcc.db();
  const int districts = cfg.warehouses * cfg.districts_per_warehouse;
  EXPECT_EQ(db.heap(tpcc.warehouse_table()).live_count(),
            static_cast<uint64_t>(cfg.warehouses));
  EXPECT_EQ(db.heap(tpcc.district_table()).live_count(),
            static_cast<uint64_t>(districts));
  EXPECT_EQ(db.heap(tpcc.customer_table()).live_count(),
            static_cast<uint64_t>(districts * cfg.customers_per_district));
  EXPECT_EQ(db.heap(tpcc.item_table()).live_count(),
            static_cast<uint64_t>(cfg.items));
  EXPECT_EQ(db.heap(tpcc.stock_table()).live_count(),
            static_cast<uint64_t>(cfg.warehouses * cfg.items));
  EXPECT_EQ(db.heap(tpcc.orders_table()).live_count(),
            static_cast<uint64_t>(districts *
                                  cfg.initial_orders_per_district));
  EXPECT_EQ(db.heap(tpcc.new_orders_table()).live_count(),
            db.heap(tpcc.orders_table()).live_count());
  EXPECT_GE(db.heap(tpcc.order_line_table()).live_count(),
            5 * db.heap(tpcc.orders_table()).live_count());
}

TEST(TpccTest, TransactionsMutateTheRightTables) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  Database& db = tpcc.db();
  Rng rng(17);

  const uint64_t orders = db.heap(tpcc.orders_table()).live_count();
  const uint64_t lines = db.heap(tpcc.order_line_table()).live_count();
  ASSERT_TRUE(tpcc.NewOrder(&rng).ok());
  EXPECT_EQ(db.heap(tpcc.orders_table()).live_count(), orders + 1);
  EXPECT_EQ(db.heap(tpcc.new_orders_table()).live_count(), orders + 1);
  const uint64_t added = db.heap(tpcc.order_line_table()).live_count() - lines;
  EXPECT_GE(added, 5u);
  EXPECT_LE(added, 15u);

  const uint64_t history = db.heap(tpcc.history_table()).live_count();
  ASSERT_TRUE(tpcc.Payment(&rng).ok());
  EXPECT_EQ(db.heap(tpcc.history_table()).live_count(), history + 1);

  // Delivery clears the oldest open order of every district of one
  // warehouse: between 1 and districts_per_warehouse new_orders rows go.
  const uint64_t open = db.heap(tpcc.new_orders_table()).live_count();
  ASSERT_TRUE(tpcc.Delivery(&rng).ok());
  const uint64_t delivered =
      open - db.heap(tpcc.new_orders_table()).live_count();
  EXPECT_GE(delivered, 1u);
  EXPECT_LE(delivered,
            static_cast<uint64_t>(tpcc.config().districts_per_warehouse));
  // Orders themselves are never deleted by Delivery.
  EXPECT_EQ(db.heap(tpcc.orders_table()).live_count(), orders + 1);
}

TEST(TpccTest, DeliveryDrainsToNoOp) {
  workload::TpccConfig cfg;
  cfg.warehouses = 1;
  cfg.districts_per_warehouse = 2;
  cfg.customers_per_district = 5;
  cfg.initial_orders_per_district = 2;
  workload::TpccDatabase tpcc(cfg);
  ASSERT_TRUE(tpcc.Load().ok());
  Rng rng(23);
  // 4 open orders total; Delivery targets a random district, so drain with
  // slack, then confirm the empty case is an OK no-op.
  for (int i = 0; i < 64; ++i) ASSERT_TRUE(tpcc.Delivery(&rng).ok());
  EXPECT_EQ(tpcc.db().heap(tpcc.new_orders_table()).live_count(), 0u);
  ASSERT_TRUE(tpcc.Delivery(&rng).ok());
  EXPECT_EQ(tpcc.db().heap(tpcc.new_orders_table()).live_count(), 0u);
}

TEST(TpccTest, ReadQueryAndAnalyticalWorkloadExecute) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  Rng rng(31);
  for (int i = 0; i < 8; ++i) ASSERT_TRUE(tpcc.ReadQuery(&rng).ok());
  Result<workload::Workload> w = tpcc.AnalyticalWorkload();
  ASSERT_TRUE(w.ok()) << w.status().ToString();
  EXPECT_GE(w.ValueOrDie().queries.size(), 4u);
}

TEST(TpccTest, DriverRejectsInlinePool) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  common::ThreadPool inline_pool(1);  // Submit runs inline: would never stop
  workload::OltpDriver driver(&tpcc, &inline_pool, /*clients=*/2);
  EXPECT_EQ(driver.Start().code(), Status::Code::kInvalidArgument);
}

TEST(TpccTest, DriverRunsMixedTrafficWithoutErrors) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  common::ThreadPool pool(4);
  workload::OltpDriver driver(&tpcc, &pool, /*clients=*/3, /*seed=*/5);
  ASSERT_TRUE(driver.Start().ok());
  EXPECT_TRUE(driver.running());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  workload::OltpStats stats = driver.Stop();
  EXPECT_FALSE(driver.running());
  EXPECT_GT(stats.total_commits(), 0u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.max_txn_seconds, 0.0);
}

// ---------- concurrent builds ------------------------------------------------

TEST_F(OnlineBuildTest, ConcurrentWritersAreCaughtUp) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  common::ThreadPool pool(4);
  workload::OltpDriver driver(&tpcc, &pool, /*clients=*/3, /*seed=*/41);
  ASSERT_TRUE(driver.Start().ok());

  catalog::IndexDef def;
  def.table = tpcc.orders_table();
  def.columns = {3};  // o_c_id
  OnlineBuildOptions options;
  options.snapshot_chunk_rows = 8;  // many latch hand-offs to writers
  OnlineIndexBuilder builder(&tpcc.db(), options);
  Result<OnlineBuildReport> r = builder.Build(def);

  workload::OltpStats stats = driver.Stop();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_TRUE(CheckAllOrNothing(tpcc.db(), def));
  EXPECT_LE(r.ValueOrDie().swap_tail_applied, options.max_swap_tail);
}

TEST_F(OnlineBuildTest, SwapTailIsBounded) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  common::ThreadPool pool(4);
  workload::OltpDriver driver(&tpcc, &pool, /*clients=*/3, /*seed=*/43);
  ASSERT_TRUE(driver.Start().ok());

  catalog::IndexDef def;
  def.table = tpcc.order_line_table();
  def.columns = {4};  // ol_i_id
  OnlineBuildOptions options;
  options.snapshot_chunk_rows = 4;
  options.max_swap_tail = 4;  // tight stall cap under sustained inserts
  options.max_catchup_rounds = 512;
  OnlineIndexBuilder builder(&tpcc.db(), options);
  Result<OnlineBuildReport> r = builder.Build(def);
  driver.Stop();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_LE(r.ValueOrDie().swap_tail_applied, 4u);
  EXPECT_TRUE(CheckAllOrNothing(tpcc.db(), def));
}

// Satellite: the concurrent-writer differential oracle. An index built
// online *while writers mutate the table* must end bit-identical to a
// blocking CreateIndex run on the quiesced final state.
TEST_F(OnlineBuildTest, ConcurrentDifferentialOracle) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  common::ThreadPool pool(4);
  workload::OltpDriver driver(&tpcc, &pool, /*clients=*/3, /*seed=*/47);
  ASSERT_TRUE(driver.Start().ok());

  catalog::IndexDef def;
  def.table = tpcc.order_line_table();
  def.columns = {4, 5};  // (ol_i_id, ol_quantity)
  OnlineBuildOptions options;
  options.snapshot_chunk_rows = 8;
  OnlineIndexBuilder builder(&tpcc.db(), options);
  Result<OnlineBuildReport> r = builder.Build(def);
  workload::OltpStats stats = driver.Stop();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(tpcc.db().dml_hook_count(), 0u);

  // Oracle: rebuild from scratch on a copy of the quiesced database and
  // compare entry-for-entry.
  Database oracle = tpcc.db();
  const catalog::IndexDef* online_def =
      oracle.catalog().FindIndex(def.table, def.columns);
  ASSERT_NE(online_def, nullptr);
  ASSERT_TRUE(oracle.DropIndex(online_def->id).ok());
  Result<catalog::IndexId> fresh = oracle.CreateIndex(def);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(IndexEntries(tpcc.db(), r.ValueOrDie().id),
            IndexEntries(oracle, fresh.ValueOrDie()));
}

// ---------- seeded chaos schedules -------------------------------------------

// 120 quiesced kill schedules: arm one of the three online fault points
// with a seed-derived skip and run a build on an idle database. Whatever
// the outcome, the invariant holds — and on failure the heap is
// *bit-identical* to the build never having started.
TEST_F(OnlineBuildTest, QuiescedKillSchedules) {
  const char* points[] = {"online.snapshot.scan", "online.delta.apply",
                          "online.swap"};
  int failed = 0;
  int installed = 0;
  for (int s = 0; s < 120; ++s) {
    Database db = MakeUsersDb(600, /*seed=*/100 + s);
    const uint64_t heap_before = HeapFingerprint(db, 0);
    const auto sig_before = IndexSignature(db);

    FaultSpec spec;
    spec.code = Status::Code::kInternal;
    spec.skip = (s / 3) % 7;
    ScopedFault fault(points[s % 3], spec, /*seed=*/1000 + s);

    catalog::IndexDef def;
    def.table = 0;
    def.columns.push_back(static_cast<catalog::ColumnId>(1 + s % 4));
    OnlineBuildOptions options;
    options.snapshot_chunk_rows = 64;
    OnlineIndexBuilder builder(&db, options);
    Result<OnlineBuildReport> r = builder.Build(def);

    EXPECT_EQ(HeapFingerprint(db, 0), heap_before)
        << "schedule " << s << " mutated the heap";
    if (r.ok()) {
      ++installed;
      EXPECT_TRUE(CheckAllOrNothing(db, def)) << "schedule " << s;
    } else {
      ++failed;
      EXPECT_FALSE(CheckAllOrNothing(db, def))
          << "schedule " << s << " left a partial index";
      EXPECT_EQ(IndexSignature(db), sig_before) << "schedule " << s;
    }
  }
  // The schedule grid must exercise both outcomes, or it proves nothing.
  EXPECT_GT(failed, 0);
  EXPECT_GT(installed, 0);
}

// 120 concurrent kill schedules: the same fault grid, but with live OLTP
// traffic throughout. The invariant under concurrency: the index is fully
// installed and consistent with the (still-moving) heap, or entirely
// absent — never partial, and never a leaked hook.
TEST_F(OnlineBuildTest, ConcurrentKillSchedules) {
  workload::TpccDatabase tpcc;
  ASSERT_TRUE(tpcc.Load().ok());
  common::ThreadPool pool(4);
  workload::OltpDriver driver(&tpcc, &pool, /*clients=*/3, /*seed=*/53);
  ASSERT_TRUE(driver.Start().ok());
  // The schedules only mean something if traffic is actually flowing:
  // wait until the clients have demonstrably committed (the orders heap
  // grows on every NewOrder).
  uint64_t orders_at_start = 0;
  {
    std::shared_lock<std::shared_mutex> lock(tpcc.db().latch());
    orders_at_start = tpcc.db().heap(tpcc.orders_table()).live_count();
  }
  for (;;) {
    std::shared_lock<std::shared_mutex> lock(tpcc.db().latch());
    if (tpcc.db().heap(tpcc.orders_table()).live_count() > orders_at_start) {
      break;
    }
  }

  const char* points[] = {"online.snapshot.scan", "online.delta.apply",
                          "online.swap"};
  catalog::IndexDef def;
  def.table = tpcc.orders_table();
  def.columns = {3};  // o_c_id
  int failed = 0;
  int installed = 0;
  for (int s = 0; s < 120; ++s) {
    FaultSpec spec;
    spec.code = Status::Code::kInternal;
    spec.skip = (s / 3) % 5;
    ScopedFault fault(points[s % 3], spec, /*seed=*/2000 + s);

    OnlineBuildOptions options;
    options.snapshot_chunk_rows = 16;
    options.max_catchup_rounds = 512;
    OnlineIndexBuilder builder(&tpcc.db(), options);
    Result<OnlineBuildReport> r = builder.Build(def);

    // Freeze traffic for the invariant check (and the cleanup drop).
    std::unique_lock<std::shared_mutex> lock(tpcc.db().latch());
    const bool present = CheckAllOrNothing(tpcc.db(), def);
    if (r.ok()) {
      ++installed;
      EXPECT_TRUE(present) << "schedule " << s << " reported success "
                           << "without installing";
      ASSERT_TRUE(
          tpcc.db().DropIndex(r.ValueOrDie().id).ok());  // reset for next
    } else {
      ++failed;
      EXPECT_FALSE(present)
          << "schedule " << s << " failed (" << r.status().ToString()
          << ") but left the index behind";
    }
  }
  workload::OltpStats stats = driver.Stop();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_GT(stats.total_commits(), 0u);
  EXPECT_GT(failed, 0);
  EXPECT_GT(installed, 0);
}

// ---------- tuner integration ------------------------------------------------

class OnlineTunerTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultRegistry::Instance().DisarmAll(); }
  void TearDown() override { FaultRegistry::Instance().DisarmAll(); }
};

// Quiesced online mode: the tick must route its installs through the
// online builder (visible in the run stats) and produce exactly the same
// kind of configuration a blocking tick would.
TEST_F(OnlineTunerTest, OnlineTickInstallsThroughBuilder) {
  Database db = MakeUsersDb(2000);
  core::ContinuousTunerOptions options;
  options.online_apply = true;
  options.aim.validate_on_clone = false;
  core::ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());

  Result<core::IntervalReport> r = tuner.Tick(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const core::IntervalReport& report = r.ValueOrDie();
  EXPECT_FALSE(report.degraded);
  ASSERT_FALSE(report.aim.recommended.empty());
  EXPECT_EQ(report.aim.stats.online_builds,
            report.aim.recommended.size());
  for (const core::CandidateIndex& c : report.aim.recommended) {
    const catalog::IndexDef* idx =
        db.catalog().FindIndex(c.def.table, c.def.columns);
    ASSERT_NE(idx, nullptr);
    EXPECT_TRUE(idx->created_by_automation);
    EXPECT_NE(db.btree(idx->id), nullptr);
  }
  EXPECT_EQ(db.dml_hook_count(), 0u);
}

// Satellite: a hard-failed online build degrades the interval — config
// untouched, degraded report — instead of surfacing a broken state.
TEST_F(OnlineTunerTest, AbortedBuildDegradesIntervalConfigUntouched) {
  Database db = MakeUsersDb(2000);
  const auto sig_before = IndexSignature(db);
  core::ContinuousTunerOptions options;
  options.online_apply = true;
  options.aim.validate_on_clone = false;
  core::ContinuousTuner tuner(&db, optimizer::CostModel(), options);
  workload::Workload w;
  ASSERT_TRUE(w.Add("SELECT id FROM users WHERE org_id = 1", 10.0).ok());

  FaultSpec spec;
  spec.code = Status::Code::kInternal;
  ScopedFault fault("online.swap", spec);
  Result<core::IntervalReport> r = tuner.Tick(w, nullptr);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r.ValueOrDie().degraded);
  EXPECT_FALSE(r.ValueOrDie().error.ok());
  EXPECT_EQ(IndexSignature(db), sig_before);
  EXPECT_EQ(db.dml_hook_count(), 0u);

  // The fault was transient at the deployment level: the next interval
  // succeeds and installs online.
  FaultRegistry::Instance().DisarmAll();
  Result<core::IntervalReport> retry = tuner.Tick(w, nullptr);
  ASSERT_TRUE(retry.ok());
  EXPECT_FALSE(retry.ValueOrDie().degraded);
  EXPECT_GE(retry.ValueOrDie().aim.stats.online_builds, 1u);
}

// The headline integration: a full tuning interval against a live,
// traffic-bearing TPC-C database. The tick plans on a snapshot, installs
// online, and every installed index is consistent with the moving heap.
TEST_F(OnlineTunerTest, TunerInstallsUnderLiveTraffic) {
  workload::TpccConfig cfg;
  cfg.initial_orders_per_district = 25;  // enough rows to justify indexes
  workload::TpccDatabase tpcc(cfg);
  ASSERT_TRUE(tpcc.Load().ok());
  Result<workload::Workload> w = tpcc.AnalyticalWorkload();
  ASSERT_TRUE(w.ok());

  common::ThreadPool pool(4);
  workload::OltpDriver driver(&tpcc, &pool, /*clients=*/3, /*seed=*/59);
  ASSERT_TRUE(driver.Start().ok());

  core::ContinuousTunerOptions options;
  options.online_apply = true;
  options.aim.validate_on_clone = false;
  options.aim.online.snapshot_chunk_rows = 32;
  options.aim.online.max_catchup_rounds = 512;
  core::ContinuousTuner tuner(&tpcc.db(), optimizer::CostModel(), options);
  Result<core::IntervalReport> r = tuner.Tick(w.ValueOrDie(), nullptr);

  workload::OltpStats stats = driver.Stop();
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const core::IntervalReport& report = r.ValueOrDie();
  EXPECT_FALSE(report.degraded)
      << report.error.ToString();
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(tpcc.db().dml_hook_count(), 0u);
  EXPECT_EQ(report.aim.stats.online_builds,
            report.aim.recommended.size());
  for (const core::CandidateIndex& c : report.aim.recommended) {
    const catalog::IndexDef* idx =
        tpcc.db().catalog().FindIndex(c.def.table, c.def.columns);
    ASSERT_NE(idx, nullptr);
    catalog::IndexDef check = *idx;
    EXPECT_TRUE(CheckAllOrNothing(tpcc.db(), check));
  }
}

}  // namespace
}  // namespace aim
