#include "workload/tpcc_oltp.h"

#include <chrono>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "common/strings.h"
#include "executor/executor.h"
#include "optimizer/cost_model.h"

namespace aim::workload {

namespace {

using catalog::ColumnDef;
using catalog::ColumnType;
using catalog::TableDef;
using storage::Row;
using storage::RowId;
using sql::Value;

TableDef MakeTable(const char* name, std::vector<const char*> columns,
                   std::vector<catalog::ColumnId> pk) {
  TableDef def;
  def.name = name;
  def.columns.reserve(columns.size());
  for (const char* col : columns) {
    ColumnDef c;
    c.name = col;
    c.type = ColumnType::kInt64;
    c.avg_width = 8;
    def.columns.push_back(std::move(c));
  }
  def.primary_key = std::move(pk);
  return def;
}

Row Ints(std::initializer_list<int64_t> values) {
  Row row;
  row.reserve(values.size());
  for (int64_t v : values) row.push_back(Value::Int(v));
  return row;
}

}  // namespace

TpccDatabase::TpccDatabase(TpccConfig config) : config_(config) {}

Status TpccDatabase::Load() {
  const int W = config_.warehouses;
  const int D = config_.districts_per_warehouse;
  const int C = config_.customers_per_district;
  const int I = config_.items;
  if (W < 1 || D < 1 || C < 1 || I < 1) {
    return Status::InvalidArgument("tpcc: scale factors must be >= 1");
  }

  warehouse_ = db_.CreateTable(MakeTable("warehouse", {"w_id", "w_ytd"}, {0}));
  district_ = db_.CreateTable(MakeTable(
      "district", {"d_w_id", "d_id", "d_next_o_id", "d_ytd"}, {0, 1}));
  customer_ = db_.CreateTable(MakeTable(
      "customer",
      {"c_w_id", "c_d_id", "c_id", "c_last_id", "c_balance", "c_payment_cnt",
       "c_delivery_cnt"},
      {0, 1, 2}));
  orders_ = db_.CreateTable(MakeTable(
      "orders",
      {"o_w_id", "o_d_id", "o_id", "o_c_id", "o_entry_d", "o_carrier_id",
       "o_ol_cnt"},
      {0, 1, 2}));
  new_orders_ = db_.CreateTable(
      MakeTable("new_orders", {"no_w_id", "no_d_id", "no_o_id"}, {0, 1, 2}));
  order_line_ = db_.CreateTable(MakeTable(
      "order_line",
      {"ol_w_id", "ol_d_id", "ol_o_id", "ol_number", "ol_i_id", "ol_quantity",
       "ol_amount", "ol_delivery_d"},
      {0, 1, 2, 3}));
  stock_ = db_.CreateTable(MakeTable(
      "stock", {"s_w_id", "s_i_id", "s_quantity", "s_ytd", "s_order_cnt"},
      {0, 1}));
  item_ = db_.CreateTable(
      MakeTable("item", {"i_id", "i_price", "i_im_id"}, {0}));
  history_ = db_.CreateTable(MakeTable(
      "history", {"h_id", "h_w_id", "h_d_id", "h_c_id", "h_amount", "h_date"},
      {0}));

  const auto pk_id = [&](catalog::TableId table) {
    const catalog::IndexDef* pk =
        db_.catalog().FindIndex(table, db_.catalog().table(table).primary_key);
    return pk != nullptr ? pk->id : catalog::kInvalidIndex;
  };
  orders_pk_ = pk_id(orders_);
  new_orders_pk_ = pk_id(new_orders_);
  order_line_pk_ = pk_id(order_line_);

  Rng rng(config_.seed);
  warehouse_rid_.resize(W);
  district_rid_.resize(static_cast<size_t>(W) * D);
  customer_rid_.resize(static_cast<size_t>(W) * D * C);
  stock_rid_.resize(static_cast<size_t>(W) * I);
  item_rid_.resize(I);
  next_o_id_.assign(static_cast<size_t>(W) * D, 0);

  for (int i = 0; i < I; ++i) {
    AIM_ASSIGN_OR_RETURN(
        item_rid_[i],
        db_.InsertRow(item_, Ints({i, 1 + static_cast<int64_t>(
                                          rng.Uniform(100)),
                                   static_cast<int64_t>(rng.Uniform(1000))})));
  }
  for (int w = 0; w < W; ++w) {
    AIM_ASSIGN_OR_RETURN(warehouse_rid_[w],
                         db_.InsertRow(warehouse_, Ints({w, 0})));
    for (int i = 0; i < I; ++i) {
      AIM_ASSIGN_OR_RETURN(
          stock_rid_[static_cast<size_t>(w) * I + i],
          db_.InsertRow(stock_,
                        Ints({w, i,
                              10 + static_cast<int64_t>(rng.Uniform(91)), 0,
                              0})));
    }
    for (int d = 0; d < D; ++d) {
      const size_t dk = static_cast<size_t>(w) * D + d;
      AIM_ASSIGN_OR_RETURN(district_rid_[dk],
                           db_.InsertRow(district_, Ints({w, d, 0, 0})));
      for (int c = 0; c < C; ++c) {
        AIM_ASSIGN_OR_RETURN(
            customer_rid_[dk * C + c],
            db_.InsertRow(customer_,
                          Ints({w, d, c,
                                static_cast<int64_t>(rng.Uniform(C / 3 + 1)),
                                0, 0, 0})));
      }
      for (int o = 0; o < config_.initial_orders_per_district; ++o) {
        AIM_RETURN_NOT_OK(InsertOrderLocked(w, d, o, &rng, /*open=*/true));
        ++next_o_id_[dk];
      }
      Row drow = db_.heap(district_).row(district_rid_[dk]);
      drow[2] = Value::Int(next_o_id_[dk]);
      AIM_RETURN_NOT_OK(db_.UpdateRow(district_, district_rid_[dk],
                                      std::move(drow)));
    }
  }
  db_.AnalyzeAll();
  return Status::OK();
}

Status TpccDatabase::InsertOrderLocked(int w, int d, int o_id, Rng* rng,
                                       bool open) {
  const int C = config_.customers_per_district;
  const int I = config_.items;
  const int64_t c_id = static_cast<int64_t>(rng->Uniform(C));
  const int64_t ol_cnt = 5 + static_cast<int64_t>(rng->Uniform(11));
  AIM_RETURN_NOT_OK(
      db_.InsertRow(orders_, Ints({w, d, o_id, c_id, clock_ticks_++, 0,
                                   ol_cnt}))
          .status());
  if (open) {
    AIM_RETURN_NOT_OK(
        db_.InsertRow(new_orders_, Ints({w, d, o_id})).status());
  }
  for (int64_t ln = 1; ln <= ol_cnt; ++ln) {
    const int i = static_cast<int>(rng->Uniform(I));
    const int64_t qty = 1 + static_cast<int64_t>(rng->Uniform(10));
    const int64_t price = db_.heap(item_).row(item_rid_[i])[1].AsInt();
    const size_t sk = static_cast<size_t>(w) * I + i;
    Row srow = db_.heap(stock_).row(stock_rid_[sk]);
    int64_t quantity = srow[2].AsInt() - qty;
    if (quantity < 10) quantity += 91;  // TPC-C restock rule
    srow[2] = Value::Int(quantity);
    srow[3] = Value::Int(srow[3].AsInt() + qty);
    srow[4] = Value::Int(srow[4].AsInt() + 1);
    AIM_RETURN_NOT_OK(db_.UpdateRow(stock_, stock_rid_[sk], std::move(srow)));
    AIM_RETURN_NOT_OK(
        db_.InsertRow(order_line_,
                      Ints({w, d, o_id, ln, i, qty, qty * price, 0}))
            .status());
  }
  return Status::OK();
}

Status TpccDatabase::NewOrder(Rng* rng) {
  std::unique_lock<std::shared_mutex> lock(db_.latch());
  const int w = static_cast<int>(rng->Uniform(config_.warehouses));
  const int d =
      static_cast<int>(rng->Uniform(config_.districts_per_warehouse));
  const size_t dk =
      static_cast<size_t>(w) * config_.districts_per_warehouse + d;
  const int o_id = static_cast<int>(next_o_id_[dk]++);
  Row drow = db_.heap(district_).row(district_rid_[dk]);
  drow[2] = Value::Int(next_o_id_[dk]);
  AIM_RETURN_NOT_OK(
      db_.UpdateRow(district_, district_rid_[dk], std::move(drow)));
  return InsertOrderLocked(w, d, o_id, rng, /*open=*/true);
}

Status TpccDatabase::Payment(Rng* rng) {
  std::unique_lock<std::shared_mutex> lock(db_.latch());
  const int w = static_cast<int>(rng->Uniform(config_.warehouses));
  const int d =
      static_cast<int>(rng->Uniform(config_.districts_per_warehouse));
  const int c =
      static_cast<int>(rng->Uniform(config_.customers_per_district));
  const int64_t amount = 1 + static_cast<int64_t>(rng->Uniform(5000));
  const size_t dk =
      static_cast<size_t>(w) * config_.districts_per_warehouse + d;
  const size_t ck =
      dk * config_.customers_per_district + static_cast<size_t>(c);

  Row crow = db_.heap(customer_).row(customer_rid_[ck]);
  crow[4] = Value::Int(crow[4].AsInt() - amount);
  crow[5] = Value::Int(crow[5].AsInt() + 1);
  AIM_RETURN_NOT_OK(
      db_.UpdateRow(customer_, customer_rid_[ck], std::move(crow)));

  Row wrow = db_.heap(warehouse_).row(warehouse_rid_[w]);
  wrow[1] = Value::Int(wrow[1].AsInt() + amount);
  AIM_RETURN_NOT_OK(
      db_.UpdateRow(warehouse_, warehouse_rid_[w], std::move(wrow)));

  Row drow = db_.heap(district_).row(district_rid_[dk]);
  drow[3] = Value::Int(drow[3].AsInt() + amount);
  AIM_RETURN_NOT_OK(
      db_.UpdateRow(district_, district_rid_[dk], std::move(drow)));

  return db_
      .InsertRow(history_,
                 Ints({next_h_id_++, w, d, c, amount, clock_ticks_++}))
      .status();
}

Status TpccDatabase::Delivery(Rng* rng) {
  std::unique_lock<std::shared_mutex> lock(db_.latch());
  const int w = static_cast<int>(rng->Uniform(config_.warehouses));
  const int64_t carrier = 1 + static_cast<int64_t>(rng->Uniform(10));
  const storage::BTreeIndex* no_pk = db_.btree(new_orders_pk_);
  const storage::BTreeIndex* o_pk = db_.btree(orders_pk_);
  const storage::BTreeIndex* ol_pk = db_.btree(order_line_pk_);
  if (no_pk == nullptr || o_pk == nullptr || ol_pk == nullptr) {
    return Status::Internal("tpcc: clustered PK indexes missing");
  }
  for (int d = 0; d < config_.districts_per_warehouse; ++d) {
    // Oldest open order = first entry under the (w, d) prefix of the
    // new_orders clustered key (no_o_id ascending).
    RowId no_rid = 0;
    bool open = false;
    no_pk->ScanPrefix(storage::EncodeKey(Ints({w, d})), std::nullopt,
                      std::nullopt, [&](RowId rid) {
                        no_rid = rid;
                        open = true;
                        return false;  // first only
                      });
    if (!open) continue;  // district has no open order
    const int64_t o_id = db_.heap(new_orders_).row(no_rid)[2].AsInt();
    AIM_RETURN_NOT_OK(db_.DeleteRow(new_orders_, no_rid));

    const std::string order_key = storage::EncodeKey(Ints({w, d, o_id}));
    RowId order_rid = 0;
    bool found = false;
    o_pk->ScanPrefix(order_key, std::nullopt, std::nullopt,
                     [&](RowId rid) {
                       order_rid = rid;
                       found = true;
                       return false;
                     });
    if (!found) {
      return Status::Internal("tpcc: new_orders entry without order row");
    }
    Row orow = db_.heap(orders_).row(order_rid);
    const int64_t c_id = orow[3].AsInt();
    orow[5] = Value::Int(carrier);
    AIM_RETURN_NOT_OK(db_.UpdateRow(orders_, order_rid, std::move(orow)));

    std::vector<RowId> line_rids;
    ol_pk->ScanPrefix(order_key, std::nullopt, std::nullopt,
                      [&](RowId rid) {
                        line_rids.push_back(rid);
                        return true;
                      });
    const int64_t delivery_d = clock_ticks_++;
    for (RowId rid : line_rids) {
      Row lrow = db_.heap(order_line_).row(rid);
      lrow[7] = Value::Int(delivery_d);
      AIM_RETURN_NOT_OK(db_.UpdateRow(order_line_, rid, std::move(lrow)));
    }

    const size_t ck = (static_cast<size_t>(w) *
                           config_.districts_per_warehouse +
                       d) *
                          config_.customers_per_district +
                      static_cast<size_t>(c_id);
    Row crow = db_.heap(customer_).row(customer_rid_[ck]);
    crow[6] = Value::Int(crow[6].AsInt() + 1);
    AIM_RETURN_NOT_OK(
        db_.UpdateRow(customer_, customer_rid_[ck], std::move(crow)));
  }
  return Status::OK();
}

Status TpccDatabase::ReadQuery(Rng* rng) {
  std::string sql;
  switch (rng->Uniform(4)) {
    case 0:
      sql = StringPrintf(
          "SELECT o_id, o_entry_d FROM orders WHERE o_c_id = %d",
          static_cast<int>(rng->Uniform(config_.customers_per_district)));
      break;
    case 1:
      sql = StringPrintf(
          "SELECT ol_o_id, ol_amount FROM order_line WHERE ol_i_id = %d",
          static_cast<int>(rng->Uniform(config_.items)));
      break;
    case 2:
      sql = StringPrintf(
          "SELECT c_id, c_balance FROM customer WHERE c_last_id = %d",
          static_cast<int>(
              rng->Uniform(config_.customers_per_district / 3 + 1)));
      break;
    default:
      sql = StringPrintf(
          "SELECT s_i_id, s_quantity FROM stock WHERE s_quantity < %d",
          15 + static_cast<int>(rng->Uniform(20)));
      break;
  }
  AIM_ASSIGN_OR_RETURN(Query query, MakeQuery(std::move(sql)));
  std::shared_lock<std::shared_mutex> lock(db_.latch());
  executor::Executor ex(&db_, optimizer::CostModel());
  return ex.Execute(query.stmt).status();
}

Result<Workload> TpccDatabase::AnalyticalWorkload() const {
  Workload w;
  // Secondary-index-shaped probes: none of these are covered by a
  // clustered PK prefix, so the tuner has real candidates to find.
  AIM_RETURN_NOT_OK(
      w.Add("SELECT o_id, o_entry_d FROM orders WHERE o_c_id = 7", 10.0));
  AIM_RETURN_NOT_OK(w.Add(
      "SELECT ol_o_id, ol_amount FROM order_line WHERE ol_i_id = 11", 8.0));
  AIM_RETURN_NOT_OK(w.Add(
      "SELECT c_id, c_balance FROM customer WHERE c_last_id = 3", 6.0));
  AIM_RETURN_NOT_OK(w.Add(
      "SELECT s_i_id, s_quantity FROM stock WHERE s_quantity < 25", 4.0));
  AIM_RETURN_NOT_OK(w.Add(
      "SELECT o_id, o_c_id FROM orders WHERE o_entry_d > 50", 3.0));
  return w;
}

OltpDriver::OltpDriver(TpccDatabase* tpcc, common::ThreadPool* pool,
                       int clients, uint64_t seed, OltpMix mix)
    : tpcc_(tpcc), pool_(pool), clients_(clients), seed_(seed), mix_(mix) {}

Status OltpDriver::Start() {
  if (running_) return Status::InvalidArgument("oltp driver: already running");
  if (pool_ == nullptr || pool_->worker_count() < 1) {
    // A ≤1-worker pool runs Submit inline; an until-stop client loop
    // would never return control to the caller.
    return Status::InvalidArgument(
        "oltp driver: pool must have at least one worker");
  }
  if (clients_ < 1) {
    return Status::InvalidArgument("oltp driver: need at least one client");
  }
  stop_.store(false, std::memory_order_relaxed);
  per_client_.assign(clients_, OltpStats{});
  futures_.clear();
  futures_.reserve(clients_);
  for (int i = 0; i < clients_; ++i) {
    OltpStats* stats = &per_client_[i];
    futures_.push_back(
        pool_->Submit([this, i, stats] { ClientLoop(i, stats); }));
  }
  running_ = true;
  return Status::OK();
}

void OltpDriver::ClientLoop(int client, OltpStats* stats) {
  Rng rng(seed_ + static_cast<uint64_t>(client) * 7919 + 1);
  const double total =
      mix_.new_order + mix_.payment + mix_.delivery + mix_.read;
  while (!stop_.load(std::memory_order_relaxed)) {
    const double r = rng.NextDouble() * total;
    const auto start = std::chrono::steady_clock::now();
    Status st;
    uint64_t* bucket = nullptr;
    if (r < mix_.new_order) {
      st = tpcc_->NewOrder(&rng);
      bucket = &stats->new_orders;
    } else if (r < mix_.new_order + mix_.payment) {
      st = tpcc_->Payment(&rng);
      bucket = &stats->payments;
    } else if (r < mix_.new_order + mix_.payment + mix_.delivery) {
      st = tpcc_->Delivery(&rng);
      bucket = &stats->deliveries;
    } else {
      st = tpcc_->ReadQuery(&rng);
      bucket = &stats->reads;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (seconds > stats->max_txn_seconds) stats->max_txn_seconds = seconds;
    if (st.ok()) {
      ++*bucket;
    } else {
      ++stats->errors;
    }
  }
}

OltpStats OltpDriver::Stop() {
  stop_.store(true, std::memory_order_relaxed);
  for (std::future<void>& f : futures_) f.get();
  futures_.clear();
  running_ = false;
  OltpStats merged;
  for (const OltpStats& s : per_client_) {
    merged.new_orders += s.new_orders;
    merged.payments += s.payments;
    merged.deliveries += s.deliveries;
    merged.reads += s.reads;
    merged.errors += s.errors;
    if (s.max_txn_seconds > merged.max_txn_seconds) {
      merged.max_txn_seconds = s.max_txn_seconds;
    }
  }
  return merged;
}

}  // namespace aim::workload
