#include "executor/executor.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <vector>

#include "common/fault_injection.h"
#include "executor/aggregate.h"
#include "executor/exec_common.h"
#include "executor/filter.h"
#include "executor/join.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace aim::executor {

namespace {

using optimizer::AnalyzedQuery;
using optimizer::Plan;
using sql::Expr;
using sql::Value;
using storage::Row;
using storage::RowId;

void EmitOperatorSpans(const ExecutionMetrics& m) {
  struct Entry {
    const char* name;
    const OperatorStats* stats;
  };
  const Entry entries[] = {
      {"executor.op.scan", &m.op_scan},
      {"executor.op.filter", &m.op_filter},
      {"executor.op.join", &m.op_join},
      {"executor.op.aggregate", &m.op_aggregate},
  };
  for (const Entry& e : entries) {
    obs::Span span(obs::Tracer::Get(), e.name);
    if (span.enabled()) {
      span.SetAttr("batches", e.stats->batches);
      span.SetAttr("rows_in", e.stats->rows_in);
      span.SetAttr("rows_out", e.stats->rows_out);
    }
  }
}

}  // namespace

Result<ExecuteResult> Executor::Execute(const sql::Statement& stmt) {
  AIM_FAULT_POINT("executor.execute");
  AIM_ASSIGN_OR_RETURN(optimizer::AnalyzedQuery query,
                       optimizer::Analyze(stmt, db_->catalog()));
  optimizer::Optimizer opt(db_->catalog(), cm_);
  optimizer::OptimizeOptions options;
  options.include_hypothetical = false;
  optimizer::Plan plan = opt.OptimizeAnalyzed(query, options);
  return ExecutePlanned(stmt, query, plan);
}

Result<ExecuteResult> Executor::ExecutePlanned(
    const sql::Statement& stmt, const optimizer::AnalyzedQuery& query,
    const optimizer::Plan& plan) {
  static obs::Counter* const statements =
      obs::MetricsRegistry::Global()->counter("executor.statements");
  statements->Add();
  obs::Span span(obs::Tracer::Get(), "executor.execute");
  Result<ExecuteResult> result =
      stmt.kind == sql::Statement::Kind::kSelect
          ? ExecuteSelect(stmt, query, plan)
          : ExecuteDml(stmt, query, plan);
  if (span.enabled() && result.ok()) {
    const ExecutionMetrics& m = result.ValueOrDie().metrics;
    span.SetAttr("rows_examined", m.rows_examined);
    span.SetAttr("index_entries_read", m.index_entries_read);
    span.SetAttr("heap_rows_read", m.heap_rows_read);
    span.SetAttr("pk_lookups", m.pk_lookups);
    span.SetAttr("rows_sent", m.rows_sent);
    span.SetAttr("cpu_seconds", m.cpu_seconds);
  }
  return result;
}

Result<ExecuteResult> Executor::ExecuteSelect(
    const sql::Statement& stmt, const optimizer::AnalyzedQuery& query,
    const optimizer::Plan& plan) {
  const sql::SelectStatement& select = *stmt.select;
  const size_t num_steps = std::max<size_t>(plan.steps.size(), 1);
  ExecContext ctx(db_, &query, &cm_, num_steps);
  ExecuteResult result;

  std::vector<int> step_of_instance(query.instances.size(), -1);
  for (size_t s = 0; s < plan.steps.size(); ++s) {
    step_of_instance[plan.steps[s].instance] = static_cast<int>(s);
  }

  SelectSink sink(select, query, plan, &ctx);

  static obs::Counter* const batch_count =
      obs::MetricsRegistry::Global()->counter("executor.batch.count");
  static obs::Counter* const batch_rows =
      obs::MetricsRegistry::Global()->counter("executor.batch.rows");
  FilterProgram filter(select.where.get(), ctx, step_of_instance,
                       static_cast<int>(num_steps));
  BatchEngine engine(&ctx, plan, &filter, &sink, step_of_instance);
  engine.Run();
  batch_count->Add();
  batch_rows->Add(ctx.metrics.op_scan.rows_out + ctx.metrics.op_join.rows_out);

  sink.Finalize(&result.rows);
  ctx.metrics.rows_sent = result.rows.size();
  ctx.metrics.op_aggregate.rows_out = result.rows.size();
  EmitOperatorSpans(ctx.metrics);
  ctx.FinalizeCost();
  result.metrics = ctx.metrics;
  return result;
}

Result<ExecuteResult> Executor::ExecuteDml(
    const sql::Statement& stmt, const optimizer::AnalyzedQuery& query,
    const optimizer::Plan& plan) {
  ExecuteResult result;
  ExecContext ctx(db_, &query, &cm_, /*num_steps=*/1);
  const catalog::TableId table = query.instances[0].table;
  const auto& table_def = db_->catalog().table(table);

  if (stmt.kind == sql::Statement::Kind::kInsert) {
    const sql::InsertStatement& ins = *stmt.insert;
    Row row(table_def.columns.size(), Value::Null());
    for (size_t i = 0; i < ins.columns.size() && i < ins.values.size();
         ++i) {
      auto c = table_def.FindColumn(ins.columns[i]);
      if (!c.has_value()) {
        return Status::NotFound("insert column '" + ins.columns[i] +
                                "' not found");
      }
      if (ins.values[i]->kind == Expr::Kind::kLiteral) {
        row[*c] = ins.values[i]->value;
      }
    }
    storage::MaintenanceCost mc;
    AIM_RETURN_NOT_OK(db_->InsertRow(table, std::move(row), &mc).status());
    ctx.metrics.rows_modified = 1;
    // The clustered primary index (maintained like any other) accounts
    // for the base-table write.
    ctx.metrics.index_entries_written = mc.index_entries_written;
    ctx.AddTailCost(cm_.IndexMaintenanceCost(
        static_cast<double>(mc.index_entries_written)));
    ctx.FinalizeCost();
    result.metrics = ctx.metrics;
    return result;
  }

  // UPDATE / DELETE: locate matching rows first (via the plan), mutate
  // after (no mutation during scans).
  std::vector<RowId> matches;
  if (plan.est_result_rows > 0) {
    matches.reserve(std::min<size_t>(
        static_cast<size_t>(plan.est_result_rows), 1u << 20));
  }
  {
    const sql::Expr* where = stmt.kind == sql::Statement::Kind::kUpdate
                                 ? stmt.update->where.get()
                                 : stmt.del->where.get();
    const storage::HeapTable& heap = db_->heap(table);
    // A row matches when the WHERE is definitely true (params never
    // bind, so a '?' rejects every row).
    std::optional<CompiledPred> pred;
    if (where != nullptr) pred = CompilePred(*where, ctx);
    auto matches_where = [&](storage::SlotRef ref) {
      return !pred.has_value() || EvalCompiled(*pred, &ref) == Tri::kTrue;
    };
    if (!plan.steps.empty() && !plan.steps[0].path.is_full_scan() &&
        !plan.steps[0].path.is_index_merge() &&
        db_->btree(plan.steps[0].path.index->id) != nullptr) {
      const catalog::IndexDef& index = *plan.steps[0].path.index;
      const storage::BTreeIndex* btree = db_->btree(index.id);
      std::vector<std::vector<Value>> options;
      for (size_t part = 0; part < plan.steps[0].path.eq_prefix_len &&
                            part < index.columns.size();
           ++part) {
        std::vector<Value> opts =
            LiteralOptionsFor(query, 0, index.columns[part]);
        if (opts.empty()) break;
        options.push_back(std::move(opts));
      }
      std::optional<storage::KeyBound> lower;
      std::optional<storage::KeyBound> upper;
      if (plan.steps[0].path.range_on_next &&
          options.size() < index.columns.size()) {
        RangeBoundsFor(query, 0, index.columns[options.size()], &lower,
                       &upper);
      }
      std::string prefix;
      std::function<void(size_t)> enumerate = [&](size_t part) {
        if (part == options.size()) {
          const uint64_t visited = btree->ScanPrefix(
              prefix, lower, upper, [&](RowId rid) {
                if (matches_where(heap.slot(rid))) matches.push_back(rid);
                return true;
              });
          ctx.metrics.index_entries_read += visited;
          ctx.metrics.rows_examined += visited;
          ctx.metrics.pk_lookups += visited;
          return;
        }
        const size_t mark = prefix.size();
        for (const Value& v : options[part]) {
          storage::AppendKeyPart(v, &prefix);
          enumerate(part + 1);
          prefix.resize(mark);
        }
      };
      enumerate(0);
      ctx.UseIndex(0, index.id);
      ctx.AddStepCost(0, cm_.params().btree_descent_cost);
    } else {
      const uint64_t visited =
          heap.ForEachLive([&](RowId rid, storage::SlotRef ref) {
            if (matches_where(ref)) matches.push_back(rid);
            return true;
          });
      ctx.metrics.rows_examined += visited;
      ctx.metrics.heap_rows_read += visited;
      const double pages = std::max(
          1.0,
          db_->catalog().TableSizeBytes(table) / cm_.params().page_size);
      ctx.AddStepCost(
          0, pages * cm_.params().seq_page_cost +
                 static_cast<double>(visited) * cm_.params().cpu_row_cost);
    }
  }

  storage::MaintenanceCost mc;
  if (stmt.kind == sql::Statement::Kind::kUpdate) {
    for (RowId rid : matches) {
      Row row = db_->heap(table).row(rid);
      for (const auto& [col, value_expr] : stmt.update->assignments) {
        auto c = table_def.FindColumn(col);
        if (c.has_value() &&
            value_expr->kind == Expr::Kind::kLiteral) {
          row[*c] = value_expr->value;
        }
      }
      AIM_RETURN_NOT_OK(db_->UpdateRow(table, rid, std::move(row), &mc));
    }
  } else {
    for (RowId rid : matches) {
      AIM_RETURN_NOT_OK(db_->DeleteRow(table, rid, &mc));
    }
  }
  ctx.metrics.rows_modified = matches.size();
  ctx.metrics.index_entries_written = mc.index_entries_written;
  // Index maintenance + the in-place base-row write (updates that do not
  // touch the primary key modify the clustered row without a key write).
  ctx.AddTailCost(cm_.IndexMaintenanceCost(
      static_cast<double>(ctx.metrics.index_entries_written) +
      static_cast<double>(matches.size())));
  ctx.FinalizeCost();
  result.metrics = ctx.metrics;
  return result;
}

}  // namespace aim::executor
