#include "executor/executor.h"

#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <vector>

#include "common/fault_injection.h"
#include "executor/aggregate.h"
#include "executor/exec_common.h"
#include "executor/filter.h"
#include "executor/join.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "optimizer/predicate.h"

namespace aim::executor {

namespace {

using optimizer::AnalyzedQuery;
using optimizer::Plan;
using sql::Expr;
using sql::Value;
using storage::Row;
using storage::RowId;

/// \brief Drives the row-at-a-time nested-loop join over plan steps.
///
/// This is the original interpreter, kept verbatim in structure as the
/// differential oracle for the batch engine; only the accounting sinks
/// changed (per-step cost slots instead of a running total — see
/// exec_common.h for why that preserves bit-identity).
class NestedLoopDriver {
 public:
  NestedLoopDriver(ExecContext* ctx, const Plan* plan,
                   std::function<bool()> emit)
      : ctx_(ctx), plan_(plan), emit_(std::move(emit)) {}

  void Run() { RunStep(0); }

  void set_where(const Expr* where) { where_ = where; }

 private:
  /// Returns false to stop the whole execution (limit reached).
  bool RunStep(size_t step_idx) {
    if (step_idx >= plan_->steps.size()) return EmitCombination();
    const optimizer::JoinStep& step = plan_->steps[step_idx];
    const int instance = step.instance;
    const auto& inst = ctx_->query().instances[instance];
    const storage::HeapTable& heap = ctx_->db()->heap(inst.table);

    bool keep_going = true;
    auto consider = [&](RowId rid, bool via_index, bool covering) -> bool {
      const Row& row = heap.row(rid);
      ctx_->metrics.heap_rows_read += (via_index && covering) ? 0 : 1;
      if (via_index) {
        const auto& pp = ctx_->cm().params();
        ctx_->AddStepCost(step_idx, pp.cpu_index_entry_cost);
        if (!covering) {
          ++ctx_->metrics.pk_lookups;
          ctx_->AddStepCost(step_idx,
                            pp.random_page_cost + pp.cpu_row_cost);
        }
      }
      ctx_->Bind(instance, &row);
      // Prune on everything decidable so far (filters + join edges).
      bool pass = true;
      if (where_ != nullptr) {
        auto v = ctx_->EvalPred(*where_);
        pass = !v.has_value() || *v;
      }
      if (pass) {
        keep_going = RunStep(step_idx + 1);
      }
      ctx_->Bind(instance, nullptr);
      return keep_going;
    };

    if (step.path.is_index_merge()) {
      // Index-merge union: collect row ids from each OR arm's index
      // scan, dedup, then process each base row once.
      std::set<RowId> rids;
      for (const optimizer::AccessPath& part : step.path.union_parts) {
        const catalog::IndexDef& index = *part.index;
        const storage::BTreeIndex* btree = ctx_->db()->btree(index.id);
        if (btree == nullptr) continue;  // hypothetical leak: skip arm
        std::vector<std::vector<Value>> options;
        for (size_t pos = 0; pos < part.eq_prefix_len &&
                             pos < index.columns.size();
             ++pos) {
          std::vector<Value> opts;
          for (const auto& p : part.matched_predicates) {
            if (p.column.column != index.columns[pos] ||
                !p.is_index_prefix()) {
              continue;
            }
            if (p.kind == optimizer::PredKind::kIsNull) {
              opts.push_back(Value::Null());
            } else {
              opts = p.values;
            }
            break;
          }
          if (opts.empty()) break;
          options.push_back(std::move(opts));
        }
        std::optional<storage::KeyBound> lower;
        std::optional<storage::KeyBound> upper;
        if (part.range_on_next && options.size() < index.columns.size()) {
          for (const auto& p : part.matched_predicates) {
            if (p.column.column != index.columns[options.size()]) continue;
            if (p.kind == optimizer::PredKind::kRange) {
              if (p.has_lower) {
                lower = storage::KeyBound{Value::Int(p.lower),
                                          p.lower_inclusive};
              }
              if (p.has_upper) {
                upper = storage::KeyBound{Value::Int(p.upper),
                                          p.upper_inclusive};
              }
            } else if (p.kind == optimizer::PredKind::kLikePrefix &&
                       !p.values.empty()) {
              const std::string& pat = p.values[0].AsString();
              const size_t cut = pat.find_first_of("%_");
              const std::string pre =
                  cut == std::string::npos ? pat : pat.substr(0, cut);
              if (!pre.empty()) {
                lower = storage::KeyBound{Value::Str(pre), true};
                const std::string succ = PrefixSuccessor(pre);
                if (!succ.empty()) {
                  upper = storage::KeyBound{Value::Str(succ), false};
                }
              }
            }
          }
        }
        std::string prefix;
        std::function<void(size_t)> enumerate = [&](size_t pos) {
          if (pos == options.size()) {
            const uint64_t visited = btree->ScanPrefix(
                prefix, lower, upper, [&](RowId rid) {
                  rids.insert(rid);
                  return true;
                });
            ctx_->metrics.index_entries_read += visited;
            ctx_->metrics.rows_examined += visited;
            ctx_->AddStepCost(step_idx,
                              ctx_->cm().params().btree_descent_cost);
            return;
          }
          const size_t mark = prefix.size();
          for (const Value& v : options[pos]) {
            storage::AppendKeyPart(v, &prefix);
            enumerate(pos + 1);
            prefix.resize(mark);
          }
        };
        enumerate(0);
        ctx_->UseIndex(step_idx, index.id);
      }
      for (RowId rid : rids) {
        if (!consider(rid, /*via_index=*/true, step.path.covering)) {
          break;
        }
      }
      return keep_going;
    }

    if (step.path.is_full_scan()) {
      const uint64_t visited = heap.Scan([&](RowId rid, const Row&) {
        return consider(rid, /*via_index=*/false, /*covering=*/false);
      });
      ctx_->metrics.rows_examined += visited;
      // Scan cost: sequential pages + per-row CPU.
      const auto& cat = ctx_->db()->catalog();
      const double pages =
          std::max(1.0, cat.TableSizeBytes(inst.table) /
                            ctx_->cm().params().page_size);
      ctx_->AddStepCost(
          step_idx,
          pages * ctx_->cm().params().seq_page_cost +
              static_cast<double>(visited) *
                  ctx_->cm().params().cpu_row_cost);
      return keep_going;
    }

    // Index access: assemble eq-prefix value options per key part.
    const catalog::IndexDef& index = *step.path.index;
    const storage::BTreeIndex* btree = ctx_->db()->btree(index.id);
    if (btree == nullptr) {
      // Hypothetical index leaked into an execution plan; treat as scan.
      const uint64_t visited = heap.Scan([&](RowId rid, const Row&) {
        return consider(rid, false, false);
      });
      ctx_->metrics.rows_examined += visited;
      return keep_going;
    }

    if (step.path.skip_scan && index.columns.size() >= 2) {
      // Skip scan: range bounds apply to the key part after the skipped
      // prefix; equality predicates become a closed point range.
      std::optional<storage::KeyBound> lower;
      std::optional<storage::KeyBound> upper;
      for (const auto& p :
           ctx_->query().ConjunctsForInstance(instance)) {
        if (p.column.column != index.columns[step.path.skip_width]) {
          continue;
        }
        if (p.kind == optimizer::PredKind::kEq && !p.values.empty()) {
          lower = storage::KeyBound{p.values[0], true};
          upper = storage::KeyBound{p.values[0], true};
        }
      }
      if (!lower.has_value()) {
        RangeBoundsFor(ctx_->query(), instance,
                       index.columns[step.path.skip_width], &lower,
                       &upper);
      }
      uint64_t groups = 0;
      const uint64_t visited = btree->ScanSkip(
          step.path.skip_width, lower, upper,
          [&](RowId rid) {
            return consider(rid, /*via_index=*/true, step.path.covering);
          },
          &groups);
      ctx_->metrics.index_entries_read += visited;
      ctx_->metrics.rows_examined += visited;
      const auto& pp = ctx_->cm().params();
      ctx_->AddStepCost(step_idx,
                        static_cast<double>(std::max<uint64_t>(1, groups)) *
                            pp.btree_descent_cost * pp.random_page_cost /
                            4.0);
      ctx_->UseIndex(step_idx, index.id);
      return keep_going;
    }

    std::vector<std::vector<Value>> options;
    for (size_t part = 0; part < step.path.eq_prefix_len &&
                          part < index.columns.size();
         ++part) {
      const catalog::ColumnId col = index.columns[part];
      std::vector<Value> opts = LiteralOptionsFor(ctx_->query(), instance,
                                                  col);
      if (opts.empty()) {
        auto jv = JoinBoundValue(*ctx_, instance, col);
        if (jv.has_value()) opts.push_back(*jv);
      }
      if (opts.empty()) break;  // prefix ends earlier at run time
      options.push_back(std::move(opts));
    }
    std::optional<storage::KeyBound> lower;
    std::optional<storage::KeyBound> upper;
    if (step.path.range_on_next && options.size() < index.columns.size()) {
      RangeBoundsFor(ctx_->query(), instance,
                     index.columns[options.size()], &lower, &upper);
    }

    const bool covering = step.path.covering;
    // Enumerate the cartesian product of prefix options (IN expansion).
    // The probe counter is a local: a member here would be clobbered by
    // recursion into deeper index steps mid-enumeration, corrupting this
    // step's descent-cost multiplier.
    uint64_t ranges_probed = 0;
    std::string prefix;
    std::function<bool(size_t)> enumerate = [&](size_t part) -> bool {
      if (part == options.size()) {
        ++ranges_probed;
        const uint64_t visited = btree->ScanPrefix(
            prefix, lower, upper, [&](RowId rid) {
              return consider(rid, /*via_index=*/true, covering);
            });
        ctx_->metrics.index_entries_read += visited;
        ctx_->metrics.rows_examined += visited;
        return keep_going;
      }
      const size_t mark = prefix.size();
      for (const Value& v : options[part]) {
        storage::AppendKeyPart(v, &prefix);
        const bool go_on = enumerate(part + 1);
        prefix.resize(mark);
        if (!go_on) return false;
      }
      return true;
    };
    enumerate(0);
    // Index access cost: descents + entry CPU + fetches.
    const auto& p = ctx_->cm().params();
    ctx_->AddStepCost(step_idx,
                      static_cast<double>(
                          std::max<uint64_t>(1, ranges_probed)) *
                          p.btree_descent_cost * p.random_page_cost / 4.0);
    ctx_->UseIndex(step_idx, index.id);
    return keep_going;
  }

  bool EmitCombination() {
    // With every instance bound, the WHERE must evaluate definitively
    // true; residual unknowns (e.g. '?' parameters) reject the row.
    if (where_ != nullptr) {
      auto v = ctx_->EvalPred(*where_);
      if (!v.has_value() || !*v) return true;
    }
    return emit_();
  }

  ExecContext* ctx_;
  const Plan* plan_;
  std::function<bool()> emit_;
  const Expr* where_ = nullptr;
};

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

  if (options_.engine == EngineKind::kRowAtATime) {
    NestedLoopDriver driver(&ctx, &plan,
                            [&]() { return sink.Emit(ctx.bound_data()); });
    driver.set_where(select.where.get());
    driver.Run();
  } else {
    static obs::Counter* const batch_count =
        obs::MetricsRegistry::Global()->counter("executor.batch.count");
    static obs::Counter* const batch_rows =
        obs::MetricsRegistry::Global()->counter("executor.batch.rows");
    FilterProgram filter(select.where.get(), ctx, step_of_instance,
                         static_cast<int>(num_steps));
    BatchEngine engine(&ctx, plan, &filter, &sink, step_of_instance);
    engine.Run();
    batch_count->Add();
    batch_rows->Add(ctx.metrics.op_scan.rows_out +
                    ctx.metrics.op_join.rows_out);
  }

  sink.Finalize(&result.rows);
  ctx.metrics.rows_sent = result.rows.size();
  if (options_.engine == EngineKind::kBatch) {
    ctx.metrics.op_aggregate.rows_out = result.rows.size();
    EmitOperatorSpans(ctx.metrics);
  }
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
                const Row& row = heap.row(rid);
                ctx.Bind(0, &row);
                bool pass = true;
                if (where != nullptr) {
                  auto v = ctx.EvalPred(*where);
                  pass = v.has_value() && *v;
                }
                if (pass) matches.push_back(rid);
                ctx.Bind(0, nullptr);
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
      const uint64_t visited = heap.Scan([&](RowId rid, const Row& row) {
        ctx.Bind(0, &row);
        bool pass = true;
        if (where != nullptr) {
          auto v = ctx.EvalPred(*where);
          pass = v.has_value() && *v;
        }
        if (pass) matches.push_back(rid);
        ctx.Bind(0, nullptr);
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
