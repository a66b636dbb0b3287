#include "tests/row_oracle.h"

#include <algorithm>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "executor/exec_common.h"
#include "optimizer/optimizer.h"

namespace aim::testing {

namespace {

using executor::ExecContext;
using executor::ExecuteResult;
using executor::ExecutionMetrics;
using executor::LikeMatch;
using executor::LiteralOptionsFor;
using executor::PrefixSuccessor;
using executor::RangeBoundsFor;
using optimizer::AnalyzedQuery;
using optimizer::Plan;
using sql::Expr;
using sql::Value;
using storage::Row;
using storage::RowId;

/// The interpreter's bindings: one bound row per query instance, and
/// expression evaluation that resolves column references by name.
class RowBinding {
 public:
  explicit RowBinding(const ExecContext* ctx)
      : ctx_(ctx), bound_(ctx->num_instances(), nullptr) {}

  void Bind(int instance, const Row* row) { bound_[instance] = row; }
  const Row* bound(int instance) const { return bound_[instance]; }

  /// Evaluates an expression; nullopt when it references an unbound
  /// instance (three-valued partial evaluation), a '?' param or an
  /// unresolvable column.
  std::optional<Value> Eval(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kLiteral:
        return e.value;
      case Expr::Kind::kColumn: {
        auto bc = ctx_->Resolve(e);
        if (!bc.has_value()) return std::nullopt;
        const Row* row = bound_[bc->instance];
        if (row == nullptr) return std::nullopt;
        return (*row)[bc->column];
      }
      default:
        return std::nullopt;  // params and opaque kinds
    }
  }

  /// Three-valued predicate evaluation: true / false / unknown (nullopt).
  /// Unknown arises only from unbound instances and params; SQL NULL
  /// comparisons evaluate to false.
  std::optional<bool> EvalPred(const Expr& e) const {
    switch (e.kind) {
      case Expr::Kind::kAnd: {
        bool unknown = false;
        for (const auto& c : e.children) {
          auto v = EvalPred(*c);
          if (!v.has_value()) {
            unknown = true;
          } else if (!*v) {
            return false;
          }
        }
        if (unknown) return std::nullopt;
        return true;
      }
      case Expr::Kind::kOr: {
        bool unknown = false;
        for (const auto& c : e.children) {
          auto v = EvalPred(*c);
          if (!v.has_value()) {
            unknown = true;
          } else if (*v) {
            return true;
          }
        }
        if (unknown) return std::nullopt;
        return false;
      }
      case Expr::Kind::kNot: {
        auto v = EvalPred(*e.children[0]);
        if (!v.has_value()) return std::nullopt;
        return !*v;
      }
      case Expr::Kind::kComparison: {
        auto lhs = Eval(*e.children[0]);
        auto rhs = Eval(*e.children[1]);
        if (!lhs.has_value() || !rhs.has_value()) return std::nullopt;
        if (e.op == sql::CompareOp::kNullSafeEq) {
          return lhs->Compare(*rhs) == 0;
        }
        if (lhs->is_null() || rhs->is_null()) return false;
        if (e.op == sql::CompareOp::kLike) {
          if (lhs->kind() != Value::Kind::kString ||
              rhs->kind() != Value::Kind::kString) {
            return false;
          }
          return LikeMatch(lhs->AsString(), rhs->AsString());
        }
        const int c = lhs->Compare(*rhs);
        switch (e.op) {
          case sql::CompareOp::kEq:
            return c == 0;
          case sql::CompareOp::kNe:
            return c != 0;
          case sql::CompareOp::kLt:
            return c < 0;
          case sql::CompareOp::kLe:
            return c <= 0;
          case sql::CompareOp::kGt:
            return c > 0;
          case sql::CompareOp::kGe:
            return c >= 0;
          default:
            return false;
        }
      }
      case Expr::Kind::kInList: {
        auto lhs = Eval(*e.children[0]);
        if (!lhs.has_value()) return std::nullopt;
        if (lhs->is_null()) return false;
        for (size_t i = 1; i < e.children.size(); ++i) {
          auto v = Eval(*e.children[i]);
          if (!v.has_value()) return std::nullopt;
          if (!v->is_null() && lhs->Compare(*v) == 0) return true;
        }
        return false;
      }
      case Expr::Kind::kBetween: {
        auto lhs = Eval(*e.children[0]);
        auto lo = Eval(*e.children[1]);
        auto hi = Eval(*e.children[2]);
        if (!lhs.has_value() || !lo.has_value() || !hi.has_value()) {
          return std::nullopt;
        }
        if (lhs->is_null() || lo->is_null() || hi->is_null()) return false;
        return lhs->Compare(*lo) >= 0 && lhs->Compare(*hi) <= 0;
      }
      case Expr::Kind::kIsNull: {
        auto lhs = Eval(*e.children[0]);
        if (!lhs.has_value()) return std::nullopt;
        return e.negated ? !lhs->is_null() : lhs->is_null();
      }
      default:
        return true;  // opaque leaves pass (conservative)
    }
  }

  /// Join-bound value for a key part: the value from an already-bound
  /// partner instance, if any (first matching edge in joins order).
  std::optional<Value> JoinBoundValue(int instance,
                                      catalog::ColumnId column) const {
    for (const auto& e : ctx_->query().joins) {
      if (e.left.instance == instance && e.left.column == column) {
        const Row* other = bound_[e.right.instance];
        if (other != nullptr) return (*other)[e.right.column];
      }
      if (e.right.instance == instance && e.right.column == column) {
        const Row* other = bound_[e.left.instance];
        if (other != nullptr) return (*other)[e.left.column];
      }
    }
    return std::nullopt;
  }

 private:
  const ExecContext* ctx_;
  std::vector<const Row*> bound_;
};

/// \brief Drives the row-at-a-time nested-loop join over plan steps.
///
/// This is the original interpreter, kept in structure as the
/// differential oracle for the batch engine. Its accounting goes to the
/// per-step cost slots (see exec_common.h for why that preserves
/// bit-identity), and it binds the rows RowOracle materialized from the
/// heap: `rows[instance][rid]` is row `rid` of that instance's table.
class NestedLoopDriver {
 public:
  NestedLoopDriver(ExecContext* ctx, RowBinding* binding, const Plan* plan,
                   std::vector<const std::vector<Row>*> rows,
                   std::function<bool()> emit)
      : ctx_(ctx),
        binding_(binding),
        plan_(plan),
        rows_(std::move(rows)),
        emit_(std::move(emit)) {}

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
    const std::vector<Row>& rows = *rows_[instance];

    bool keep_going = true;
    auto consider_row = [&](const Row& row, bool via_index,
                            bool covering) -> bool {
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
      binding_->Bind(instance, &row);
      // Prune on everything decidable so far (filters + join edges).
      bool pass = true;
      if (where_ != nullptr) {
        auto v = binding_->EvalPred(*where_);
        pass = !v.has_value() || *v;
      }
      if (pass) {
        keep_going = RunStep(step_idx + 1);
      }
      binding_->Bind(instance, nullptr);
      return keep_going;
    };
    auto consider = [&](RowId rid, bool via_index, bool covering) -> bool {
      return consider_row(rows[rid], via_index, covering);
    };
    // Visits every live row in row-id order; returns the rows visited.
    auto scan = [&]() -> uint64_t {
      uint64_t visited = 0;
      for (RowId rid = 0; rid < rows.size(); ++rid) {
        if (!heap.IsLive(rid)) continue;
        ++visited;
        if (!consider_row(rows[rid], false, false)) break;
      }
      return visited;
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
      const uint64_t visited = scan();
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
      const uint64_t visited = scan();
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
        auto jv = binding_->JoinBoundValue(instance, col);
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
      auto v = binding_->EvalPred(*where_);
      if (!v.has_value() || !*v) return true;
    }
    return emit_();
  }

  ExecContext* ctx_;
  RowBinding* binding_;
  const Plan* plan_;
  std::vector<const std::vector<Row>*> rows_;  // by instance
  std::function<bool()> emit_;
  const Expr* where_ = nullptr;
};


/// Aggregate accumulator over owned Values.
struct RowAggState {
  double sum = 0.0;
  uint64_t count = 0;
  bool has_minmax = false;
  Value min;
  Value max;

  void Add(const Value& v) {
    if (v.is_null()) return;
    ++count;
    if (v.kind() == Value::Kind::kInt64 || v.kind() == Value::Kind::kDouble) {
      sum += v.AsDouble();
    }
    if (!has_minmax) {
      min = max = v;
      has_minmax = true;
    } else {
      if (v.Compare(min) < 0) min = v;
      if (v.Compare(max) > 0) max = v;
    }
  }

  Value Final(sql::AggFunc func) const {
    switch (func) {
      case sql::AggFunc::kCount:
        return Value::Int(static_cast<int64_t>(count));
      case sql::AggFunc::kSum:
        return count == 0 ? Value::Null() : Value::Real(sum);
      case sql::AggFunc::kAvg:
        return count == 0 ? Value::Null()
                          : Value::Real(sum / static_cast<double>(count));
      case sql::AggFunc::kMin:
        return has_minmax ? min : Value::Null();
      case sql::AggFunc::kMax:
        return has_minmax ? max : Value::Null();
      case sql::AggFunc::kNone:
        break;
    }
    return Value::Null();
  }
};

/// The interpreter's output sink: projection, grouping through a
/// std::map<Row, RowLess>, ordering and LIMIT. Column references are
/// resolved once, at construction. Emit() returns false when execution
/// can stop (LIMIT reached with no sort or grouping pending).
class RowSink {
 public:
  RowSink(const sql::SelectStatement& select, const AnalyzedQuery& query,
          const Plan& plan, ExecContext* ctx, const RowBinding* binding)
      : ctx_(ctx), binding_(binding), select_(select) {
    grouped_ = query.has_group_by || query.has_aggregate;
    needs_sort_ = plan.needs_sort;
    limit_ = select.limit >= 0 ? select.limit : -1;
    can_stop_early_ = !grouped_ && !needs_sort_ && limit_ >= 0;
    for (const auto& item : select.select_list) {
      const bool argument = item->kind == Expr::Kind::kAggregate &&
                            !item->children.empty() &&
                            item->children[0]->kind != Expr::Kind::kStar;
      items_.push_back(Resolve(argument ? *item->children[0] : *item));
    }
    for (const auto& o : select.order_by) order_.push_back(Resolve(*o.expr));
    for (const auto& g : select.group_by) group_.push_back(Resolve(*g));
  }

  bool Emit() {
    if (grouped_) {
      Row key;
      for (const ValueRef& g : group_) key.push_back(ValueOf(g));
      auto [it, inserted] = groups_.try_emplace(key, select_.select_list.size());
      if (inserted) first_values_.emplace(key, Project());
      for (size_t i = 0; i < select_.select_list.size(); ++i) {
        const Expr& item = *select_.select_list[i];
        if (item.kind != Expr::Kind::kAggregate) continue;
        if (item.children.empty() ||
            item.children[0]->kind == Expr::Kind::kStar) {
          it->second[i].Add(Value::Int(1));
        } else {
          it->second[i].Add(ValueOf(items_[i]));
        }
      }
      return true;
    }
    Row key;
    for (const ValueRef& o : order_) key.push_back(ValueOf(o));
    ungrouped_.emplace_back(std::move(key), Project());
    ++emitted_;
    return !(can_stop_early_ && emitted_ >= limit_);
  }

  void Finalize(std::vector<Row>* out) {
    const optimizer::CostModel& cm = ctx_->cm();
    if (grouped_) {
      for (auto& [key, states] : groups_) {
        Row row = first_values_[key];
        for (size_t i = 0; i < select_.select_list.size(); ++i) {
          const Expr& item = *select_.select_list[i];
          if (item.kind == Expr::Kind::kAggregate) {
            row[i] = states[i].Final(item.agg);
          }
        }
        out->push_back(std::move(row));
      }
      if (needs_sort_) {
        ctx_->metrics.rows_sorted += out->size();
        ctx_->AddTailCost(cm.SortCost(static_cast<double>(out->size())));
      }
      if (limit_ >= 0 && static_cast<int64_t>(out->size()) > limit_) {
        out->resize(limit_);
      }
      return;
    }
    if (needs_sort_ && !select_.order_by.empty()) {
      std::stable_sort(ungrouped_.begin(), ungrouped_.end(),
                       [&](const auto& a, const auto& b) {
                         for (size_t i = 0; i < a.first.size(); ++i) {
                           const int c = a.first[i].Compare(b.first[i]);
                           if (c != 0) {
                             return select_.order_by[i].ascending ? c < 0
                                                                  : c > 0;
                           }
                         }
                         return false;
                       });
      ctx_->metrics.rows_sorted += ungrouped_.size();
      ctx_->AddTailCost(cm.SortCost(static_cast<double>(ungrouped_.size())));
    }
    for (auto& [key, row] : ungrouped_) {
      out->push_back(std::move(row));
      if (limit_ >= 0 && static_cast<int64_t>(out->size()) >= limit_) break;
    }
  }

 private:
  /// An expression as RowBinding::Eval would read it: a literal, a
  /// column of a query instance, or neither (NULL).
  struct ValueRef {
    std::optional<Value> literal;
    std::optional<optimizer::BoundColumn> column;
  };

  ValueRef Resolve(const Expr& e) const {
    ValueRef r;
    if (e.kind == Expr::Kind::kLiteral) r.literal = e.value;
    if (e.kind == Expr::Kind::kColumn) r.column = ctx_->Resolve(e);
    return r;
  }

  Value ValueOf(const ValueRef& r) const {
    if (r.literal.has_value()) return *r.literal;
    if (r.column.has_value()) {
      const Row* row = binding_->bound(r.column->instance);
      if (row != nullptr) return (*row)[r.column->column];
    }
    return Value::Null();
  }

  Row Project() const {
    Row out;
    for (size_t i = 0; i < select_.select_list.size(); ++i) {
      switch (select_.select_list[i]->kind) {
        case Expr::Kind::kStar:
          for (size_t i = 0; i < ctx_->num_instances(); ++i) {
            const Row* row = binding_->bound(static_cast<int>(i));
            if (row != nullptr) out.insert(out.end(), row->begin(), row->end());
          }
          break;
        case Expr::Kind::kAggregate:
          out.push_back(Value::Null());  // filled during finalization
          break;
        default:
          out.push_back(ValueOf(items_[i]));
          break;
      }
    }
    return out;
  }

  ExecContext* ctx_;
  const RowBinding* binding_;
  const sql::SelectStatement& select_;
  bool grouped_ = false;
  bool needs_sort_ = false;
  int64_t limit_ = -1;
  bool can_stop_early_ = false;
  std::vector<ValueRef> items_;  // by select item; an aggregate's argument
  std::vector<ValueRef> order_;
  std::vector<ValueRef> group_;
  std::map<Row, std::vector<RowAggState>, storage::RowLess> groups_;
  std::map<Row, Row, storage::RowLess> first_values_;
  std::vector<std::pair<Row, Row>> ungrouped_;  // (sort key, output row)
  int64_t emitted_ = 0;
};

}  // namespace

const std::vector<Row>& RowOracle::Rows(catalog::TableId table) {
  const storage::HeapTable& heap = db_->heap(table);
  TableRows& t = rows_[table];
  if (!t.built || t.stamp != heap.stamp() ||
      t.rows.size() != heap.slot_count()) {
    t.rows.assign(heap.slot_count(), Row{});
    for (RowId rid = 0; rid < t.rows.size(); ++rid) {
      if (heap.IsLive(rid)) t.rows[rid] = heap.row(rid);
    }
    t.stamp = heap.stamp();
    t.built = true;
  }
  return t.rows;
}

Result<ExecuteResult> RowOracle::Execute(const sql::Statement& stmt) {
  if (stmt.kind != sql::Statement::Kind::kSelect) {
    return executor::Executor(db_, cm_).Execute(stmt);
  }
  AIM_ASSIGN_OR_RETURN(AnalyzedQuery query,
                       optimizer::Analyze(stmt, db_->catalog()));
  optimizer::Optimizer opt(db_->catalog(), cm_);
  optimizer::OptimizeOptions options;
  options.include_hypothetical = false;
  const Plan plan = opt.OptimizeAnalyzed(query, options);

  std::vector<const std::vector<Row>*> rows;
  for (const auto& inst : query.instances) rows.push_back(&Rows(inst.table));
  ExecContext ctx(db_, &query, &cm_, std::max<size_t>(plan.steps.size(), 1));
  RowBinding binding(&ctx);
  RowSink sink(*stmt.select, query, plan, &ctx, &binding);
  NestedLoopDriver driver(&ctx, &binding, &plan, std::move(rows),
                          [&] { return sink.Emit(); });
  driver.set_where(stmt.select->where.get());
  driver.Run();
  ExecuteResult result;
  sink.Finalize(&result.rows);
  ctx.metrics.rows_sent = result.rows.size();
  ctx.FinalizeCost();
  result.metrics = ctx.metrics;
  return result;
}

namespace {

/// Every ExecutionMetrics field the two engines must agree on (all but the
/// batch engine's per-operator counters), doubles bit-exact; or the
/// failure status.
std::string MetricsSignature(const Result<ExecuteResult>& r) {
  if (!r.ok()) return "error " + r.status().ToString();
  const ExecutionMetrics& m = r.ValueOrDie().metrics;
  std::ostringstream out;
  out << std::hexfloat << "examined=" << m.rows_examined
      << " entries=" << m.index_entries_read << " heap=" << m.heap_rows_read
      << " pk=" << m.pk_lookups << " sent=" << m.rows_sent
      << " modified=" << m.rows_modified
      << " written=" << m.index_entries_written << " sorted=" << m.rows_sorted
      << " cost=" << m.cost_units << " cpu=" << m.cpu_seconds << " used=";
  for (catalog::IndexId id : m.used_indexes) out << id << ",";
  return out.str();
}

}  // namespace

Status CheckReplay(const storage::Database& production,
                   const std::vector<core::CandidateIndex>& selected,
                   const std::vector<core::SelectedQuery>& queries,
                   optimizer::CostModel cm) {
  if (selected.empty()) return Status::OK();
  auto replay = [&](storage::Database* db, const char* clone) -> Status {
    RowOracle oracle(db, cm);
    executor::Executor exec(db, cm);
    for (const core::SelectedQuery& sq : queries) {
      const sql::Statement& stmt = sq.query->stmt;
      if (stmt.is_dml()) {
        (void)exec.Execute(stmt);  // one path for DML; advances the clone
        continue;
      }
      const std::string row = MetricsSignature(oracle.Execute(stmt));
      const std::string batch = MetricsSignature(exec.Execute(stmt));
      if (row != batch) {
        return Status::Internal(std::string(clone) + " replay of query " +
                                std::to_string(sq.query->fingerprint) +
                                ": oracle {" + row + "} batch {" + batch +
                                "}");
      }
    }
    return Status::OK();
  };
  storage::Database control = production;
  AIM_RETURN_NOT_OK(replay(&control, "control"));
  storage::Database test = production;
  for (const core::CandidateIndex& c : selected) {
    catalog::IndexDef def = c.def;
    def.hypothetical = false;
    (void)test.CreateIndex(def);
  }
  return replay(&test, "test");
}

Result<core::AimReport> OracleRunOnce(storage::Database* db,
                                      const workload::Workload& workload,
                                      optimizer::CostModel cm,
                                      const core::AimOptions& options) {
  if (options.validate_on_clone) {
    storage::Database planning = *db;
    core::AutomaticIndexManager planner(&planning, cm, options);
    AIM_ASSIGN_OR_RETURN(core::AimReport proposal,
                         planner.Recommend(workload, nullptr));
    AIM_RETURN_NOT_OK(CheckReplay(*db, proposal.recommended,
                                    proposal.selected_workload, cm));
  }
  return core::AutomaticIndexManager(db, cm, options).RunOnce(workload,
                                                              nullptr);
}

}  // namespace aim::testing
