#include "executor/aggregate.h"

#include <algorithm>

namespace aim::executor {

using sql::Expr;
using sql::Value;
using storage::Row;
using storage::SlotRef;
using storage::ValueView;

Value AggState::Final(sql::AggFunc func) const {
  switch (func) {
    case sql::AggFunc::kCount:
      return Value::Int(static_cast<int64_t>(count));
    case sql::AggFunc::kSum:
      return count == 0 ? Value::Null() : Value::Real(sum);
    case sql::AggFunc::kAvg:
      return count == 0 ? Value::Null()
                        : Value::Real(sum / static_cast<double>(count));
    case sql::AggFunc::kMin:
      return has_minmax ? min.ToValue() : Value::Null();
    case sql::AggFunc::kMax:
      return has_minmax ? max.ToValue() : Value::Null();
    case sql::AggFunc::kNone:
      break;
  }
  return Value::Null();
}

SelectSink::SelectSink(const sql::SelectStatement& select,
                       const optimizer::AnalyzedQuery& query,
                       const optimizer::Plan& plan, ExecContext* ctx)
    : ctx_(ctx),
      select_(select),
      num_instances_(query.instances.size()) {
  grouped_ = query.has_group_by || query.has_aggregate;
  needs_sort_ = plan.needs_sort;
  limit_ = select.limit >= 0 ? select.limit : -1;
  can_stop_early_ = !grouped_ && !needs_sort_ && limit_ >= 0;

  items_.reserve(select.select_list.size());
  for (const auto& item : select.select_list) {
    Item it;
    switch (item->kind) {
      case Expr::Kind::kStar:
        it.kind = Item::Kind::kStar;
        break;
      case Expr::Kind::kAggregate:
        it.kind = Item::Kind::kAggregate;
        it.agg = item->agg;
        it.min_max =
            it.agg == sql::AggFunc::kMin || it.agg == sql::AggFunc::kMax;
        if (item->children.empty() ||
            item->children[0]->kind == Expr::Kind::kStar) {
          it.count_star = true;
        } else {
          it.value = CompileValue(*item->children[0], *ctx);
        }
        break;
      default:
        it.kind = Item::Kind::kValue;
        it.value = CompileValue(*item, *ctx);
        break;
    }
    items_.push_back(std::move(it));
  }
  for (const auto& o : select.order_by) {
    order_exprs_.push_back(CompileValue(*o.expr, *ctx));
    order_asc_.push_back(o.ascending);
  }
  for (const auto& g : select.group_by) {
    group_exprs_.push_back(CompileValue(*g, *ctx));
  }

  if (!grouped_) {
    // Reserve from the optimizer's cardinality estimate (clamped by the
    // LIMIT when one applies and a sanity cap): replays of the same
    // template then fill a right-sized buffer instead of growing it.
    double est = plan.est_result_rows;
    if (limit_ >= 0 && !needs_sort_) {
      est = std::min(est, static_cast<double>(limit_));
    }
    const size_t cap = 1u << 20;
    const size_t reserve = static_cast<size_t>(
        std::min(std::max(est, 0.0), static_cast<double>(cap)));
    ungrouped_.reserve(reserve);
  }
}

Row SelectSink::Project(const SlotRef* bound) const {
  Row out;
  for (const auto& it : items_) {
    switch (it.kind) {
      case Item::Kind::kStar: {
        for (size_t i = 0; i < num_instances_; ++i) {
          const SlotRef& ref = bound[i];
          if (ref.chunk == nullptr) continue;
          for (size_t c = 0; c < ref.chunk->lanes.size(); ++c) {
            out.push_back(ref.value(c).ToValue());
          }
        }
        break;
      }
      case Item::Kind::kAggregate:
        out.push_back(Value::Null());  // filled during finalization
        break;
      case Item::Kind::kValue: {
        ValueView v;
        out.push_back(it.value.Get(bound, &v) ? v.ToValue() : Value::Null());
        break;
      }
    }
  }
  return out;
}

bool SelectSink::Emit(const SlotRef* bound) {
  ++rows_emitted_;
  if (grouped_) {
    key_.clear();
    for (const auto& g : group_exprs_) {
      ValueView v;
      if (!g.Get(bound, &v)) v = ValueView{};
      storage::AppendKeyPart(v, &key_);
    }
    auto it = groups_.find(key_);
    if (it == groups_.end()) {
      it = groups_.emplace(key_, Group{std::vector<AggState>(items_.size()),
                                       Project(bound)})
               .first;
    }
    std::vector<AggState>& states = it->second.states;
    for (size_t i = 0; i < items_.size(); ++i) {
      const Item& item = items_[i];
      if (item.kind != Item::Kind::kAggregate) continue;
      ValueView v;
      if (item.count_star) {
        v.kind = Value::Kind::kInt64;
        v.bits = 1;
      } else if (!item.value.Get(bound, &v)) {
        v = ValueView{};
      }
      states[i].Add(v, item.min_max);
    }
    return true;
  }
  // The sort key is read only by Finalize's sort.
  Row key;
  if (needs_sort_) {
    key.reserve(order_exprs_.size());
    for (const auto& o : order_exprs_) {
      ValueView v;
      key.push_back(o.Get(bound, &v) ? v.ToValue() : Value::Null());
    }
  }
  ungrouped_.emplace_back(std::move(key), Project(bound));
  ++emitted_;
  if (can_stop_early_ && emitted_ >= limit_) return false;
  return true;
}

void SelectSink::Finalize(std::vector<Row>* out) {
  const optimizer::CostModel& cm = ctx_->cm();
  if (grouped_) {
    out->reserve(out->size() + groups_.size());
    for (auto& [key, group] : groups_) {
      Row row = std::move(group.first_values);
      for (size_t i = 0; i < items_.size(); ++i) {
        if (items_[i].kind == Item::Kind::kAggregate) {
          row[i] = group.states[i].Final(items_[i].agg);
        }
      }
      out->push_back(std::move(row));
    }
    // Groups are already in group-key order; an explicit ORDER BY on
    // other columns is not supported for grouped queries.
    if (needs_sort_) {
      ctx_->metrics.rows_sorted += out->size();
      ctx_->AddTailCost(cm.SortCost(static_cast<double>(out->size())));
    }
    if (limit_ >= 0 && static_cast<int64_t>(out->size()) > limit_) {
      out->resize(limit_);
    }
    return;
  }
  if (needs_sort_ && !order_exprs_.empty()) {
    std::stable_sort(ungrouped_.begin(), ungrouped_.end(),
                     [&](const auto& a, const auto& b) {
                       for (size_t i = 0; i < a.first.size(); ++i) {
                         const int c = a.first[i].Compare(b.first[i]);
                         if (c != 0) return order_asc_[i] ? c < 0 : c > 0;
                       }
                       return false;
                     });
    ctx_->metrics.rows_sorted += ungrouped_.size();
    ctx_->AddTailCost(cm.SortCost(static_cast<double>(ungrouped_.size())));
  }
  const size_t n =
      limit_ >= 0 ? std::min(ungrouped_.size(), static_cast<size_t>(limit_))
                  : ungrouped_.size();
  out->reserve(out->size() + n);
  for (auto& [key, row] : ungrouped_) {
    out->push_back(std::move(row));
    if (limit_ >= 0 && static_cast<int64_t>(out->size()) >= limit_) {
      break;
    }
  }
}

}  // namespace aim::executor
