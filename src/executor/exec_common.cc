#include "executor/exec_common.h"

#include "common/strings.h"

namespace aim::executor {

using optimizer::AnalyzedQuery;
using sql::Expr;
using sql::Value;

bool LikeMatch(std::string_view text, std::string_view pattern,
               size_t ti, size_t pi) {
  while (pi < pattern.size()) {
    const char pc = pattern[pi];
    if (pc == '%') {
      // Collapse consecutive '%'.
      while (pi < pattern.size() && pattern[pi] == '%') ++pi;
      if (pi == pattern.size()) return true;
      for (size_t t = ti; t <= text.size(); ++t) {
        if (LikeMatch(text, pattern, t, pi)) return true;
      }
      return false;
    }
    if (ti >= text.size()) return false;
    if (pc != '_' && text[ti] != pc) return false;
    ++ti;
    ++pi;
  }
  return ti == text.size();
}

std::string PrefixSuccessor(std::string prefix) {
  while (!prefix.empty()) {
    if (static_cast<unsigned char>(prefix.back()) < 0xFF) {
      prefix.back() = static_cast<char>(prefix.back() + 1);
      return prefix;
    }
    prefix.pop_back();
  }
  return prefix;  // empty: unbounded
}

std::optional<optimizer::BoundColumn> ExecContext::Resolve(
    const Expr& col) const {
  for (int i = 0; i < static_cast<int>(query_->instances.size()); ++i) {
    const auto& inst = query_->instances[i];
    if (!col.table.empty() && !EqualsIgnoreCase(inst.alias, col.table)) {
      continue;
    }
    auto c = db_->catalog().table(inst.table).FindColumn(col.column);
    if (c.has_value()) return optimizer::BoundColumn{i, *c};
  }
  return std::nullopt;
}

void ExecContext::FinalizeCost() {
  // The fold order is the bit-identity contract: step slots in plan order,
  // then the tail. See the header comment.
  double acc = 0.0;
  for (const double s : step_cost_) acc += s;
  acc += tail_cost_;
  metrics.cost_units = acc;
  metrics.cpu_seconds = cm_->ToCpuSeconds(metrics.cost_units);
  for (const auto& used : step_used_) {
    metrics.used_indexes.insert(metrics.used_indexes.end(), used.begin(),
                                used.end());
  }
}

std::vector<Value> LiteralOptionsFor(const AnalyzedQuery& query,
                                     int instance,
                                     catalog::ColumnId column) {
  for (const auto& p : query.ConjunctsForInstance(instance)) {
    if (p.column.column != column || !p.is_index_prefix()) continue;
    if (p.kind == optimizer::PredKind::kIsNull) {
      return {Value::Null()};
    }
    if (!p.values.empty()) {
      // IN lists may carry duplicate literals ("IN (9, 3, 9)"). Each
      // option becomes one index probe, so a duplicate would emit its
      // rows twice — the heap path evaluates each row once, and the two
      // plans would disagree on answers, not just cost.
      std::vector<Value> unique;
      unique.reserve(p.values.size());
      for (const Value& v : p.values) {
        bool seen = false;
        for (const Value& u : unique) {
          if (u == v) {
            seen = true;
            break;
          }
        }
        if (!seen) unique.push_back(v);
      }
      return unique;
    }
  }
  return {};
}

bool StaticJoinSource(const AnalyzedQuery& query,
                      const std::vector<int>& step_of_instance,
                      int instance, catalog::ColumnId column, int this_step,
                      int* src_instance, catalog::ColumnId* src_column) {
  // During step s of the nested loop, exactly the instances of steps
  // 0..s-1 are bound, so "partner bound" is a static property. Edge scan
  // order (joins order, left side checked before right) mirrors the row
  // interpreter's run-time search, so both engines pick the same source.
  auto bound_before = [&](int other) {
    const int s = step_of_instance[other];
    return s >= 0 && s < this_step;
  };
  for (const auto& e : query.joins) {
    if (e.left.instance == instance && e.left.column == column &&
        bound_before(e.right.instance)) {
      *src_instance = e.right.instance;
      *src_column = e.right.column;
      return true;
    }
    if (e.right.instance == instance && e.right.column == column &&
        bound_before(e.left.instance)) {
      *src_instance = e.left.instance;
      *src_column = e.left.column;
      return true;
    }
  }
  return false;
}

void RangeBoundsFor(const AnalyzedQuery& query, int instance,
                    catalog::ColumnId column,
                    std::optional<storage::KeyBound>* lower,
                    std::optional<storage::KeyBound>* upper) {
  for (const auto& p : query.ConjunctsForInstance(instance)) {
    if (p.column.column != column) continue;
    if (p.kind == optimizer::PredKind::kRange) {
      if (p.has_lower) {
        *lower = storage::KeyBound{Value::Int(p.lower), p.lower_inclusive};
      }
      if (p.has_upper) {
        *upper = storage::KeyBound{Value::Int(p.upper), p.upper_inclusive};
      }
    } else if (p.kind == optimizer::PredKind::kLikePrefix &&
               !p.values.empty()) {
      std::string pat = p.values[0].AsString();
      const size_t cut = pat.find_first_of("%_");
      const std::string prefix =
          cut == std::string::npos ? pat : pat.substr(0, cut);
      if (prefix.empty()) continue;
      *lower = storage::KeyBound{Value::Str(prefix), true};
      const std::string succ = PrefixSuccessor(prefix);
      if (!succ.empty()) {
        *upper = storage::KeyBound{Value::Str(succ), false};
      }
    }
  }
}

}  // namespace aim::executor
