#include "executor/filter.h"

#include <algorithm>

namespace aim::executor {

using sql::Expr;
using sql::Value;
using storage::ValueView;

CompiledValue CompileValue(const Expr& e, const ExecContext& ctx) {
  CompiledValue v;
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      v.kind = CompiledValue::Kind::kLiteral;
      v.literal = e.value;
      v.literal_view = ValueView::Of(v.literal);
      v.literal_view.text = {};
      break;
    case Expr::Kind::kColumn: {
      auto bc = ctx.Resolve(e);
      if (bc.has_value()) {
        v.kind = CompiledValue::Kind::kColumn;
        v.instance = bc->instance;
        v.column = bc->column;
      }
      break;
    }
    default:
      break;  // kParam and opaque kinds stay kUnknown
  }
  return v;
}

CompiledPred CompilePred(const Expr& e, const ExecContext& ctx) {
  CompiledPred p;
  p.kind = e.kind;
  p.op = e.op;
  p.negated = e.negated;
  switch (e.kind) {
    case Expr::Kind::kAnd:
    case Expr::Kind::kOr:
    case Expr::Kind::kNot:
      p.children.reserve(e.children.size());
      for (const auto& c : e.children) {
        p.children.push_back(CompilePred(*c, ctx));
      }
      break;
    case Expr::Kind::kComparison:
    case Expr::Kind::kInList:
    case Expr::Kind::kBetween:
    case Expr::Kind::kIsNull:
      p.operands.reserve(e.children.size());
      for (const auto& c : e.children) {
        p.operands.push_back(CompileValue(*c, ctx));
      }
      break;
    default:
      break;  // opaque predicate: evaluates kTrue
  }
  return p;
}

Tri EvalCompiled(const CompiledPred& p, const storage::SlotRef* bound) {
  switch (p.kind) {
    case Expr::Kind::kAnd: {
      bool unknown = false;
      for (const auto& c : p.children) {
        const Tri v = EvalCompiled(c, bound);
        if (v == Tri::kUnknown) {
          unknown = true;
        } else if (v == Tri::kFalse) {
          return Tri::kFalse;
        }
      }
      return unknown ? Tri::kUnknown : Tri::kTrue;
    }
    case Expr::Kind::kOr: {
      bool unknown = false;
      for (const auto& c : p.children) {
        const Tri v = EvalCompiled(c, bound);
        if (v == Tri::kUnknown) {
          unknown = true;
        } else if (v == Tri::kTrue) {
          return Tri::kTrue;
        }
      }
      return unknown ? Tri::kUnknown : Tri::kFalse;
    }
    case Expr::Kind::kNot: {
      const Tri v = EvalCompiled(p.children[0], bound);
      if (v == Tri::kUnknown) return Tri::kUnknown;
      return v == Tri::kTrue ? Tri::kFalse : Tri::kTrue;
    }
    case Expr::Kind::kComparison: {
      ValueView lhs;
      ValueView rhs;
      if (!p.operands[0].Get(bound, &lhs) || !p.operands[1].Get(bound, &rhs)) {
        return Tri::kUnknown;
      }
      if (p.op == sql::CompareOp::kNullSafeEq) {
        return lhs.Compare(rhs) == 0 ? Tri::kTrue : Tri::kFalse;
      }
      if (lhs.is_null() || rhs.is_null()) return Tri::kFalse;
      if (p.op == sql::CompareOp::kLike) {
        if (lhs.kind != Value::Kind::kString ||
            rhs.kind != Value::Kind::kString) {
          return Tri::kFalse;
        }
        return LikeMatch(lhs.text, rhs.text) ? Tri::kTrue : Tri::kFalse;
      }
      const int c = lhs.Compare(rhs);
      bool r = false;
      switch (p.op) {
        case sql::CompareOp::kEq:
          r = c == 0;
          break;
        case sql::CompareOp::kNe:
          r = c != 0;
          break;
        case sql::CompareOp::kLt:
          r = c < 0;
          break;
        case sql::CompareOp::kLe:
          r = c <= 0;
          break;
        case sql::CompareOp::kGt:
          r = c > 0;
          break;
        case sql::CompareOp::kGe:
          r = c >= 0;
          break;
        default:
          r = false;
          break;
      }
      return r ? Tri::kTrue : Tri::kFalse;
    }
    case Expr::Kind::kInList: {
      ValueView lhs;
      if (!p.operands[0].Get(bound, &lhs)) return Tri::kUnknown;
      if (lhs.is_null()) return Tri::kFalse;
      for (size_t i = 1; i < p.operands.size(); ++i) {
        ValueView v;
        if (!p.operands[i].Get(bound, &v)) return Tri::kUnknown;
        if (!v.is_null() && lhs.Compare(v) == 0) return Tri::kTrue;
      }
      return Tri::kFalse;
    }
    case Expr::Kind::kBetween: {
      ValueView lhs;
      ValueView lo;
      ValueView hi;
      if (!p.operands[0].Get(bound, &lhs) || !p.operands[1].Get(bound, &lo) ||
          !p.operands[2].Get(bound, &hi)) {
        return Tri::kUnknown;
      }
      if (lhs.is_null() || lo.is_null() || hi.is_null()) {
        return Tri::kFalse;
      }
      return lhs.Compare(lo) >= 0 && lhs.Compare(hi) <= 0 ? Tri::kTrue
                                                          : Tri::kFalse;
    }
    case Expr::Kind::kIsNull: {
      ValueView lhs;
      if (!p.operands[0].Get(bound, &lhs)) return Tri::kUnknown;
      const bool n = lhs.is_null();
      return (p.negated ? !n : n) ? Tri::kTrue : Tri::kFalse;
    }
    default:
      return Tri::kTrue;  // opaque leaves pass (conservative)
  }
}

namespace {

/// Deepest plan step among resolved operand references in the subtree.
int RefsMax(const CompiledPred& p, const std::vector<int>& soi) {
  int d = 0;
  for (const auto& o : p.operands) d = std::max(d, o.depth(soi));
  for (const auto& c : p.children) d = std::max(d, RefsMax(c, soi));
  return d;
}

bool HasUnknownCapable(const CompiledPred& p, const std::vector<int>& soi) {
  for (const auto& o : p.operands) {
    if (o.unknown_capable(soi)) return true;
  }
  for (const auto& c : p.children) {
    if (HasUnknownCapable(c, soi)) return true;
  }
  return false;
}

int FirstTrue(const CompiledPred& p, const std::vector<int>& soi,
              int num_steps);

/// Lower bound on the first depth the subtree can evaluate to a definite
/// false. Leaves need all their operands bound; AND is false as soon as
/// any child is, OR only once every child is, NOT once the child is true.
int FirstFalse(const CompiledPred& p, const std::vector<int>& soi,
               int num_steps) {
  switch (p.kind) {
    case Expr::Kind::kAnd: {
      int d = num_steps;  // empty AND is never false
      for (const auto& c : p.children) {
        d = std::min(d, FirstFalse(c, soi, num_steps));
      }
      return d;
    }
    case Expr::Kind::kOr: {
      int d = 0;
      for (const auto& c : p.children) {
        d = std::max(d, FirstFalse(c, soi, num_steps));
      }
      return d;
    }
    case Expr::Kind::kNot:
      return FirstTrue(p.children[0], soi, num_steps);
    case Expr::Kind::kInList:
      // IN is definitively false as soon as the probe value is NULL —
      // evaluation short-circuits before touching the elements — so the
      // probe operand's depth is the safe lower bound, not RefsMax.
      return p.operands[0].depth(soi);
    case Expr::Kind::kComparison:
    case Expr::Kind::kBetween:
    case Expr::Kind::kIsNull:
      return RefsMax(p, soi);
    default:
      return num_steps;  // opaque: never false
  }
}

int FirstTrue(const CompiledPred& p, const std::vector<int>& soi,
              int num_steps) {
  switch (p.kind) {
    case Expr::Kind::kAnd: {
      int d = 0;
      for (const auto& c : p.children) {
        d = std::max(d, FirstTrue(c, soi, num_steps));
      }
      return d;
    }
    case Expr::Kind::kOr: {
      int d = num_steps;
      for (const auto& c : p.children) {
        d = std::min(d, FirstTrue(c, soi, num_steps));
      }
      return p.children.empty() ? 0 : d;
    }
    case Expr::Kind::kNot:
      return FirstFalse(p.children[0], soi, num_steps);
    case Expr::Kind::kInList: {
      // True needs the probe value plus a matching element; unknown
      // elements before the match make it kUnknown, so min-over-elements
      // is a (safe) lower bound.
      int d = p.operands[0].depth(soi);
      int e = num_steps;
      for (size_t i = 1; i < p.operands.size(); ++i) {
        e = std::min(e, p.operands[i].depth(soi));
      }
      if (p.operands.size() > 1) d = std::max(d, e);
      return d;
    }
    case Expr::Kind::kComparison:
    case Expr::Kind::kBetween:
    case Expr::Kind::kIsNull:
      return RefsMax(p, soi);
    default:
      return 0;  // opaque: true immediately
  }
}

/// Flattens the top-level AND skeleton into conjuncts, as the optimizer's
/// conjunct extraction does.
void FlattenConjuncts(const Expr& e, const ExecContext& ctx,
                      std::vector<CompiledPred>* out) {
  if (e.kind == Expr::Kind::kAnd) {
    for (const auto& c : e.children) FlattenConjuncts(*c, ctx, out);
    return;
  }
  out->push_back(CompilePred(e, ctx));
}

}  // namespace

FilterProgram::FilterProgram(const Expr* where, const ExecContext& ctx,
                             const std::vector<int>& step_of_instance,
                             int num_steps) {
  by_depth_.resize(std::max(num_steps, 1));
  if (where == nullptr) return;
  std::vector<CompiledPred> preds;
  FlattenConjuncts(*where, ctx, &preds);
  conjuncts_.reserve(preds.size());
  const int last_depth = std::max(num_steps, 1) - 1;
  for (auto& p : preds) {
    Conjunct c;
    c.last_check = std::min(RefsMax(p, step_of_instance), last_depth);
    c.first_check = std::min(
        std::min(FirstFalse(p, step_of_instance, num_steps), c.last_check),
        last_depth);
    c.emit_check = HasUnknownCapable(p, step_of_instance);
    c.pred = std::move(p);
    const int idx = static_cast<int>(conjuncts_.size());
    conjuncts_.push_back(std::move(c));
    for (int d = conjuncts_[idx].first_check;
         d <= conjuncts_[idx].last_check; ++d) {
      by_depth_[d].push_back(idx);
    }
    if (conjuncts_[idx].emit_check) emit_checks_.push_back(idx);
  }
}

}  // namespace aim::executor
