#ifndef AIM_EXECUTOR_FILTER_H_
#define AIM_EXECUTOR_FILTER_H_

// Compiled predicate evaluation for the batch engine.
//
// The row interpreter re-resolves every column reference by name on every
// row (ExecContext::Resolve walks instances and does a string column
// lookup); that resolution dominated replay profiles. Compilation resolves
// references once per statement into (instance, column) slots, read as
// storage::ValueView straight off the bound chunk's column lanes
// (DESIGN.md §18) — no sql::Value is built per row.
//
// Semantics contract: EvalCompiled() is an exact mirror of the row
// interpreter's predicate evaluation (three-valued logic, NULL handling,
// LIKE type checks, IN-list unknown short-circuit), and ValueView::Compare
// of sql::Value::Compare — the batch suite pins the engine bit-identical
// to the interpreter (the oracle in tests/), so any divergence here is a
// test failure, not a quiet skew.

#include <cstdint>
#include <optional>
#include <vector>

#include "executor/exec_common.h"

namespace aim::executor {

enum class Tri : uint8_t { kFalse, kTrue, kUnknown };

/// A value operand resolved at compile time. kUnknown covers '?' params,
/// unresolvable columns, and opaque expression kinds — everything the
/// interpreter's evaluation answers unknown for regardless of bindings.
struct CompiledValue {
  enum class Kind : uint8_t { kLiteral, kColumn, kUnknown };
  Kind kind = Kind::kUnknown;
  sql::Value literal;
  /// ValueView::Of(literal) without its text: string literals are viewed
  /// at each Get, since a view would not survive moving this operand.
  storage::ValueView literal_view;
  int instance = -1;
  catalog::ColumnId column = 0;

  /// Reads the value under `bound` (indexed by instance) into `*out`;
  /// false when it is unknown (a param, or an unbound instance).
  bool Get(const storage::SlotRef* bound, storage::ValueView* out) const {
    switch (kind) {
      case Kind::kLiteral:
        if (literal_view.kind == sql::Value::Kind::kString) {
          *out = storage::ValueView::Of(literal);
        } else {
          *out = literal_view;
        }
        return true;
      case Kind::kColumn: {
        const storage::SlotRef& ref = bound[instance];
        if (ref.chunk == nullptr) return false;
        *out = ref.value(column);
        return true;
      }
      default:
        return false;
    }
  }
  /// True when Get can fail even with every step's instance bound
  /// (params, unresolved references).
  bool unknown_capable(const std::vector<int>& step_of_instance) const {
    if (kind == Kind::kUnknown) return true;
    return kind == Kind::kColumn && step_of_instance[instance] < 0;
  }
  /// Plan depth at which this operand becomes readable (0 for literals
  /// and never-bound references).
  int depth(const std::vector<int>& step_of_instance) const {
    if (kind != Kind::kColumn) return 0;
    const int s = step_of_instance[instance];
    return s < 0 ? 0 : s;
  }
};

/// Compiles a value expression against the query's instances.
CompiledValue CompileValue(const sql::Expr& e, const ExecContext& ctx);

/// A predicate tree with pre-resolved operands.
struct CompiledPred {
  sql::Expr::Kind kind = sql::Expr::Kind::kLiteral;
  sql::CompareOp op = sql::CompareOp::kEq;
  bool negated = false;
  std::vector<CompiledPred> children;   // kAnd / kOr / kNot
  std::vector<CompiledValue> operands;  // leaf operands, child order
};

CompiledPred CompilePred(const sql::Expr& e, const ExecContext& ctx);

/// Three-valued evaluation over a lane's binding array; exact mirror of
/// the row interpreter's predicate evaluation.
Tri EvalCompiled(const CompiledPred& p, const storage::SlotRef* bound);

/// \brief The WHERE clause as scheduled conjuncts.
///
/// The top-level AND is flattened; each conjunct is checked at plan
/// depths [first_check, last_check], where last_check is the step binding
/// its deepest resolved reference (its value is fixed from there on) and
/// first_check is a safe lower bound on the first depth it can evaluate
/// to a definite false. Checking earlier than the row interpreter would
/// is harmless — lanes are pruned only on definite kFalse, and
/// three-valued evaluation is monotone in bindings — so lower bounds are
/// always safe.
///
/// Conjuncts containing unknown-capable operands can still be kUnknown
/// with every instance bound; those are re-checked at emit time requiring
/// a definite kTrue, mirroring the interpreter's EmitCombination.
class FilterProgram {
 public:
  FilterProgram(const sql::Expr* where, const ExecContext& ctx,
                const std::vector<int>& step_of_instance, int num_steps);

  /// Prune check after binding step `depth`. False = lane rejected.
  bool CheckLane(int depth, const storage::SlotRef* bound) const {
    for (const int ci : by_depth_[depth]) {
      if (EvalCompiled(conjuncts_[ci].pred, bound) == Tri::kFalse) {
        return false;
      }
    }
    return true;
  }

  /// Final check: every emit-check conjunct must be definitively true.
  bool EmitCheck(const storage::SlotRef* bound) const {
    for (const int ci : emit_checks_) {
      if (EvalCompiled(conjuncts_[ci].pred, bound) != Tri::kTrue) {
        return false;
      }
    }
    return true;
  }

  size_t conjunct_count() const { return conjuncts_.size(); }

 private:
  struct Conjunct {
    CompiledPred pred;
    int first_check = 0;
    int last_check = 0;
    bool emit_check = false;
  };
  std::vector<Conjunct> conjuncts_;
  std::vector<std::vector<int>> by_depth_;  // conjunct ids per depth
  std::vector<int> emit_checks_;
};

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_FILTER_H_
