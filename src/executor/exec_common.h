#ifndef AIM_EXECUTOR_EXEC_COMMON_H_
#define AIM_EXECUTOR_EXEC_COMMON_H_

// Shared execution machinery of the batch engine and the DML path (and of
// the row-at-a-time interpreter the batch suite keeps as its oracle): the
// column-resolution and accounting context, the key-part helpers that
// turn predicates into index probes, and the per-step cost accumulators.
//
// The per-step accumulators exist for bit-identity: the batch engine and
// the depth-first interpreter add the same per-entry cost constants in
// the same per-step order, but the batch pipeline interleaves *across*
// steps differently. Folding one double accumulator per plan step (plus a
// tail slot for sort/maintenance) in fixed step order at finalize makes
// the floating-point addition sequence — and therefore cost_units and
// cpu_seconds down to the last bit — independent of the engine.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "executor/metrics.h"
#include "optimizer/cost_model.h"
#include "optimizer/predicate.h"
#include "sql/ast.h"
#include "storage/database.h"

namespace aim::executor {

/// SQL LIKE matcher ('%' = any run, '_' = any one char).
bool LikeMatch(std::string_view text, std::string_view pattern,
               size_t ti = 0, size_t pi = 0);

/// Successor of a string prefix for LIKE 'p%' range scans.
std::string PrefixSuccessor(std::string prefix);

/// Execution context: column resolution + accounting.
class ExecContext {
 public:
  /// `num_steps` sizes the per-step cost/used-index slots (pass
  /// max(1, plan.steps.size()); DML uses slot 0 + the tail).
  ExecContext(storage::Database* db, const optimizer::AnalyzedQuery* query,
              const optimizer::CostModel* cm, size_t num_steps)
      : db_(db),
        query_(query),
        cm_(cm),
        step_cost_(num_steps, 0.0),
        step_used_(num_steps) {}

  storage::Database* db() const { return db_; }
  const optimizer::AnalyzedQuery& query() const { return *query_; }
  const optimizer::CostModel& cm() const { return *cm_; }
  size_t num_instances() const { return query_->instances.size(); }

  /// Resolves a column expression to (instance, column).
  std::optional<optimizer::BoundColumn> Resolve(const sql::Expr& col) const;

  /// \name Cost / used-index accumulation (see file comment).
  /// @{
  void AddStepCost(size_t step, double c) { step_cost_[step] += c; }
  void AddTailCost(double c) { tail_cost_ += c; }
  void UseIndex(size_t step, catalog::IndexId id) {
    step_used_[step].push_back(id);
  }
  /// Folds the slots into metrics.cost_units / metrics.used_indexes in
  /// plan-step order (tail last) and derives cpu_seconds. Call once, at
  /// the end of execution.
  void FinalizeCost();
  /// @}

  ExecutionMetrics metrics;

 private:
  storage::Database* db_;
  const optimizer::AnalyzedQuery* query_;
  const optimizer::CostModel* cm_;
  std::vector<double> step_cost_;
  double tail_cost_ = 0.0;
  std::vector<std::vector<catalog::IndexId>> step_used_;
};

/// Finds the literal values available for an eq-prefix key part, or an
/// empty vector when the part is only join-bound / unavailable.
std::vector<sql::Value> LiteralOptionsFor(
    const optimizer::AnalyzedQuery& query, int instance,
    catalog::ColumnId column);

/// The join edge a key part would be bound through, resolved statically:
/// the first edge (in query.joins order) matching (instance, column)
/// whose partner instance is produced by an earlier plan step (the row
/// interpreter searches the same edges at run time).
/// Returns false when no such edge exists.
bool StaticJoinSource(const optimizer::AnalyzedQuery& query,
                      const std::vector<int>& step_of_instance,
                      int instance, catalog::ColumnId column, int this_step,
                      int* src_instance, catalog::ColumnId* src_column);

/// Range bound for the key part after the prefix, from literal range /
/// LIKE-prefix predicates.
void RangeBoundsFor(const optimizer::AnalyzedQuery& query, int instance,
                    catalog::ColumnId column,
                    std::optional<storage::KeyBound>* lower,
                    std::optional<storage::KeyBound>* upper);

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_EXEC_COMMON_H_
