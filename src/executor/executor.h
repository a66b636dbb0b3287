#ifndef AIM_EXECUTOR_EXECUTOR_H_
#define AIM_EXECUTOR_EXECUTOR_H_

#include <vector>

#include "common/result.h"
#include "executor/metrics.h"
#include "optimizer/optimizer.h"
#include "storage/database.h"

namespace aim::executor {

/// A query result: output rows (select-list shaped) plus observed metrics.
struct ExecuteResult {
  std::vector<storage::Row> rows;
  ExecutionMetrics metrics;
};

/// Engine selection and tuning knobs.
struct ExecutorOptions {
  /// SELECT engine; the vectorized batch engine is the only one.
  EngineKind engine = EngineKind::kBatch;
};

/// \brief Executes optimizer plans against the storage engine.
///
/// SELECTs run on the vectorized batch engine: it scans heaps in chunk
/// batches, evaluates compiled predicates over the chunks' typed column
/// lanes (DESIGN.md §18), and probes B+Trees with sorted probe batches.
/// Its rows and metrics are bit-identical to the row-at-a-time
/// nested-loop interpreter that the batch suite keeps in tests/ as its
/// oracle; execution cost is counted, not timed, so replay evidence does
/// not depend on the engine's speed. DML locates its rows with the same
/// compiled predicates and mutates through the storage API.
///
/// Statements must be literal (no '?' parameters).
class Executor {
 public:
  Executor(storage::Database* db, optimizer::CostModel cm,
           ExecutorOptions options = {})
      : db_(db), cm_(cm), options_(options) {}

  /// Plans (using only real indexes) and executes.
  Result<ExecuteResult> Execute(const sql::Statement& stmt);

  /// Executes with a caller-provided plan (the plan must have been built
  /// against this database's catalog without hypothetical indexes).
  Result<ExecuteResult> ExecutePlanned(const sql::Statement& stmt,
                                       const optimizer::AnalyzedQuery& query,
                                       const optimizer::Plan& plan);

 private:
  Result<ExecuteResult> ExecuteSelect(const sql::Statement& stmt,
                                      const optimizer::AnalyzedQuery& query,
                                      const optimizer::Plan& plan);
  Result<ExecuteResult> ExecuteDml(const sql::Statement& stmt,
                                   const optimizer::AnalyzedQuery& query,
                                   const optimizer::Plan& plan);

  storage::Database* db_;
  optimizer::CostModel cm_;
  ExecutorOptions options_;
};

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_EXECUTOR_H_
