#ifndef AIM_TESTS_ROW_ORACLE_H_
#define AIM_TESTS_ROW_ORACLE_H_

// The row-at-a-time nested-loop interpreter: the differential oracle of
// the batch executor.
//
// It runs no production path. It is the engine the batch engine started
// from, kept here so `ctest -L batch` (and the equivalence and tracing
// suites) can pin the batch engine bit-identical to an implementation
// that shares none of its lane code: the interpreter reads rows of Values
// that it builds from the heap (HeapTable::row), evaluates the WHERE by
// name resolution per row, groups through a std::map<Row, RowLess> and
// charges cost through the same per-step ExecContext slots. DML has one
// path, executor::Executor's, which the oracle calls.
//
// bench_executor times it as the `row` side of `executor_batch`. The
// oracle builds a table's rows once and again only after the heap is
// mutated, so a replay binds one stored row per visited row id, as the
// interpreter did when heaps stored rows of Values.

#include <map>
#include <vector>

#include "common/result.h"
#include "core/aim.h"
#include "core/clone_validation.h"
#include "executor/executor.h"

namespace aim::testing {

/// Executes literal statements the way executor::Executor does (plan with
/// real indexes only, same ExecutionMetrics), SELECTs on the row
/// interpreter. Per-operator batch counters stay zero and the
/// `executor.*` trace spans and counters are not touched.
class RowOracle {
 public:
  RowOracle(storage::Database* db, optimizer::CostModel cm)
      : db_(db), cm_(cm) {}

  Result<executor::ExecuteResult> Execute(const sql::Statement& stmt);

 private:
  /// One table's rows as the interpreter reads them: `rows[rid]` is the
  /// row at `rid` (empty when tombstoned), built at heap stamp `stamp`.
  struct TableRows {
    bool built = false;
    uint64_t stamp = 0;
    std::vector<storage::Row> rows;
  };

  /// The rows of `table`, rebuilt when its heap was mutated since.
  const std::vector<storage::Row>& Rows(catalog::TableId table);

  storage::Database* db_;
  optimizer::CostModel cm_;
  std::map<catalog::TableId, TableRows> rows_;
};

/// Checks core::ValidateOnClone's replay against the oracle: on a control
/// clone of `production` and on a test clone with the `selected` indexes
/// built, replays `queries` in order, each SELECT executed by both the
/// oracle and executor::Executor (DML by the executor, once). Fails with
/// the first query whose ExecutionMetrics (per-operator counters aside)
/// or status differ between the two engines.
Status CheckReplay(const storage::Database& production,
                   const std::vector<core::CandidateIndex>& selected,
                   const std::vector<core::SelectedQuery>& queries,
                   optimizer::CostModel cm);

/// AutomaticIndexManager::RunOnce on `db`, after CheckReplay on the
/// recommendation a copy of `db` makes and the workload it validates
/// with: the replay that decides the run's verdict is checked statement
/// by statement against the oracle, and a mismatch is the returned error.
Result<core::AimReport> OracleRunOnce(storage::Database* db,
                                      const workload::Workload& workload,
                                      optimizer::CostModel cm,
                                      const core::AimOptions& options);

}  // namespace aim::testing

#endif  // AIM_TESTS_ROW_ORACLE_H_
