#ifndef AIM_EXECUTOR_METRICS_H_
#define AIM_EXECUTOR_METRICS_H_

#include <cstdint>
#include <vector>

#include "catalog/types.h"

namespace aim::executor {

/// Which execution engine interprets SELECT plans: the vectorized batch
/// engine is the only one. `ctest -L batch` pins it bit-identical in
/// results and metrics to the row-at-a-time interpreter kept in tests/ as
/// its oracle.
enum class EngineKind {
  kBatch = 0,
};

/// Per-operator batch counters (64-bit so 10k-template replays cannot
/// overflow). Filled by the batch engine only; purely observational —
/// deliberately *excluded* from the row-vs-batch bit-identity surface,
/// like tracing spans.
struct OperatorStats {
  uint64_t batches = 0;
  uint64_t rows_in = 0;
  uint64_t rows_out = 0;

  void MergeFrom(const OperatorStats& other) {
    batches += other.batches;
    rows_in += other.rows_in;
    rows_out += other.rows_out;
  }
};

/// \brief Observed (not estimated) metrics of one statement execution —
/// the raw material of the paper's query execution statistics
/// (Sec. III-C): rows read, rows sent, CPU cost.
struct ExecutionMetrics {
  /// Heap rows + index entries touched while locating data.
  uint64_t rows_examined = 0;
  uint64_t index_entries_read = 0;
  uint64_t heap_rows_read = 0;
  /// Random primary-key lookups performed (secondary -> PK hops).
  uint64_t pk_lookups = 0;
  /// Rows returned to the client.
  uint64_t rows_sent = 0;
  /// Rows inserted/updated/deleted (DML).
  uint64_t rows_modified = 0;
  /// Index entries written during DML maintenance.
  uint64_t index_entries_written = 0;
  /// Rows passed through a sort.
  uint64_t rows_sorted = 0;

  /// Accumulated cost units (same currency as the cost model).
  double cost_units = 0.0;
  /// Cost units converted to CPU seconds (incl. IOWAIT), Sec. III-C.
  double cpu_seconds = 0.0;

  /// Indexes actually used by the execution.
  std::vector<catalog::IndexId> used_indexes;

  /// Per-operator aggregation (batch engine; zero on the row path).
  OperatorStats op_scan;
  OperatorStats op_filter;
  OperatorStats op_join;
  OperatorStats op_aggregate;

  /// Discarded-data ratio ingredient: data sent / data read for this
  /// execution (1.0 when nothing was read).
  double SentToReadRatio() const {
    if (rows_examined == 0) return 1.0;
    const double r = static_cast<double>(rows_sent) /
                     static_cast<double>(rows_examined);
    return r > 1.0 ? 1.0 : r;
  }

  void MergeFrom(const ExecutionMetrics& other) {
    rows_examined += other.rows_examined;
    index_entries_read += other.index_entries_read;
    heap_rows_read += other.heap_rows_read;
    pk_lookups += other.pk_lookups;
    rows_sent += other.rows_sent;
    rows_modified += other.rows_modified;
    index_entries_written += other.index_entries_written;
    rows_sorted += other.rows_sorted;
    cost_units += other.cost_units;
    cpu_seconds += other.cpu_seconds;
    used_indexes.insert(used_indexes.end(), other.used_indexes.begin(),
                        other.used_indexes.end());
    op_scan.MergeFrom(other.op_scan);
    op_filter.MergeFrom(other.op_filter);
    op_join.MergeFrom(other.op_join);
    op_aggregate.MergeFrom(other.op_aggregate);
  }
};

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_METRICS_H_
