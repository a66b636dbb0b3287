#ifndef AIM_EXECUTOR_AGGREGATE_H_
#define AIM_EXECUTOR_AGGREGATE_H_

// The SELECT output sink: projection, grouping/aggregation, ordering and
// LIMIT. The batch engine emits surviving join combinations (lane binding
// arrays in, final result rows out); values are read as storage::ValueView
// off the bound chunks' column lanes and become sql::Value only in result
// rows. Groups are keyed by their encoded key bytes (storage::AppendKeyPart),
// whose byte order is RowLess order (row.h), so groups come out in the
// order the row interpreter's std::map<Row, RowLess> sink produces.

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "executor/filter.h"
#include "optimizer/plan.h"

namespace aim::executor {

/// Aggregate accumulator. MIN/MAX hold views into the bound chunks (or
/// a compiled literal), which stay unchanged while the statement runs.
struct AggState {
  double sum = 0.0;
  uint64_t count = 0;
  bool has_minmax = false;
  storage::ValueView min;
  storage::ValueView max;

  /// Folds in `v`; `min_max` tracks MIN/MAX too (only they read them).
  void Add(const storage::ValueView& v, bool min_max) {
    if (v.is_null()) return;
    ++count;
    if (v.is_number()) sum += v.AsDouble();
    if (!min_max) return;
    if (!has_minmax) {
      min = max = v;
      has_minmax = true;
    } else {
      if (v.Compare(min) < 0) min = v;
      if (v.Compare(max) > 0) max = v;
    }
  }

  sql::Value Final(sql::AggFunc func) const;
};

/// \brief Output sink for SELECT execution.
///
/// Emit() consumes one join combination (a binding array indexed by
/// instance) and returns false when the whole execution can stop (LIMIT
/// reached with no sort/grouping pending). Finalize() produces the result
/// rows and accounts sort work into the context's tail cost slot.
class SelectSink {
 public:
  SelectSink(const sql::SelectStatement& select,
             const optimizer::AnalyzedQuery& query,
             const optimizer::Plan& plan, ExecContext* ctx);

  bool can_stop_early() const { return can_stop_early_; }
  int64_t limit() const { return limit_; }
  uint64_t rows_emitted() const { return rows_emitted_; }

  /// Feeds one combination; false = stop execution (early LIMIT).
  bool Emit(const storage::SlotRef* bound);

  /// Grouping/sort/limit finalization; appends output rows to `out`.
  void Finalize(std::vector<storage::Row>* out);

 private:
  struct Item {
    enum class Kind { kStar, kAggregate, kValue };
    Kind kind = Kind::kValue;
    sql::AggFunc agg = sql::AggFunc::kNone;
    bool count_star = false;  // COUNT(*) / argless aggregate
    bool min_max = false;     // MIN or MAX
    CompiledValue value;      // kValue projection or aggregate argument
  };

  storage::Row Project(const storage::SlotRef* bound) const;

  ExecContext* ctx_;
  const sql::SelectStatement& select_;
  size_t num_instances_;
  bool grouped_ = false;
  bool needs_sort_ = false;
  int64_t limit_ = -1;
  bool can_stop_early_ = false;

  std::vector<Item> items_;
  std::vector<CompiledValue> order_exprs_;
  std::vector<bool> order_asc_;
  std::vector<CompiledValue> group_exprs_;

  struct Group {
    std::vector<AggState> states;  // one per select item
    storage::Row first_values;     // the group's first projected row
  };
  // Encoded group key -> group, in key (= RowLess) order.
  std::map<std::string, Group> groups_;
  std::string key_;  // Emit's scratch key
  std::vector<std::pair<storage::Row, storage::Row>>
      ungrouped_;  // (sort key, output row)
  int64_t emitted_ = 0;
  uint64_t rows_emitted_ = 0;
};

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_AGGREGATE_H_
