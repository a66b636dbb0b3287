#ifndef AIM_EXECUTOR_JOIN_H_
#define AIM_EXECUTOR_JOIN_H_

// The batch engine's join pipeline.
//
// Bulk mode (the common case) runs breadth-first: all lanes advance
// through one plan step at a time, which lets join-bound index steps sort
// the whole batch's probe keys once and share B+Tree descents between
// duplicate prefixes. Strict mode (LIMIT without sort/grouping, where the
// interpreter stops mid-scan) degenerates to capacity-1 batches — an
// exact depth-first walk — so early-stop metrics stay identical.
//
// Bit-identity with the interpreter rests on two invariants maintained
// here: (1) lanes are produced and emitted in depth-first order, and
// (2) every cost-slot double add is replayed per lane in the same
// per-step sequence the interpreter performs (see exec_common.h).

#include <optional>
#include <vector>

#include "executor/aggregate.h"
#include "executor/batch.h"
#include "executor/exec_common.h"
#include "executor/filter.h"
#include "executor/scan.h"
#include "optimizer/plan.h"

namespace aim::executor {

class BatchEngine {
 public:
  BatchEngine(ExecContext* ctx, const optimizer::Plan& plan,
              const FilterProgram* filter, SelectSink* sink,
              std::vector<int> step_of_instance);

  void Run();

 private:
  const StepAccess& Access(size_t s);
  const Production& Invariant(size_t s);

  /// max(1, n) * descent * random_page / 4 with the interpreter's exact
  /// association.
  double DescentCost(uint64_t n) const;

  // --- bulk (breadth-first) path ---
  void RunBulk();
  /// Produces depth `s` children of `cur` with per-lane accounting
  /// replay, and appends those the filter program keeps at depth `s` to
  /// `next`.
  void ProduceBulk(size_t s, const LaneBuffer& cur, LaneBuffer* next);
  void ReplayInvariantLane(size_t s, const StepAccess& a,
                           const Production& p);

  // --- strict (early-stop, depth-first) path ---
  bool StrictStep(size_t s, storage::SlotRef* bound);
  bool EmitLane(const storage::SlotRef* bound);

  ExecContext* ctx_;
  const optimizer::Plan& plan_;
  const FilterProgram* filter_;
  SelectSink* sink_;
  std::vector<int> step_of_instance_;
  size_t num_instances_;

  std::vector<std::optional<StepAccess>> accesses_;
  std::vector<std::optional<Production>> invariants_;

  // Cost constants, interpreter-identical.
  double c_entry_ = 0.0;  // cpu_index_entry_cost
  double c_fetch_ = 0.0;  // random_page_cost + cpu_row_cost
};

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_JOIN_H_
