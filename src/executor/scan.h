#ifndef AIM_EXECUTOR_SCAN_H_
#define AIM_EXECUTOR_SCAN_H_

// The scan operator of the batch engine: access paths compiled into
// static descriptors (StepAccess), and the gather routines that turn a
// descriptor into a column batch of candidate rows.
//
// A step whose index probes depend only on literals — full scans, skip
// scans, index merges, and index steps without join-bound key parts — is
// *lane-invariant*: its production is gathered once per statement and
// replayed for every outer lane (the interpreter re-scans the B+Tree for
// every outer row). Join-bound steps are probed in cross-lane batches by
// the join operator instead.
//
// Every gather preserves the exact visit order and visited counts of the
// interpreter's ScanPrefix/ScanSkip/Scan walks, including tie order of
// duplicate keys (the B+Tree keeps them in insertion order) — the batch
// suite pins results and metrics bit-identical, so order here is a
// correctness property, not a nicety.

#include <optional>
#include <string>
#include <vector>

#include "executor/exec_common.h"
#include "optimizer/plan.h"

namespace aim::executor {

/// One key part of a compiled index probe.
struct KeyPart {
  std::vector<sql::Value> literals;  // literal options (deduped IN list)
  bool join_bound = false;
  int src_instance = -1;  // join-bound: partner instance / column
  catalog::ColumnId src_column = 0;

  size_t option_count() const {
    return join_bound ? 1 : literals.size();
  }
};

/// One arm of an index-merge union, with its static probe list.
struct MergeArm {
  const catalog::IndexDef* index = nullptr;
  const storage::BTreeIndex* btree = nullptr;
  std::vector<std::string> probes;  // encoded, enumeration order
  std::optional<storage::KeyBound> lower;
  std::optional<storage::KeyBound> upper;
};

/// A plan step's access path compiled to static form.
struct StepAccess {
  enum class Kind { kFullScan, kHypoScan, kIndex, kSkipScan, kIndexMerge };

  Kind kind = Kind::kFullScan;
  int instance = 0;
  const storage::HeapTable* heap = nullptr;
  const catalog::IndexDef* index = nullptr;
  const storage::BTreeIndex* btree = nullptr;
  bool covering = false;

  // kIndex:
  std::vector<KeyPart> parts;
  size_t probes_per_lane = 1;  // product of part option counts
  bool lane_invariant = true;  // no join-bound key part

  std::optional<storage::KeyBound> lower;
  std::optional<storage::KeyBound> upper;
  size_t skip_width = 0;  // kSkipScan

  /// kFullScan: heap pages (the interpreter's
  /// max(1, table_bytes / page_size)) for the scan cost formula.
  double pages = 1.0;

  std::vector<MergeArm> arms;  // kIndexMerge, live arms only
};

/// Compiles plan step `step_idx` against the current database state.
/// `step_of_instance` maps instance -> plan step position (-1 = unbound).
StepAccess CompileStepAccess(const ExecContext& ctx,
                             const optimizer::Plan& plan, size_t step_idx,
                             const std::vector<int>& step_of_instance);

/// A gathered production: candidate rows of one step, with the exact
/// visited counts the interpreter's walk would have reported.
struct Production {
  /// Candidate heap rows in interpreter visit order.
  std::vector<const storage::Row*> rows;
  uint64_t visited_total = 0;

  /// kIndex / kSkipScan: per-entry hits aligned with `rows` (IndexHit
  /// carries the cumulative visited count at that entry, for early-stop
  /// accounting) and per-probe spans into them.
  std::vector<storage::IndexHit> hits;
  std::vector<storage::ProbeSpan> spans;

  /// kSkipScan: groups entered up to each hit, and in total.
  std::vector<uint64_t> cum_groups;
  uint64_t groups_total = 0;

  /// kIndexMerge: per-arm probe visited counts (arm-major, probe order).
  std::vector<std::vector<uint64_t>> arm_probe_visited;
};

/// Gathers a lane-invariant step's production. Must not be called for
/// join-bound index steps (their probes vary per lane).
void GatherInvariant(const StepAccess& access, Production* out);

/// Appends the encoded probe prefixes of one lane of a join-bound index
/// step, in the interpreter's enumeration order (first key part slowest).
void BuildLaneProbes(const StepAccess& access,
                     const storage::Row* const* bound,
                     std::vector<std::string>* out);

}  // namespace aim::executor

#endif  // AIM_EXECUTOR_SCAN_H_
