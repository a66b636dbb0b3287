#ifndef AIM_CORE_CLONE_VALIDATION_H_
#define AIM_CORE_CLONE_VALIDATION_H_

#include <vector>

#include "common/retry.h"
#include "common/thread_pool.h"
#include "core/ranking.h"
#include "executor/metrics.h"
#include "storage/database.h"

namespace aim::core {

/// Validation knobs (λ₂ / λ₃ of the continuous tuning problem, Sec. II-B).
struct CloneValidationOptions {
  /// Required relative improvement for "at least one query improved"
  /// (Eq. 3).
  double lambda2 = 0.05;
  /// Maximum tolerated per-query regression (Eq. 4).
  double lambda3 = 0.20;
  /// Maximum tolerated fraction of replayed executions that fail. Above
  /// this the clone's evidence is considered unreliable: the whole
  /// candidate set is rejected and production stays unchanged (the
  /// conservative reading of the no-regression guarantee).
  double max_replay_failure_rate = 0.1;
  /// Retry knobs for transient failures while materializing candidates on
  /// the test clone.
  RetryOptions retry;
  /// SELECT engine used for the before/after replay. The vectorized batch
  /// engine (default) and the row interpreter produce bit-identical rows
  /// and metrics; the knob exists so the equivalence suite can pin whole
  /// validation pipelines against each other.
  executor::EngineKind replay_engine = executor::EngineKind::kBatch;
};

/// Per-query before/after record from the clone replay.
struct QueryValidation {
  uint64_t fingerprint = 0;
  double cpu_before = 0.0;
  double cpu_after = 0.0;
  bool regressed = false;
  bool improved = false;
};

/// The test clone's B+Tree for one accepted index, with the stamp its
/// table's heap carried when the replay ended. Production adopts the tree
/// instead of building the index again when its own heap still carries
/// that stamp (storage::HeapTable::stamp): the clone was a copy of
/// production, so equal stamps mean equal rows under equal row ids.
struct ValidatedTree {
  catalog::TableId table = catalog::kInvalidTable;
  std::vector<catalog::ColumnId> columns;
  uint64_t heap_stamp = 0;
  storage::BTreeIndex tree;
};

/// Outcome of materialize-and-replay validation.
struct CloneValidationResult {
  std::vector<CandidateIndex> accepted;
  /// One tree per accepted index the test clone materialized, in accepted
  /// order. Large: the apply moves them out and adopts them (InstallIndex)
  /// rather than copy the result around.
  std::vector<ValidatedTree> trees;
  std::vector<CandidateIndex> rejected_unused;
  /// True when Eq. 3 holds (some query improved by ≥ λ₂).
  bool any_query_improved = false;
  /// True when Eq. 4 held for every query (after rejections).
  bool no_regressions = true;
  std::vector<QueryValidation> per_query;
  /// Before/after executions that completed on both clones.
  size_t executed = 0;
  /// Executions that failed on either clone (these queries contribute no
  /// before/after evidence).
  size_t failed = 0;
  /// False when the replay failure rate exceeded
  /// `max_replay_failure_rate`; every candidate was rejected.
  bool replay_reliable = true;
};

/// \brief Line 3 of Algorithm 1: materializes the selected candidates on a
/// *clone* of the database (the MyShadow contract, Sec. VII-B), replays
/// the workload, and keeps only indexes the optimizer actually uses
/// without regressing any query beyond λ₃ — the paper's "no regression"
/// guarantee for production.
///
/// Candidate materialization on the test clone batches all B+Tree builds
/// through `storage::Database::CreateIndexes`, fanning the heap scans over
/// `pool` while keeping catalog registration and adoption serial in
/// candidate order — ids and outcomes match the serial build exactly. The
/// whole clone-materialize-and-replay block sits behind the `core.clone`
/// fault point: an injected clone loss fails this validation, which
/// callers must treat as "reject the candidates", never as corrupted
/// production state.
///
/// The replay fans out over `pool` in DML-delimited segments: runs of
/// consecutive SELECTs execute concurrently (the executor's read path
/// never mutates the clone), every DML statement is a barrier executed
/// serially at its workload position, and the before/after evidence is
/// always accumulated serially in workload order. The result is therefore
/// bit-identical to the serial replay (`pool == nullptr`). The control
/// clone is copied and replays the whole workload, and is destroyed before
/// the test clone is copied, so the two copies never coexist; each sees
/// the same statement sequence as in an interleaved replay. Each step is a
/// PhaseTimer: `validation.clone` (once per clone),
/// `validation.control_replay`, `validation.build`, `validation.test_replay`.
///
/// With `dedup_replay`, each distinct statement executes once per DML-free
/// replay segment and its duplicates share the outcome (multi-stream
/// workloads repeat statements verbatim). Sound because the executor is
/// deterministic and the clone state only changes at DML barriers; every
/// duplicate still contributes its own per-query validation record. The
/// advisor turns it on with the what-if plan-cost cache
/// (AimOptions::dedup_replay).
///
/// Candidates no query plan uses on the test clone are rejected
/// (`rejected_unused`). The accepted indexes' trees leave with the result
/// (`trees`), together with the test clone's heap stamps, so that
/// production can adopt rather than rebuild them.
Result<CloneValidationResult> ValidateOnClone(
    const storage::Database& production,
    const std::vector<CandidateIndex>& selected,
    const std::vector<SelectedQuery>& queries, optimizer::CostModel cm,
    const CloneValidationOptions& options = {},
    common::ThreadPool* pool = nullptr, bool dedup_replay = false);

}  // namespace aim::core

#endif  // AIM_CORE_CLONE_VALIDATION_H_
