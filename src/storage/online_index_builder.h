#ifndef AIM_STORAGE_ONLINE_INDEX_BUILDER_H_
#define AIM_STORAGE_ONLINE_INDEX_BUILDER_H_

#include <cstdint>
#include <optional>

#include "common/retry.h"
#include "storage/database.h"
#include "storage/index_transaction.h"

namespace aim::storage {

/// Knobs for one online build.
struct OnlineBuildOptions {
  /// The stall bound: under the exclusive latch a swap attempt re-derives
  /// at most this many slots, rounded up to whole heap chunks, and applies
  /// at most this many changed rows. More changed chunks or rows defer
  /// the swap to another catch-up round.
  uint64_t max_swap_tail = 64;
  /// Catch-up rounds before the build gives up with kUnavailable. Bounds
  /// livelock against writers that outpace the builder.
  int max_catchup_rounds = 64;
  /// Backoff for transient (kUnavailable) failures at
  /// `online.delta.apply`: the round resumes at the row it stopped at,
  /// with virtual-clock exponential backoff, before the build aborts.
  RetryOptions retry;
};

/// A starting point for an online build: a copy of the table's heap and
/// the tree built on exactly that copy (a validation clone's tree).
struct OnlineBuildSeed {
  HeapTable heap;
  BTreeIndex tree;
};

/// What one online build did.
struct OnlineBuildReport {
  catalog::IndexId id = catalog::kInvalidIndex;
  /// Live rows of the heap copy the side tree started from.
  uint64_t snapshot_rows = 0;
  /// Rows whose entry changed, applied before the adopting swap: in
  /// catch-up rounds (no latch held) or by swap attempts that deferred.
  uint64_t delta_applied = 0;
  /// Rows whose entry changed, applied by the swap that adopted the tree —
  /// always <= OnlineBuildOptions::max_swap_tail.
  uint64_t swap_tail_applied = 0;
  /// Catch-up rounds run (0 when no DML raced the side build).
  int catchup_rounds = 0;
  /// Wall time the swap that adopted the tree held the exclusive latch.
  /// Also observed into the `online.swap.stall_seconds` histogram.
  double stall_seconds = 0.0;
  /// Retry bookkeeping from the catch-up policy (virtual clock).
  int retry_attempts = 0;
  double retry_backoff_ms = 0.0;
  /// End-to-end wall time of the build (copy → swap), seconds. Feeds the
  /// deployment planner's measured cumulative-benefit curves.
  double build_seconds = 0.0;
};

/// \brief Online index creation under live OLTP traffic (DESIGN.md §9).
///
/// Copies the heap under a shared latch (O(1)) and bulk-builds the
/// side tree from the copy with no latch held, unless given a seed. Each
/// catch-up round copies the heap again and, with no latch held,
/// re-derives every row outside the chunks the two copies share
/// (HeapTable::NextChangedSlot). The swap, the only exclusive hold, counts
/// the chunks the live heap no longer shares with the last copy. Within
/// the `max_swap_tail` bound it diffs them and adopts the tree; past the
/// chunk bound it defers after pointer compares alone, and past the row
/// bound the next round resumes its diff.
///
/// Fault points: `online.snapshot.scan` per side-build entry,
/// `online.delta.apply` per re-derived row (a transient failure resumes
/// at that row under `RetryPolicy`) and `online.swap`. The builder touches
/// the database only in AdoptIndex, which has no failure point, so a
/// failed build leaves it bit-identical. It holds no state across Build
/// calls and may be reused.
class OnlineIndexBuilder {
 public:
  explicit OnlineIndexBuilder(Database* db, OnlineBuildOptions options = {})
      : db_(db), options_(options) {}

  /// Runs the full pipeline for `def` (forced non-hypothetical), from
  /// `seed` when given. When `txn` is non-null the installed index is
  /// recorded there, so a later Rollback drops it together with the rest
  /// of the transaction's changes (the multi-index online apply path).
  Result<OnlineBuildReport> Build(
      catalog::IndexDef def, IndexSetTransaction* txn = nullptr,
      std::optional<OnlineBuildSeed> seed = std::nullopt);

 private:
  Database* db_;
  OnlineBuildOptions options_;
};

}  // namespace aim::storage

#endif  // AIM_STORAGE_ONLINE_INDEX_BUILDER_H_
