#ifndef AIM_CORE_SHARDING_H_
#define AIM_CORE_SHARDING_H_

#include <memory>
#include <vector>

#include "core/aim.h"

namespace aim::core {

/// One shard of a horizontally partitioned database. All shards share the
/// same schema and — by deployment mandate — the same physical design
/// (Sec. VIII-b).
struct Shard {
  storage::Database* db = nullptr;
  /// The shard's own observed statistics (may be null in bootstrap mode).
  const workload::WorkloadMonitor* monitor = nullptr;
};

struct ShardedOptions {
  AimOptions aim;
  /// Validate candidates on a clone of *every* shard before accepting
  /// (the paper's "comprehensive validation" knob for performance
  /// sensitive databases); otherwise only the first shard is validated.
  bool comprehensive_validation = false;
};

/// Per-shard validation outcome.
struct ShardValidation {
  size_t shard = 0;
  CloneValidationResult result;
  /// Non-OK when this shard's validation never completed — its clone was
  /// lost mid-materialization or mid-replay (`core.clone`,
  /// `shard.validate`). `result` is then empty and the shard counts as a
  /// veto: a shard we could not validate is a shard we must assume would
  /// regress.
  Status error = Status::OK();
};

struct ShardedReport {
  AimReport aim;
  std::vector<ShardValidation> validations;
  /// Candidates rejected because some shard regressed or never used them.
  std::vector<CandidateIndex> rejected_by_shards;
  /// Shards whose validation failed outright (see ShardValidation::error).
  size_t shards_lost = 0;
  /// True when at least one shard was lost: the run completed and
  /// production is untouched, but the rejection decision was made on
  /// degraded evidence rather than a full validation.
  bool degraded = false;
};

/// \brief Index management for sharded deployments (Sec. VIII-b).
///
/// The economics differ from a single database: statistics are aggregated
/// across shards (a hot query may run on few shards), but *every* shard
/// pays the storage and maintenance cost of every index. The ranking
/// therefore multiplies maintenance and storage by the shard count while
/// benefits come from the aggregated statistics.
///
/// With `aim.num_threads > 1`, RunOnce fans per-shard clone validation
/// and the per-shard apply transactions over the manager's worker pool,
/// the same pool the inner AutomaticIndexManager and every validation's
/// replay fan out on (nested fan-out on one pool is deadlock-free, see
/// common::ThreadPool). Validation outcomes land in per-shard slots and
/// every decision — the used-on-some-shard set, the regression veto, the
/// rejection list, the adoption count — is folded serially in shard order,
/// so the report is bit-identical to a serial run at any thread count.
/// Each shard installs the survivors through InstallIndex, adopting its
/// own test clone's trees where it validated.
///
/// A shard lost mid-validation (fault points `shard.validate` and
/// `core.clone`) degrades the run instead of failing it:
/// the lost shard vetoes the candidate set (all candidates land in
/// `rejected_by_shards`), production stays untouched, and the report
/// carries `degraded` / `shards_lost` so operators can distinguish "no
/// useful index" from "no usable evidence".
class ShardedIndexManager {
 public:
  explicit ShardedIndexManager(ShardedOptions options = {})
      : options_(options),
        pool_(options.aim.num_threads > 1
                  ? std::make_unique<common::ThreadPool>(
                        options.aim.num_threads)
                  : nullptr) {}

  /// Recommends one shared physical design for all shards.
  Result<ShardedReport> Recommend(const workload::Workload& workload,
                                  const std::vector<Shard>& shards,
                                  optimizer::CostModel cm);

  /// Recommends, validates per shard, and materializes the survivors on
  /// every shard (the common physical design mandate).
  Result<ShardedReport> RunOnce(const workload::Workload& workload,
                                const std::vector<Shard>& shards,
                                optimizer::CostModel cm);

 private:
  ShardedOptions options_;
  /// Built once for the manager's life; nullptr in serial mode.
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace aim::core

#endif  // AIM_CORE_SHARDING_H_
