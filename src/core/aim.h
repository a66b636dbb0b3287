#ifndef AIM_CORE_AIM_H_
#define AIM_CORE_AIM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/candidate_cache.h"
#include "core/candidate_generation.h"
#include "core/clone_validation.h"
#include "core/deployment_plan.h"
#include "core/explain.h"
#include "core/exploration.h"
#include "core/merge.h"
#include "core/ranking.h"
#include "core/workload_selection.h"
#include "storage/database.h"
#include "storage/online_index_builder.h"
#include "workload/compression.h"

namespace aim::core {

/// End-to-end configuration of one AIM run (Algorithm 1).
struct AimOptions {
  CandidateGenOptions candidates;
  WorkloadSelectionOptions selection;
  RankingOptions ranking;
  CloneValidationOptions validation;
  MergeOptions merge;
  /// Materialize-and-replay validation on a clone before recommending
  /// (line 3 of Algorithm 1). Disable for estimate-only benchmarks.
  bool validate_on_clone = true;
  /// Two-phase generation (Sec. III-B): first narrow indexes for every
  /// inefficient query, then covering indexes where the seek volume
  /// justifies them.
  bool two_phase = true;
  /// Worker threads of the parallel what-if engine. 1 = the serial
  /// fallback (no pool, no worker clones). The pipeline is deterministic:
  /// any value produces bit-identical reports.
  int num_threads = 1;
  /// Capacity (entries) of the memoizing plan-cost cache shared by all
  /// what-if clones of one run. 0 disables memoization entirely — the
  /// pre-cache engine, kept for A/B benchmarking.
  size_t what_if_cache_entries = 4096;
  /// Replay dedup in clone validation rides the same switch as the
  /// plan-cost cache: with memoization off the engine behaves exactly like
  /// the pre-cache one.
  bool dedup_replay() const { return what_if_cache_entries > 0; }
  /// Build knobs for the online apply path (ignored when
  /// `TuningResources::online_apply_db` is null).
  storage::OnlineBuildOptions online;
  /// Workload compression (the CoPhy-style pre-pass): cluster the
  /// interval's statements into templates / structural clusters and run
  /// selection → candidate generation → ranking on weighted cluster
  /// representatives, with per-cluster frequency roll-up. Off by default.
  workload::WorkloadCompressionOptions compression;
  /// Ordered per-step deployment of the approved set (Kimura et al.).
  /// `deployment.ordered = false` keeps the classic all-or-nothing
  /// single-transaction apply.
  DeploymentOptions deployment;
};

/// Borrowed resources one AutomaticIndexManager runs with. Every pointer
/// is owned by the caller, must outlive the manager, and may be null;
/// lifetime and invalidation are the owner's job.
struct TuningResources {
  /// Worker pool to fan out on instead of a private one
  /// (`AimOptions::num_threads` is then ignored for pool sizing). This is
  /// how the fleet tuner runs many tenants' inner what-if work, and the
  /// sharded manager its per-shard work, on one shared pool: inner tasks
  /// are queued one nesting level deeper than the outer tasks, and waiting
  /// tasks help drain deeper work, so two-level fan-out on a single
  /// fixed-size pool cannot deadlock (see common::ThreadPool). Null = a
  /// private pool built with the manager.
  common::ThreadPool* shared_pool = nullptr;
  /// Plan-cost cache to use instead of a per-run one. This is how the
  /// continuous tuner carries warm entries across intervals; the advisor
  /// never clears it. Null = per-run cache of
  /// `AimOptions::what_if_cache_entries`.
  optimizer::WhatIfCache* shared_cache = nullptr;
  /// Online-apply target. When set, RunOnce's apply phase installs the
  /// accepted indexes on *this* database through OnlineIndexBuilder
  /// (side build or validated tree, chunk-diff catch-up, bounded-stall
  /// swap under its latch()) instead of blocking CreateIndex on `db`. This
  /// is how the continuous tuner plans on a quiesced snapshot while
  /// installing on the live, traffic-bearing database. Null = classic
  /// blocking apply on `db`.
  storage::Database* online_apply_db = nullptr;
  /// Per-cluster candidate cache — how the continuous tuner makes
  /// candidate generation incremental across intervals. Keys embed the
  /// statement, configuration, schema/stats, and option fingerprints, so
  /// a hit is exactly what recomputation would produce; drifted or new
  /// clusters miss and recompute (the LRU ages stale keys out). Null =
  /// recompute every cluster.
  CandidateCache* candidate_cache = nullptr;
  /// Exploration gate (bandit admission + quarantine). When set,
  /// Recommend excludes quarantined candidates and RunOnce gates the
  /// validated set through `Admit` before applying. Null = no gating. The
  /// gate is mutated only from RunOnce's serial sections, so the owner
  /// (the continuous tuner) needs no locking.
  ExplorationGate* exploration_gate = nullptr;
};

/// Run statistics, for the runtime comparisons of Fig. 4.
struct AimRunStats {
  double runtime_seconds = 0.0;
  uint64_t what_if_calls = 0;
  size_t queries_selected = 0;
  size_t partial_orders_generated = 0;
  size_t partial_orders_after_merge = 0;
  size_t candidates_evaluated = 0;
  size_t indexes_recommended = 0;
  size_t indexes_rejected_by_validation = 0;
  /// Applied indexes installed from the test clone's B+Tree instead of a
  /// fresh build: adopted as is, or caught up online on an online-apply
  /// target.
  size_t indexes_adopted = 0;
  /// Plan-cost cache activity attributable to this run (zeros when
  /// disabled). With a shared cache these are deltas against the counters
  /// at run start, so carried-over caches don't double-count prior runs.
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_evictions = 0;
  /// Ready cache entries visible when the run started. Non-zero means a
  /// warm start: entries carried over from an earlier interval or loaded
  /// from a persisted snapshot.
  size_t cache_entries_at_start = 0;
  bool cache_warm_start = false;
  /// Per-phase wall-time breakdown, seconds (where a Fig. 4-style bench's
  /// time actually goes). selection + candgen + ranking sum to Recommend;
  /// validation + apply are the extra RunOnce phases.
  double selection_seconds = 0.0;
  double candgen_seconds = 0.0;
  double ranking_seconds = 0.0;
  /// The partial-order merge to a fixpoint (Algorithm 2 line 6), inside
  /// ranking_seconds.
  double merge_seconds = 0.0;
  double validation_seconds = 0.0;
  double apply_seconds = 0.0;
  /// Sharded-run extras (zero outside ShardedIndexManager): wall time of
  /// the per-shard validation fan-out and of the all-shard apply.
  double shard_validation_seconds = 0.0;
  double shard_apply_seconds = 0.0;
  /// Online-apply extras (zero on the blocking path): indexes installed
  /// through OnlineIndexBuilder, changed rows applied across those
  /// builds, and the worst exclusive swap stall.
  size_t online_builds = 0;
  uint64_t online_delta_applied = 0;
  double online_max_stall_seconds = 0.0;
  /// Workload-compression activity (identity values when disabled).
  uint64_t compression_statements_in = 0;
  size_t compression_clusters = 0;
  double compression_ratio = 1.0;
  double compression_seconds = 0.0;
  /// Incremental candidate generation (zeros without a candidate cache).
  /// One "cluster" per selected query per generation pass; reused =
  /// served from the carried cache, recomputed = generated this run.
  size_t candgen_clusters_total = 0;
  size_t candgen_clusters_reused = 0;
  size_t candgen_clusters_recomputed = 0;

  double candgen_reuse_rate() const {
    return candgen_clusters_total == 0
               ? 0.0
               : static_cast<double>(candgen_clusters_reused) /
                     static_cast<double>(candgen_clusters_total);
  }

  double cache_hit_rate() const {
    const double total = static_cast<double>(cache_hits + cache_misses);
    return total > 0.0 ? static_cast<double>(cache_hits) / total : 0.0;
  }
};

/// The outcome of one AIM run.
struct AimReport {
  std::vector<CandidateIndex> recommended;
  std::vector<std::string> explanations;
  std::vector<SelectedQuery> selected_workload;
  CloneValidationResult validation;
  AimRunStats stats;
  /// Bandit-gate admission summary (zeros unless an exploration gate was
  /// configured for the run).
  ExplorationSummary exploration;
  /// Ordered-deployment outcome (zeros unless `deployment.ordered`).
  DeploymentReport deployment;
  /// The compressed workload the run planned on (null when compression is
  /// off). Shared ownership keeps the representative queries that
  /// `selected_workload` points at alive across report copies/moves.
  std::shared_ptr<const workload::CompressedWorkload> compressed;
};

/// Installs one accepted index through `txn` as a production index tagged
/// `created_by_automation`. The test clone's tree in `trees` is used when
/// the heap of `db` (the database it was validated on) still carries its
/// stamp (counted in `stats->indexes_adopted`): an online build when there
/// is an online-apply target (`online`) starts from it, else `txn` adopts
/// it. Otherwise the online build or a create with `retry` builds the
/// index. An index that already exists counts as installed. The one
/// install step of the classic, ordered and sharded apply.
Status InstallIndex(catalog::IndexDef def, storage::Database* db,
                    storage::OnlineIndexBuilder* online, RetryPolicy* retry,
                    std::vector<ValidatedTree>* trees,
                    storage::IndexSetTransaction* txn, AimRunStats* stats);

/// \brief AIM — the Automatic Index Manager (Algorithm 1).
///
/// Typical use:
/// \code
///   AutomaticIndexManager aim(&db, optimizer::CostModel(), options);
///   AIM_ASSIGN_OR_RETURN(AimReport report, aim.RunOnce(workload, &mon));
/// \endcode
///
/// `Recommend` computes (but does not apply) the recommendation;
/// `RunOnce` additionally validates on a clone and materializes the
/// accepted indexes on the production database, tagged
/// `created_by_automation` for the regression detector.
class AutomaticIndexManager {
 public:
  AutomaticIndexManager(storage::Database* db, optimizer::CostModel cm,
                        AimOptions options = {},
                        TuningResources resources = {})
      : db_(db),
        cm_(cm),
        options_(options),
        resources_(resources),
        pool_(resources.shared_pool == nullptr && options.num_threads > 1
                  ? std::make_unique<common::ThreadPool>(options.num_threads)
                  : nullptr) {}

  /// Lines 1–2 + ranking of Algorithm 1 (no materialization). `monitor`
  /// may be null for pure bootstrap (weights drive the selection).
  Result<AimReport> Recommend(const workload::Workload& workload,
                              const workload::WorkloadMonitor* monitor);

  /// Full Algorithm 1: recommend, validate on a clone, materialize the
  /// survivors on the production database.
  Result<AimReport> RunOnce(const workload::Workload& workload,
                            const workload::WorkloadMonitor* monitor);

  const AimOptions& options() const { return options_; }

 private:
  /// Wraps every workload query as a SelectedQuery when no monitor data
  /// exists (static tuning / bootstrapping, Sec. II-A).
  std::vector<SelectedQuery> SelectQueries(
      const workload::Workload& workload,
      const workload::WorkloadMonitor* monitor) const;

  /// The shared pool when one was handed in, else the private pool built
  /// at construction; nullptr in serial mode.
  common::ThreadPool* pool() const {
    return resources_.shared_pool != nullptr ? resources_.shared_pool
                                             : pool_.get();
  }

  /// The ordered apply path (`options_.deployment.ordered`): plans the
  /// build order via DeploymentPlanner, then installs each step in its
  /// own IndexSetTransaction — a failed step rolls back only itself,
  /// earlier installs stay (each index was individually validated).
  /// Steps adopt the test clone's `trees` like the classic apply.
  /// `report->recommended` is rewritten to the installed subset.
  Status ApplyOrdered(std::vector<ValidatedTree>* trees, AimReport* report);

  storage::Database* db_;
  optimizer::CostModel cm_;
  AimOptions options_;
  TuningResources resources_;
  std::unique_ptr<common::ThreadPool> pool_;
};

}  // namespace aim::core

#endif  // AIM_CORE_AIM_H_
