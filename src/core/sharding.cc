#include "core/sharding.h"

#include <memory>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "storage/index_transaction.h"

namespace aim::core {

Result<ShardedReport> ShardedIndexManager::Recommend(
    const workload::Workload& workload, const std::vector<Shard>& shards,
    optimizer::CostModel cm) {
  ShardedReport report;
  if (shards.empty() || shards[0].db == nullptr) {
    return Status::InvalidArgument("no shards");
  }

  // Holistic statistics: the cross-shard aggregate (the stats pipeline of
  // Sec. VII-A feeds exactly this view).
  workload::WorkloadMonitor aggregate;
  bool any_stats = false;
  for (const Shard& s : shards) {
    if (s.monitor != nullptr) {
      aggregate.MergeFrom(*s.monitor);
      any_stats = true;
    }
  }

  AimOptions aim_options = options_.aim;
  aim_options.validate_on_clone = false;  // validation handled per shard
  // Sharded economics: every shard stores every index, so a candidate's
  // effective storage is its size times the shard count, while its
  // benefit comes from the aggregated statistics.
  aim_options.ranking.storage_replication_factor =
      static_cast<double>(shards.size());
  TuningResources resources;
  resources.shared_pool = pool_.get();
  AutomaticIndexManager aim(shards[0].db, cm, aim_options, resources);
  AIM_ASSIGN_OR_RETURN(report.aim,
                       aim.Recommend(workload,
                                     any_stats ? &aggregate : nullptr));
  return report;
}

Result<ShardedReport> ShardedIndexManager::RunOnce(
    const workload::Workload& workload, const std::vector<Shard>& shards,
    optimizer::CostModel cm) {
  obs::Span run_span(obs::Tracer::Get(), "sharded.run_once");
  run_span.SetAttr("shards", shards.size());
  AIM_ASSIGN_OR_RETURN(ShardedReport report,
                       Recommend(workload, shards, cm));
  if (report.aim.recommended.empty()) return report;

  // Per-shard clone validation: an index survives only if it is actually
  // used on at least one validated shard and no validated shard regresses
  // while the candidates are installed. Query regressions confined to a
  // subset of shards are invisible in aggregate statistics — hence the
  // `comprehensive_validation` knob for performance-sensitive databases
  // (Sec. VIII-b); the rest of the fleet relies on the continuous
  // regression detector to revert bad changes after the fact.
  const size_t shards_to_validate =
      options_.comprehensive_validation ? shards.size() : 1;
  common::ThreadPool* const pool = pool_.get();

  // Fan the clone validations out over the pool, one slot per shard. Each
  // validation fans its replay and builds out over the same pool: a shard
  // task waiting on them helps run them (common::ThreadPool), so the
  // nested fan-out cannot deadlock.
  obs::PhaseTimer validate_timer(
      "sharded.validation",
      &report.aim.stats.shard_validation_seconds);
  // Workers attach their per-shard spans under the validation phase by
  // explicit parent id: the thread-local span stack is empty on pool
  // threads, so auto-parenting would make them roots.
  const uint64_t validate_parent = validate_timer.span()->id();
  std::vector<Result<CloneValidationResult>> outcomes(
      shards_to_validate,
      Result<CloneValidationResult>(Status::Internal("unresolved")));
  common::ParallelFor(pool, shards_to_validate, [&](size_t si) {
    obs::Span shard_span(obs::Tracer::Get(), "shard.validate",
                         validate_parent);
    shard_span.SetAttr("shard", si);
    const Status lost = AIM_FAULT_POINT_STATUS("shard.validate");
    if (!lost.ok()) {
      shard_span.SetAttr("lost", true);
      outcomes[si] = lost;
      return;
    }
    outcomes[si] = ValidateOnClone(
        *shards[si].db, report.aim.recommended,
        report.aim.selected_workload, cm, options_.aim.validation, pool,
        options_.aim.dedup_replay());
    shard_span.SetAttr("ok", outcomes[si].ok());
  });

  // Serial fold in shard order: the regression veto and the per-shard
  // records never depend on completion order. Each validated shard's test
  // clone trees stay with that shard, for its own apply to adopt.
  std::vector<std::vector<ValidatedTree>> trees(shards.size());
  bool any_shard_regressed = false;
  for (size_t si = 0; si < shards_to_validate; ++si) {
    ShardValidation sv;
    sv.shard = si;
    if (!outcomes[si].ok()) {
      // Lost shard: no evidence, conservative veto, run still completes.
      sv.error = outcomes[si].status();
      any_shard_regressed = true;
      ++report.shards_lost;
      report.degraded = true;
      AIM_LOG(Warn) << "shard " << si << " lost during validation: "
                    << sv.error.ToString();
    } else {
      sv.result = outcomes[si].MoveValue();
      trees[si].swap(sv.result.trees);
      any_shard_regressed = any_shard_regressed || !sv.result.no_regressions;
    }
    report.validations.push_back(std::move(sv));
  }
  validate_timer.span()->SetAttr("shards_lost", report.shards_lost);
  validate_timer.Stop();

  auto used_somewhere = [&](const CandidateIndex& c) {
    for (const ShardValidation& sv : report.validations) {
      for (const CandidateIndex& used : sv.result.accepted) {
        if (used.def == c.def) return true;
      }
    }
    return false;
  };
  std::vector<CandidateIndex> accepted;
  for (const CandidateIndex& c : report.aim.recommended) {
    // A whole-batch regression on any validated shard vetoes the change
    // (the conservative reading of Eq. 4 across shards).
    if (!any_shard_regressed && used_somewhere(c)) {
      accepted.push_back(c);
    } else {
      report.rejected_by_shards.push_back(c);
    }
  }
  report.aim.recommended = std::move(accepted);

  // Common physical design: install the survivors on every shard through
  // AIM's own install step, so a validated shard adopts its clone's trees.
  // Shard transactions install concurrently (each touches only its own
  // database) but commit together, serially, after every install has been
  // checked in shard order — a failure anywhere rolls back every shard,
  // so the fleet never diverges into a mixed configuration.
  obs::PhaseTimer apply_timer("sharded.apply",
                              &report.aim.stats.shard_apply_seconds);
  const uint64_t apply_parent = apply_timer.span()->id();
  std::vector<std::unique_ptr<storage::IndexSetTransaction>> txns(
      shards.size());
  std::vector<Status> apply_status(shards.size());
  std::vector<AimRunStats> apply_stats(shards.size());
  common::ParallelFor(pool, shards.size(), [&](size_t si) {
    obs::Span shard_span(obs::Tracer::Get(), "shard.apply", apply_parent);
    shard_span.SetAttr("shard", si);
    txns[si] =
        std::make_unique<storage::IndexSetTransaction>(shards[si].db);
    RetryPolicy retry(options_.aim.validation.retry);
    for (const CandidateIndex& c : report.aim.recommended) {
      apply_status[si] =
          InstallIndex(c.def, shards[si].db, /*online=*/nullptr, &retry,
                       &trees[si], txns[si].get(), &apply_stats[si]);
      if (!apply_status[si].ok()) return;
    }
  });
  for (const Status& st : apply_status) {
    if (!st.ok()) return st;  // txn destructors roll back every shard
  }
  for (size_t si = 0; si < shards.size(); ++si) {
    txns[si]->Commit();
    report.aim.stats.indexes_adopted += apply_stats[si].indexes_adopted;
  }
  apply_timer.Stop();
  return report;
}

}  // namespace aim::core
