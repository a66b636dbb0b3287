#include "core/sharding.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <set>
#include <string>
#include <utility>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "obs/trace.h"
#include "storage/index_transaction.h"

namespace aim::core {

namespace {
std::string Key(const catalog::IndexDef& def) {
  std::string k = std::to_string(def.table);
  for (catalog::ColumnId c : def.columns) k += ',' + std::to_string(c);
  return k;
}
}  // namespace

common::ThreadPool* ShardedIndexManager::EnsurePool() {
  if (options_.aim.num_threads <= 1) {
    pool_.reset();
    return nullptr;
  }
  if (pool_ == nullptr ||
      pool_->worker_count() != options_.aim.num_threads) {
    pool_ = std::make_unique<common::ThreadPool>(options_.aim.num_threads);
  }
  return pool_.get();
}

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
  AutomaticIndexManager aim(shards[0].db, cm, aim_options);
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
  common::ThreadPool* pool = EnsurePool();
  CloneValidationOptions validation_opts = options_.aim.validation;
  validation_opts.dedup_replay = validation_opts.dedup_replay ||
                                 options_.aim.what_if_cache_entries > 0;

  // Fan the clone validations out over the pool, one slot per shard.
  // When several shards validate concurrently each validation replays
  // serially inside (a nested blocking fan-out on the same fixed-size
  // pool can deadlock: every worker would block on futures only an
  // occupied worker could run). With a single validated shard the pool
  // is spent inside that one validation instead.
  obs::PhaseTimer validate_timer(
      "sharded.validation",
      &report.aim.stats.shard_validation_seconds);
  // Workers attach their per-shard spans under the validation phase by
  // explicit parent id: the thread-local span stack is empty on pool
  // threads, so auto-parenting would make them roots.
  const uint64_t validate_parent = validate_timer.span()->id();
  const bool shard_fan_out = pool != nullptr && shards_to_validate > 1;
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
        report.aim.selected_workload, cm, validation_opts,
        shard_fan_out ? nullptr : pool);
    shard_span.SetAttr("ok", outcomes[si].ok());
  });

  // Serial fold in shard order: the used-set, the regression veto, and
  // the per-shard records never depend on completion order.
  std::set<std::string> used_somewhere;
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
      CloneValidationResult vr = outcomes[si].MoveValue();
      vr.trees.clear();  // shard clones' trees: the shard apply builds
      for (const CandidateIndex& c : vr.accepted) {
        used_somewhere.insert(Key(c.def));
      }
      any_shard_regressed = any_shard_regressed || !vr.no_regressions;
      sv.result = std::move(vr);
    }
    report.validations.push_back(std::move(sv));
  }
  validate_timer.span()->SetAttr("shards_lost", report.shards_lost);
  validate_timer.Stop();

  std::vector<CandidateIndex> accepted;
  for (const CandidateIndex& c : report.aim.recommended) {
    // A whole-batch regression on any validated shard vetoes the change
    // (the conservative reading of Eq. 4 across shards).
    if (!any_shard_regressed && used_somewhere.count(Key(c.def)) > 0) {
      accepted.push_back(c);
    } else {
      report.rejected_by_shards.push_back(c);
    }
  }
  report.aim.recommended = std::move(accepted);

  // Common physical design: materialize the survivors on every shard.
  // Shard transactions build concurrently (each touches only its own
  // database) but commit together, serially, after every build has been
  // checked in shard order — a failure anywhere rolls back every shard,
  // so the fleet never diverges into a mixed configuration.
  obs::PhaseTimer apply_timer("sharded.apply",
                              &report.aim.stats.shard_apply_seconds);
  const uint64_t apply_parent = apply_timer.span()->id();
  std::vector<std::unique_ptr<storage::IndexSetTransaction>> txns(
      shards.size());
  std::vector<Status> apply_status(shards.size());
  common::ParallelFor(pool, shards.size(), [&](size_t si) {
    obs::Span shard_span(obs::Tracer::Get(), "shard.apply", apply_parent);
    shard_span.SetAttr("shard", si);
    txns[si] =
        std::make_unique<storage::IndexSetTransaction>(shards[si].db);
    for (const CandidateIndex& c : report.aim.recommended) {
      catalog::IndexDef def = c.def;
      def.id = catalog::kInvalidIndex;
      def.hypothetical = false;
      def.created_by_automation = true;
      Result<catalog::IndexId> id = txns[si]->CreateIndex(std::move(def));
      if (!id.ok() &&
          id.status().code() != Status::Code::kAlreadyExists) {
        apply_status[si] = id.status();
        return;
      }
    }
  });
  for (const Status& st : apply_status) {
    if (!st.ok()) return st;  // txn destructors roll back every shard
  }
  for (auto& txn : txns) txn->Commit();
  apply_timer.Stop();
  return report;
}

}  // namespace aim::core
