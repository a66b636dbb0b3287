#include "core/clone_validation.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "executor/executor.h"

namespace aim::core {

Result<CloneValidationResult> ValidateOnClone(
    const storage::Database& production,
    const std::vector<CandidateIndex>& selected,
    const std::vector<SelectedQuery>& queries, optimizer::CostModel cm,
    const CloneValidationOptions& options, common::ThreadPool* pool) {
  CloneValidationResult result;
  if (selected.empty()) return result;

  // Control clone: production as-is. Test clone: production + candidates,
  // actually materialized (B+Trees built). Losing the clones here — the
  // `core.clone` fault — fails this validation, which the sharding layer
  // reads as "this shard vetoes", not as a crashed run.
  AIM_FAULT_POINT("core.clone");
  storage::Database control = production;
  storage::Database test = production;
  std::vector<catalog::IndexDef> defs;
  defs.reserve(selected.size());
  for (const CandidateIndex& c : selected) {
    catalog::IndexDef def = c.def;
    def.hypothetical = false;
    def.id = catalog::kInvalidIndex;
    def.created_by_automation = true;
    defs.push_back(std::move(def));
  }
  // Batch build: heap scans fan out over the pool, ids and adoption order
  // stay identical to the serial one-by-one path. Transient failures get
  // the retry policy serially afterwards; a candidate that still cannot
  // be built contributes no evidence — it is simply never observed as
  // used and falls out as rejected below.
  RetryPolicy retry(options.retry);
  std::vector<Result<catalog::IndexId>> built =
      test.CreateIndexes(defs, pool);
  std::vector<catalog::IndexId> created;
  created.reserve(selected.size());
  for (size_t i = 0; i < built.size(); ++i) {
    Result<catalog::IndexId> id = built[i];
    if (!id.ok() && id.status().IsRetriable()) {
      id = retry.Run([&] { return test.CreateIndex(defs[i]); });
    }
    if (!id.ok()) {
      AIM_LOG(Warn) << "clone materialization failed: "
                    << id.status().ToString();
      created.push_back(catalog::kInvalidIndex);
      continue;
    }
    created.push_back(id.ValueOrDie());
  }

  executor::ExecutorOptions exec_options;
  exec_options.engine = options.replay_engine;
  executor::Executor control_exec(&control, cm, exec_options);
  executor::Executor test_exec(&test, cm, exec_options);

  // Replay both clones. Runs of consecutive SELECTs are read-only on both
  // databases and fan out over the pool; each DML statement is a barrier
  // executed serially at its workload position so every later query sees
  // the same clone state as in a serial replay. Outcomes land in
  // per-query slots and the evidence below is accumulated serially in
  // workload order — bit-identical to the serial path.
  struct ReplayOutcome {
    bool ok = false;
    Status error;
    executor::ExecuteResult before;
    executor::ExecuteResult after;
  };
  std::vector<ReplayOutcome> outcomes(queries.size());
  auto run_query = [&](size_t qi) {
    ReplayOutcome& out = outcomes[qi];
    Result<executor::ExecuteResult> before =
        control_exec.Execute(queries[qi].query->stmt);
    Result<executor::ExecuteResult> after =
        test_exec.Execute(queries[qi].query->stmt);
    if (!before.ok() || !after.ok()) {
      out.error = before.ok() ? after.status() : before.status();
      return;
    }
    out.ok = true;
    out.before = before.MoveValue();
    out.after = after.MoveValue();
  };
  for (size_t qi = 0; qi < queries.size();) {
    if (queries[qi].query->stmt.is_dml()) {
      run_query(qi);
      ++qi;
      continue;
    }
    size_t end = qi;
    while (end < queries.size() && !queries[end].query->stmt.is_dml()) {
      ++end;
    }
    // Within one segment the clone state is fixed and the executor is
    // deterministic, so duplicates of a statement may share one
    // execution (`dedup_replay`); each query still gets its own outcome
    // slot. Owners are discovered in query order, keeping the owner set
    // (and thus all results) independent of thread count.
    std::vector<size_t> owners;
    std::vector<size_t> owner_of(end - qi);
    std::unordered_map<uint64_t, size_t> first_by_fingerprint;
    for (size_t k = qi; k < end; ++k) {
      if (options.dedup_replay) {
        const uint64_t fp =
            optimizer::FingerprintStatement(queries[k].query->stmt);
        auto [it, inserted] = first_by_fingerprint.emplace(fp, k);
        owner_of[k - qi] = it->second;
        if (inserted) owners.push_back(k);
      } else {
        owner_of[k - qi] = k;
        owners.push_back(k);
      }
    }
    common::ParallelFor(pool, owners.size(),
                        [&](size_t j) { run_query(owners[j]); });
    for (size_t k = qi; k < end; ++k) {
      const size_t owner = owner_of[k - qi];
      if (owner != k) outcomes[k] = outcomes[owner];
    }
    qi = end;
  }

  std::set<catalog::IndexId> used;
  bool improved = false;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const SelectedQuery& sq = queries[qi];
    const ReplayOutcome& out = outcomes[qi];
    if (!out.ok) {
      ++result.failed;
      AIM_LOG(Warn) << "validation replay failed: "
                    << out.error.ToString();
      continue;
    }
    ++result.executed;
    for (catalog::IndexId id : out.after.metrics.used_indexes) {
      used.insert(id);
    }
    QueryValidation v;
    v.fingerprint = sq.query->fingerprint;
    v.cpu_before = out.before.metrics.cpu_seconds;
    v.cpu_after = out.after.metrics.cpu_seconds;
    v.improved =
        v.cpu_after <= (1.0 - options.lambda2) * v.cpu_before &&
        v.cpu_before > 0;
    v.regressed = v.cpu_after > (1.0 + options.lambda3) * v.cpu_before &&
                  v.cpu_after - v.cpu_before > 1e-9;
    improved = improved || v.improved;
    if (v.regressed) result.no_regressions = false;
    result.per_query.push_back(v);
  }
  result.any_query_improved = improved;

  // A replay where too many queries failed proves nothing about the
  // candidates' effect on production (the failed queries are exactly the
  // ones whose regressions we would miss): reject the whole set and keep
  // production unchanged.
  const size_t replayed = result.executed + result.failed;
  if (replayed > 0 &&
      static_cast<double>(result.failed) >
          options.max_replay_failure_rate * static_cast<double>(replayed)) {
    result.replay_reliable = false;
    result.no_regressions = false;
    result.rejected_unused = selected;
    AIM_LOG(Warn) << "clone validation rejected candidate set: "
                  << result.failed << "/" << replayed
                  << " replayed executions failed";
    return result;
  }

  for (size_t i = 0; i < selected.size(); ++i) {
    const catalog::IndexId id =
        i < created.size() ? created[i] : catalog::kInvalidIndex;
    const bool index_used =
        id != catalog::kInvalidIndex && used.count(id) > 0;
    if (index_used || !options.drop_unused) {
      result.accepted.push_back(selected[i]);
    } else {
      result.rejected_unused.push_back(selected[i]);
    }
  }
  return result;
}

}  // namespace aim::core
