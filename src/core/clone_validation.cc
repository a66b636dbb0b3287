#include "core/clone_validation.h"

#include <algorithm>
#include <set>
#include <unordered_map>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "executor/executor.h"
#include "obs/trace.h"

namespace aim::core {

Result<CloneValidationResult> ValidateOnClone(
    const storage::Database& production,
    const std::vector<CandidateIndex>& selected,
    const std::vector<SelectedQuery>& queries, optimizer::CostModel cm,
    const CloneValidationOptions& options, common::ThreadPool* pool,
    bool dedup_replay) {
  CloneValidationResult result;
  if (selected.empty()) return result;

  // Control clone: production as-is. Test clone: production + candidates,
  // actually materialized (B+Trees built). Losing the clones here — the
  // `core.clone` fault — fails this validation, which the sharding layer
  // reads as "this shard vetoes", not as a crashed run.
  AIM_FAULT_POINT("core.clone");

  // Replay segments. Runs of consecutive SELECTs are read-only and fan out
  // over the pool; each DML statement is a barrier executed serially at
  // its workload position so every later query sees the same clone state
  // as in a serial replay. Within one SELECT run the clone state is fixed
  // and the executor is deterministic, so duplicates of a statement may
  // share one execution (`dedup_replay`); each query still gets its own
  // outcome slot. Owners are discovered in query order, keeping the owner
  // set (and thus all results) independent of thread count.
  struct Segment {
    size_t begin = 0;
    size_t end = 0;
    std::vector<size_t> owners;
  };
  std::vector<Segment> segments;
  std::vector<size_t> owner_of(queries.size());
  for (size_t qi = 0; qi < queries.size();) {
    Segment seg;
    seg.begin = qi;
    seg.end = qi + 1;
    if (!queries[qi].query->stmt.is_dml()) {
      while (seg.end < queries.size() &&
             !queries[seg.end].query->stmt.is_dml()) {
        ++seg.end;
      }
    }
    std::unordered_map<uint64_t, size_t> first_by_fingerprint;
    for (size_t k = seg.begin; k < seg.end; ++k) {
      if (dedup_replay) {
        const uint64_t fp =
            optimizer::FingerprintStatement(queries[k].query->stmt);
        auto [it, inserted] = first_by_fingerprint.emplace(fp, k);
        owner_of[k] = it->second;
        if (inserted) seg.owners.push_back(k);
      } else {
        owner_of[k] = k;
        seg.owners.push_back(k);
      }
    }
    qi = seg.end;
    segments.push_back(std::move(seg));
  }

  // Each clone replays the whole workload on its own; outcomes land in
  // per-query slots and the evidence below is accumulated serially in
  // workload order — bit-identical to the serial path.
  executor::ExecutorOptions exec_options;
  exec_options.engine = options.replay_engine;
  using Outcome = Result<executor::ExecutionMetrics>;
  auto replay = [&](storage::Database* db, const char* phase) {
    obs::PhaseTimer timer(phase);
    executor::Executor exec(db, cm, exec_options);
    std::vector<Outcome> out(queries.size(),
                             Outcome(Status::Internal("not replayed")));
    for (const Segment& seg : segments) {
      common::ParallelFor(pool, seg.owners.size(), [&](size_t j) {
        const size_t qi = seg.owners[j];
        Result<executor::ExecuteResult> r =
            exec.Execute(queries[qi].query->stmt);
        out[qi] = r.ok() ? Outcome(std::move(r.ValueOrDie().metrics))
                         : Outcome(r.status());
      });
      for (size_t k = seg.begin; k < seg.end; ++k) {
        if (owner_of[k] != k) out[k] = out[owner_of[k]];
      }
    }
    return out;
  };
  // The control clone lives only for its own replay, so the two clones
  // never coexist.
  std::vector<Outcome> before;
  {
    obs::PhaseTimer clone_timer("validation.clone");
    storage::Database control = production;
    clone_timer.Stop();
    before = replay(&control, "validation.control_replay");
  }
  obs::PhaseTimer clone_timer("validation.clone");
  storage::Database test = production;
  clone_timer.Stop();
  obs::PhaseTimer build_timer("validation.build");
  std::vector<catalog::IndexDef> defs;
  defs.reserve(selected.size());
  for (const CandidateIndex& c : selected) {
    defs.push_back(c.def);
    defs.back().hypothetical = false;  // built for real on the test clone
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
  build_timer.Stop();
  const std::vector<Outcome> after = replay(&test, "validation.test_replay");

  std::set<catalog::IndexId> used;
  bool improved = false;
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    const SelectedQuery& sq = queries[qi];
    if (!before[qi].ok() || !after[qi].ok()) {
      ++result.failed;
      AIM_LOG(Warn) << "validation replay failed: "
                    << (before[qi].ok() ? after[qi] : before[qi])
                           .status()
                           .ToString();
      continue;
    }
    const executor::ExecutionMetrics& before_metrics = before[qi].ValueOrDie();
    const executor::ExecutionMetrics& after_metrics = after[qi].ValueOrDie();
    ++result.executed;
    for (catalog::IndexId id : after_metrics.used_indexes) {
      used.insert(id);
    }
    QueryValidation v;
    v.fingerprint = sq.query->fingerprint;
    v.cpu_before = before_metrics.cpu_seconds;
    v.cpu_after = after_metrics.cpu_seconds;
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
    const catalog::IndexId id = created[i];
    if (id == catalog::kInvalidIndex || used.count(id) == 0) {
      result.rejected_unused.push_back(selected[i]);
      continue;
    }
    result.accepted.push_back(selected[i]);
    const catalog::TableId table = selected[i].def.table;
    Result<storage::BTreeIndex> tree = test.ReleaseIndex(id);
    if (!tree.ok()) continue;
    ValidatedTree vt;
    vt.table = table;
    vt.columns = selected[i].def.columns;
    vt.heap_stamp = test.heap(table).stamp();
    vt.tree = tree.MoveValue();
    result.trees.push_back(std::move(vt));
  }
  return result;
}

}  // namespace aim::core
