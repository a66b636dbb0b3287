#include "core/aim.h"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/fault_injection.h"
#include "common/logging.h"
#include "common/retry.h"
#include "obs/trace.h"
#include "optimizer/predicate.h"
#include "storage/index_transaction.h"

namespace aim::core {

Status InstallIndex(catalog::IndexDef def, storage::Database* db,
                    storage::OnlineIndexBuilder* online, RetryPolicy* retry,
                    std::vector<ValidatedTree>* trees,
                    storage::IndexSetTransaction* txn, AimRunStats* stats) {
  def.hypothetical = false;
  def.id = catalog::kInvalidIndex;
  def.created_by_automation = true;
  auto tree = std::find_if(
      trees->begin(), trees->end(), [&](const ValidatedTree& t) {
        return t.table == def.table && t.columns == def.columns &&
               t.heap_stamp == db->heap(def.table).stamp();
      });
  const bool adopt = tree != trees->end();
  Status st;
  if (online != nullptr) {
    std::optional<storage::OnlineBuildSeed> seed;
    if (adopt) {
      seed = storage::OnlineBuildSeed{db->heap(def.table),
                                      std::move(tree->tree)};
    }
    Result<storage::OnlineBuildReport> built =
        online->Build(std::move(def), txn, std::move(seed));
    st = built.status();
    if (built.ok()) {
      const storage::OnlineBuildReport& r = built.ValueOrDie();
      ++stats->online_builds;
      stats->online_delta_applied += r.delta_applied + r.swap_tail_applied;
      stats->online_max_stall_seconds =
          std::max(stats->online_max_stall_seconds, r.stall_seconds);
    }
  } else {
    st = retry->Run([&] {
                 return adopt ? txn->AdoptIndex(def, &tree->tree)
                              : txn->CreateIndex(def);
               }).status();
  }
  if (adopt) {
    if (st.ok()) ++stats->indexes_adopted;
    trees->erase(tree);
  }
  return st.code() == Status::Code::kAlreadyExists ? Status::OK() : st;
}

std::vector<SelectedQuery> AutomaticIndexManager::SelectQueries(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor) const {
  if (monitor != nullptr) {
    return SelectRepresentativeWorkload(workload, *monitor,
                                        options_.selection);
  }
  // Bootstrap mode: no execution statistics yet; take every query with
  // its static weight.
  std::vector<SelectedQuery> selected;
  selected.reserve(workload.size());
  for (const workload::Query& q : workload.queries) {
    SelectedQuery sq;
    sq.query = &q;
    selected.push_back(std::move(sq));
  }
  return selected;
}

Result<AimReport> AutomaticIndexManager::Recommend(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor) {
  obs::Span run_span(obs::Tracer::Get(), "aim.recommend");
  const auto t0 = std::chrono::steady_clock::now();
  AimReport report;
  common::ThreadPool* const pool = this->pool();

  // Line 0 (extension): workload compression — fold the interval's raw
  // statements into weighted cluster representatives, so every later
  // phase scales with clusters, not statements.
  const workload::Workload* effective = &workload;
  if (options_.compression.enabled && !workload.empty()) {
    obs::PhaseTimer timer("workload.compress",
                          &report.stats.compression_seconds);
    report.compressed = std::make_shared<const workload::CompressedWorkload>(
        workload::WorkloadCompressor(options_.compression)
            .Compress(workload, monitor, &db_->catalog()));
    effective = &report.compressed->workload;
    report.stats.compression_statements_in =
        report.compressed->stats.statements_in;
    report.stats.compression_clusters = report.compressed->stats.clusters;
    report.stats.compression_ratio = report.compressed->stats.ratio();
    timer.span()->SetAttr("statements_in",
                          report.stats.compression_statements_in);
    timer.span()->SetAttr("clusters", report.stats.compression_clusters);
    timer.span()->SetAttr("ratio", report.stats.compression_ratio);
  }

  // Line 1: representative workload selection.
  {
    obs::PhaseTimer timer("aim.selection", &report.stats.selection_seconds);
    if (report.compressed != nullptr && monitor != nullptr) {
      report.selected_workload = SelectCompressedWorkload(
          *report.compressed, *monitor, options_.selection);
    } else {
      report.selected_workload = SelectQueries(*effective, monitor);
    }
    report.stats.queries_selected = report.selected_workload.size();
    timer.span()->SetAttr("queries_selected", report.stats.queries_selected);
  }
  if (report.selected_workload.empty()) return report;

  optimizer::WhatIfOptimizer what_if(db_->catalog(), cm_);
  optimizer::WhatIfCache local_cache(options_.what_if_cache_entries);
  optimizer::WhatIfCache* cache = resources_.shared_cache != nullptr
                                      ? resources_.shared_cache
                                      : &local_cache;
  const bool cache_enabled = resources_.shared_cache != nullptr ||
                             options_.what_if_cache_entries > 0;
  if (cache_enabled) what_if.set_cache(cache);
  // Shared caches arrive with history: report this run's activity as
  // deltas, and record how warm the cache was when the run began.
  const optimizer::WhatIfCacheStats cache_before = cache->stats();
  report.stats.cache_entries_at_start = cache_enabled ? cache->size() : 0;
  report.stats.cache_warm_start = report.stats.cache_entries_at_start > 0;
  CandidateGenerator generator(what_if.catalog(), &what_if,
                               options_.candidates);

  // Line 2: candidate generation (two-phase, Sec. III-B). Each query's
  // generation is independent (DatalessIndexCost restores the ambient
  // configuration), so the per-query loop fans out over the pool with
  // per-worker what-if clones; the dedup merge stays serial in query
  // order, making the result bit-identical to the serial fallback.
  std::vector<PartialOrder> orders;
  PartialOrderSet seen;
  CandidateCache* const ccache = resources_.candidate_cache;
  auto generate_pass = [&](bool covering_enabled) -> Status {
    CandidateGenOptions pass_opts = options_.candidates;
    pass_opts.enable_covering = covering_enabled;
    const size_t n = report.selected_workload.size();
    std::vector<std::vector<PartialOrder>> per_query(n);
    // Incremental candidate generation: per-cluster results are served
    // from the carried cache when this pass's full input fingerprint
    // (statement × configuration × schema/stats × options) matches a
    // previous interval's. The context must be fingerprinted on the
    // master optimizer before the fan-out (phase 2 runs under the staged
    // phase-1 configuration).
    std::vector<uint8_t> cache_hit(n, 0);
    const uint64_t context =
        ccache != nullptr
            ? CandidateCache::ContextFingerprint(
                  db_->catalog().SchemaStatsFingerprint(),
                  what_if.config_fingerprint(), pass_opts)
            : 0;
    optimizer::ParallelWhatIf(
        pool, n, &what_if,
        [&](optimizer::WhatIfOptimizer* w, size_t qi) {
          const SelectedQuery& sq = report.selected_workload[qi];
          if (sq.query->stmt.kind == sql::Statement::Kind::kInsert) {
            return;
          }
          const workload::QueryStats* stats =
              sq.stats.executions > 0 ? &sq.stats : nullptr;
          uint64_t cluster_key = 0;
          if (ccache != nullptr) {
            // Only the covering pass reads stats (TryCoveringIndex's
            // seek-volume check), so only it keys on the execution count.
            const uint64_t covering_execs =
                covering_enabled && stats != nullptr ? stats->executions : 0;
            cluster_key =
                CandidateCache::ClusterKey(sq.query->stmt, covering_execs);
            if (ccache->Lookup(cluster_key, context, &per_query[qi])) {
              cache_hit[qi] = 1;
              return;
            }
          }
          Result<optimizer::AnalyzedQuery> aq =
              optimizer::Analyze(sq.query->stmt, w->catalog());
          if (!aq.ok()) {
            AIM_LOG(Warn) << "skipping query: " << aq.status().ToString();
            return;
          }
          CandidateGenerator pass_gen(w->catalog(), w, pass_opts);
          per_query[qi] =
              pass_gen.GenerateForQuery(*sq.query, aq.ValueOrDie(), stats);
          if (ccache != nullptr) {
            ccache->Insert(cluster_key, context, per_query[qi]);
          }
        });
    if (ccache != nullptr) {
      for (size_t qi = 0; qi < n; ++qi) {
        const SelectedQuery& sq = report.selected_workload[qi];
        if (sq.query->stmt.kind == sql::Statement::Kind::kInsert) continue;
        ++report.stats.candgen_clusters_total;
        if (cache_hit[qi]) {
          ++report.stats.candgen_clusters_reused;
        } else {
          ++report.stats.candgen_clusters_recomputed;
        }
      }
    }
    for (std::vector<PartialOrder>& pos : per_query) {
      for (PartialOrder& po : pos) AppendUnique(std::move(po), &seen, &orders);
    }
    return Status::OK();
  };

  // Phase 1: narrow (non-covering) candidates for every selected query.
  {
    obs::PhaseTimer timer("aim.candgen", &report.stats.candgen_seconds);
    // Spans both generate passes; attrs carry the reuse counters.
    std::optional<obs::Span> incremental_span;
    if (ccache != nullptr) {
      incremental_span.emplace(obs::Tracer::Get(), "candgen.incremental");
    }
    AIM_RETURN_NOT_OK(generate_pass(/*covering_enabled=*/false));

    if (options_.two_phase && options_.candidates.enable_covering) {
      // Stage all phase-1 candidates as hypothetical indexes so the
      // covering check (Sec. III-D) can ask "given the best selectivity
      // an index could already provide, is the PK seek volume still
      // high?".
      std::vector<PartialOrder> merged1 =
          MergePartialOrders(orders, options_.merge);
      CandidateGenerator tmp_gen(what_if.catalog(), &what_if,
                                 options_.candidates);
      std::vector<catalog::IndexDef> phase1 =
          tmp_gen.GenerateCandidateIndexPerPO(merged1);
      AIM_RETURN_NOT_OK(what_if.SetConfiguration(phase1));
      AIM_RETURN_NOT_OK(generate_pass(/*covering_enabled=*/true));
      what_if.ClearConfiguration();
    }
    if (incremental_span.has_value()) {
      static obs::Counter* const clusters_total =
          obs::MetricsRegistry::Global()->counter(
              "candgen.clusters_total");
      static obs::Counter* const clusters_reused =
          obs::MetricsRegistry::Global()->counter(
              "candgen.clusters_reused");
      static obs::Counter* const clusters_recomputed =
          obs::MetricsRegistry::Global()->counter(
              "candgen.clusters_recomputed");
      clusters_total->Add(report.stats.candgen_clusters_total);
      clusters_reused->Add(report.stats.candgen_clusters_reused);
      clusters_recomputed->Add(report.stats.candgen_clusters_recomputed);
      incremental_span->SetAttr("clusters_total",
                                report.stats.candgen_clusters_total);
      incremental_span->SetAttr("clusters_reused",
                                report.stats.candgen_clusters_reused);
      incremental_span->SetAttr("clusters_recomputed",
                                report.stats.candgen_clusters_recomputed);
      incremental_span->End();
    }
    report.stats.partial_orders_generated = orders.size();
    timer.span()->SetAttr("partial_orders",
                          report.stats.partial_orders_generated);
  }

  {
    obs::PhaseTimer timer("aim.ranking", &report.stats.ranking_seconds);

    // Merge partial orders to a fixpoint (line 6 of Algorithm 2).
    std::vector<PartialOrder> merged;
    {
      obs::PhaseTimer merge_timer("aim.merge", &report.stats.merge_seconds);
      merged = MergePartialOrders(std::move(orders), options_.merge);
      report.stats.partial_orders_after_merge = merged.size();
      merge_timer.span()->SetAttr("partial_orders_after_merge",
                                  merged.size());
    }

    // One concrete index per final partial order (line 7), minus indexes
    // that already exist for real.
    std::vector<catalog::IndexDef> candidates =
        generator.GenerateCandidateIndexPerPO(merged);
    candidates.erase(
        std::remove_if(candidates.begin(), candidates.end(),
                       [&](const catalog::IndexDef& def) {
                         return db_->catalog().FindIndex(def.table,
                                                         def.columns) !=
                                nullptr;
                       }),
        candidates.end());
    // Quarantined arms never re-enter the pipeline: filtering the serial
    // concrete-candidate list (not the parallel generation) keeps the
    // exclusion bit-identical at any worker count.
    if (resources_.exploration_gate != nullptr) {
      const size_t before = candidates.size();
      candidates.erase(
          std::remove_if(candidates.begin(), candidates.end(),
                         [&](const catalog::IndexDef& def) {
                           return resources_.exploration_gate->IsQuarantined(
                               def);
                         }),
          candidates.end());
      report.exploration.candidates_quarantined =
          before - candidates.size();
      if (report.exploration.candidates_quarantined > 0) {
        static obs::Counter* const quarantined_candidates =
            obs::MetricsRegistry::Global()->counter(
                "aim.exploration.candidates_quarantined");
        quarantined_candidates->Add(
            report.exploration.candidates_quarantined);
      }
    }
    report.stats.candidates_evaluated = candidates.size();

    // Line 4: rank by utility and select under the storage budget
    // (greedy knapsack).
    {
      obs::Span knapsack_span(obs::Tracer::Get(), "aim.knapsack");
      RankingResult ranking =
          RankAndSelect(candidates, report.selected_workload, &what_if,
                        options_.ranking, pool);
      report.recommended = std::move(ranking.selected);
      knapsack_span.SetAttr("candidates",
                            report.stats.candidates_evaluated);
      knapsack_span.SetAttr("selected", report.recommended.size());
    }
    report.stats.indexes_recommended = report.recommended.size();
    report.explanations = ExplainAll(report.recommended,
                                     report.selected_workload,
                                     db_->catalog());
  }

  report.stats.what_if_calls = what_if.call_count();
  const optimizer::WhatIfCacheStats cache_stats = cache->stats();
  report.stats.cache_hits = cache_stats.hits - cache_before.hits;
  report.stats.cache_misses = cache_stats.misses - cache_before.misses;
  report.stats.cache_evictions =
      cache_stats.evictions - cache_before.evictions;
  report.stats.runtime_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  run_span.SetAttr("what_if_calls", report.stats.what_if_calls);
  run_span.SetAttr("cache_hits", report.stats.cache_hits);
  run_span.SetAttr("cache_misses", report.stats.cache_misses);
  run_span.SetAttr("recommended", report.recommended.size());
  return report;
}

Result<AimReport> AutomaticIndexManager::RunOnce(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor) {
  obs::Span run_span(obs::Tracer::Get(), "aim.run_once");
  AIM_ASSIGN_OR_RETURN(AimReport report, Recommend(workload, monitor));
  const auto t0 = std::chrono::steady_clock::now();
  // The test clone's trees for the accepted indexes, kept out of the
  // report: apply adopts them, and nothing else reads them.
  std::vector<ValidatedTree> trees;

  {
    obs::PhaseTimer timer("aim.validation",
                          &report.stats.validation_seconds);
    if (options_.validate_on_clone && !report.recommended.empty()) {
      // Line 3: materialize on a clone and keep only validated indexes.
      AIM_ASSIGN_OR_RETURN(
          report.validation,
          ValidateOnClone(*db_, report.recommended,
                          report.selected_workload, cm_, options_.validation,
                          pool(), options_.dedup_replay()));
      trees.swap(report.validation.trees);
      report.stats.indexes_rejected_by_validation =
          report.recommended.size() - report.validation.accepted.size();
      report.recommended = report.validation.accepted;
      report.explanations = ExplainAll(report.recommended,
                                       report.selected_workload,
                                       db_->catalog());
      timer.span()->SetAttr("executed", report.validation.executed);
      timer.span()->SetAttr(
          "rejected", report.stats.indexes_rejected_by_validation);
    }
  }

  if (resources_.exploration_gate != nullptr) {
    // Bandit admission: rank the validated set by UCB score and admit
    // under the interval's regret budget; the rest defer to the next
    // interval (by which time admitted arms have become real indexes and
    // left the candidate pool, freeing the budget).
    obs::Span gate_span(obs::Tracer::Get(), "exploration.gate");
    ExplorationGate* gate = resources_.exploration_gate;
    AdmissionDecision decision = gate->Admit(report.recommended);
    report.exploration.gated = true;
    report.exploration.admitted = decision.admitted.size();
    report.exploration.deferred = decision.deferred.size();
    report.exploration.projected_regret_seconds =
        decision.projected_regret_seconds;
    report.exploration.regret_budget_seconds =
        gate->options().regret_budget_seconds;
    if (!decision.deferred.empty()) {
      report.recommended = decision.admitted;
      report.explanations = ExplainAll(report.recommended,
                                       report.selected_workload,
                                       db_->catalog());
    }
    static obs::Counter* const admitted = obs::MetricsRegistry::Global()
        ->counter("aim.exploration.admitted");
    static obs::Counter* const deferred = obs::MetricsRegistry::Global()
        ->counter("aim.exploration.deferred");
    admitted->Add(report.exploration.admitted);
    deferred->Add(report.exploration.deferred);
    gate_span.SetAttr("admitted", report.exploration.admitted);
    gate_span.SetAttr("deferred", report.exploration.deferred);
    gate_span.SetAttr("projected_regret_seconds",
                      report.exploration.projected_regret_seconds);
  }

  if (options_.deployment.ordered) {
    obs::PhaseTimer timer("aim.apply", &report.stats.apply_seconds);
    AIM_FAULT_POINT("core.apply");
    AIM_RETURN_NOT_OK(ApplyOrdered(&trees, &report));
  } else {
    obs::PhaseTimer timer("aim.apply", &report.stats.apply_seconds);
    // Materialize the production indexes atomically: a failure on the
    // k-th install rolls back the k-1 already-installed indexes, so
    // production is only ever the original configuration or the
    // fully-validated new one. With an online-apply target the rollback
    // is latch-aware, so it is safe under live traffic.
    AIM_FAULT_POINT("core.apply");
    const bool online = resources_.online_apply_db != nullptr;
    storage::Database* target = online ? resources_.online_apply_db : db_;
    storage::IndexSetTransaction txn(target,
                                     online ? &target->latch() : nullptr);
    RetryPolicy retry(options_.validation.retry);
    storage::OnlineIndexBuilder builder(target, options_.online);
    for (const CandidateIndex& c : report.recommended) {
      // On failure the txn destructor rolls back prior installs.
      AIM_RETURN_NOT_OK(InstallIndex(c.def, db_,
                                     online ? &builder : nullptr, &retry,
                                     &trees, &txn, &report.stats));
    }
    txn.Commit();
    report.stats.indexes_recommended = report.recommended.size();
    timer.span()->SetAttr("indexes_applied", report.recommended.size());
  }
  report.stats.runtime_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();
  return report;
}

Status AutomaticIndexManager::ApplyOrdered(std::vector<ValidatedTree>* trees,
                                           AimReport* report) {
  static obs::Counter* const steps_counter =
      obs::MetricsRegistry::Global()->counter("aim.deploy.steps");
  static obs::Counter* const failures_counter =
      obs::MetricsRegistry::Global()->counter("aim.deploy.step_failures");
  DeploymentPlanner planner(options_.deployment);
  const DeploymentPlan plan = planner.Plan(report->recommended);
  report->deployment.ordered = true;
  report->deployment.deferred_for_storage =
      plan.deferred_for_storage.size();
  report->deployment.total_benefit_seconds = plan.total_benefit_seconds;
  report->deployment.modeled_makespan_seconds = plan.makespan_seconds;
  report->deployment.modeled_time_to_half_benefit_seconds =
      plan.TimeToBenefitFraction(0.5);

  const bool online = resources_.online_apply_db != nullptr;
  storage::Database* target = online ? resources_.online_apply_db : db_;
  RetryPolicy retry(options_.validation.retry);
  storage::OnlineIndexBuilder builder(target, options_.online);
  std::vector<CandidateIndex> installed;
  for (const DeploymentStep& s : plan.steps) {
    DeploymentStepResult result;
    result.def = s.index.def;
    result.slot = s.slot;
    result.modeled_start_seconds = s.start_seconds;
    result.modeled_finish_seconds = s.finish_seconds;
    result.benefit_seconds = s.index.benefit;
    result.cumulative_benefit_seconds = s.cumulative_benefit_seconds;
    obs::Span step_span(obs::Tracer::Get(), "deploy.step");
    step_span.SetAttr("slot", static_cast<uint64_t>(s.slot));
    step_span.SetAttr("benefit_seconds", s.index.benefit);
    step_span.SetAttr("cumulative_benefit_seconds",
                      s.cumulative_benefit_seconds);
    const auto step_t0 = std::chrono::steady_clock::now();
    Status st = AIM_FAULT_POINT_STATUS("deploy.step");
    {
      // One transaction per step: its destructor rolls back only this
      // step's build on failure. Earlier commits stand — per-step
      // rollback is the point of ordered deployment.
      storage::IndexSetTransaction step_txn(
          target, online ? &target->latch() : nullptr);
      if (st.ok()) {
        st = InstallIndex(result.def, db_, online ? &builder : nullptr,
                          &retry, trees, &step_txn, &report->stats);
      }
      if (st.ok()) step_txn.Commit();
    }
    result.measured_build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      step_t0)
            .count();
    result.installed = st.ok();
    if (st.ok()) {
      installed.push_back(s.index);
      ++report->deployment.installed;
      steps_counter->Add();
    } else {
      result.error = st.ToString();
      ++report->deployment.failed_steps;
      failures_counter->Add();
      AIM_LOG(Warn) << "deployment step failed (rolled back, continuing): "
                    << st.ToString();
    }
    step_span.SetAttr("installed", result.installed);
    if (!st.ok()) step_span.SetAttr("error", result.error);
    report->deployment.steps.push_back(std::move(result));
  }
  report->recommended = std::move(installed);
  report->stats.indexes_recommended = report->recommended.size();
  return Status::OK();
}

}  // namespace aim::core
