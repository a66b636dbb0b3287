#include "core/fleet.h"

#include <algorithm>
#include <chrono>
#include <numeric>
#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace aim::core {

// ---------------------------------------------------------------------------
// FleetTuner

FleetTuner::FleetTuner(FleetTunerOptions options)
    : options_(std::move(options)),
      cache_store_(options_.cache_store),
      pool_(options_.num_threads <= 1 ? 0 : options_.num_threads) {}

void FleetTuner::AddTenant(std::string name, storage::Database* db,
                           const workload::Workload* workload,
                           const workload::WorkloadMonitor* monitor) {
  TenantState t;
  t.name = std::move(name);
  t.db = db;
  t.workload = workload;
  t.monitor = monitor;
  t.tuner = std::make_unique<ContinuousTuner>(
      db, options_.cost_model, options_.tuner, &cache_store_, &pool_);
  t.cost_estimate = options_.default_cost_seconds;
  tenants_.push_back(std::move(t));
}

double FleetTuner::BenefitEstimate(const TenantState& t) const {
  double benefit = t.ever_tuned ? t.benefit_estimate
                                : options_.default_benefit_seconds;
  // Workload pressure from the stats stream: what the tenant's latest
  // interval of traffic could save under ideal indexing (Eq. 5 summed
  // over executions). Zero for tenants with no exporter attached.
  benefit += aggregator_.view(t.name).last_delta_benefit_seconds;
  return benefit;
}

double FleetTuner::Priority(const TenantState& t, double benefit) const {
  const double age = static_cast<double>(t.intervals_since_tuned);
  // Multiplicative aging alone never lifts a zero-benefit tenant; the
  // additive term grows without bound in age, so any tenant eventually
  // outranks every bounded-benefit competitor (starvation-freedom).
  return benefit * (1.0 + options_.aging_rate * age) +
         options_.aging_rate * age * options_.default_benefit_seconds;
}

Result<FleetIntervalReport> FleetTuner::RunInterval() {
  static obs::Counter* const intervals =
      obs::MetricsRegistry::Global()->counter("fleet.intervals");
  static obs::Counter* const tuned_counter =
      obs::MetricsRegistry::Global()->counter("fleet.tenants_tuned");
  static obs::Counter* const skipped_counter =
      obs::MetricsRegistry::Global()->counter(
          "fleet.tenants_skipped_budget");

  obs::Span interval_span(obs::Tracer::Get(), "fleet.interval");
  interval_span.SetAttr("interval", interval_);
  interval_span.SetAttr("tenants", tenants_.size());

  FleetIntervalReport report;
  report.interval = interval_;
  report.tenants_considered = tenants_.size();
  report.outcomes.resize(tenants_.size());

  // ---- Rank (serial, deterministic). --------------------------------
  std::vector<size_t> order(tenants_.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::vector<double> priorities(tenants_.size());
  for (size_t i = 0; i < tenants_.size(); ++i) {
    TenantState& t = tenants_[i];
    const double benefit = BenefitEstimate(t);
    priorities[i] = Priority(t, benefit);
    TenantOutcome& out = report.outcomes[i];
    out.tenant = t.name;
    out.schema_fingerprint = t.db->catalog().SchemaStatsFingerprint();
    out.priority = priorities[i];
    out.estimated_benefit_seconds = benefit;
    out.estimated_cost_seconds = t.cost_estimate;
    out.intervals_since_tuned = t.intervals_since_tuned;
  }
  // Stable sort: equal priorities resolve in registration order.
  std::stable_sort(order.begin(), order.end(),
                   [&priorities](size_t a, size_t b) {
                     return priorities[a] > priorities[b];
                   });

  // ---- Admit under the global budget (serial). ----------------------
  const int clone_cost = options_.tuner.aim.validate_on_clone ? 1 : 0;
  std::vector<size_t> admitted;
  double planned_spend = 0.0;
  int planned_clones = 0;
  for (size_t rank = 0; rank < order.size(); ++rank) {
    const size_t i = order[rank];
    TenantState& t = tenants_[i];
    const FleetBudget& budget = options_.budget;
    bool fits = true;
    if (budget.max_tenants > 0 &&
        static_cast<int>(admitted.size()) >= budget.max_tenants) {
      fits = false;
    }
    if (budget.max_clones > 0 &&
        planned_clones + clone_cost > budget.max_clones) {
      fits = false;
    }
    // The CPU budget is soft for the single top-ranked tenant: an
    // interval always makes progress even when every tenant's estimate
    // exceeds the budget alone.
    if (budget.cpu_seconds > 0.0 &&
        planned_spend + t.cost_estimate > budget.cpu_seconds &&
        !admitted.empty()) {
      fits = false;
    }
    if (!fits) {
      report.outcomes[i].skipped_for_budget = true;
      continue;
    }
    planned_spend += t.cost_estimate;
    planned_clones += clone_cost;
    admitted.push_back(i);
  }
  report.estimated_spend_seconds = planned_spend;
  report.tenants_tuned = admitted.size();
  report.tenants_skipped_budget =
      tenants_.size() - admitted.size();

  // ---- Create the admitted tenants' cache stores (serial). Ticks look
  // their store up again in parallel; doing it here first, in admission
  // order, keeps disk loads and `cache_shared` independent of scheduling.
  for (size_t i : admitted) {
    TenantOutcome& out = report.outcomes[i];
    out.cache_shared =
        !cache_store_.GetOrCreate(out.schema_fingerprint).created;
  }

  // ---- Tune the admitted tenants in parallel. -----------------------
  // Tenant ticks are depth-1 tasks on the shared pool; each tick's inner
  // what-if fan-out submits depth-2 tasks to the same pool, and ticks
  // waiting on inner work help drain it (common::ThreadPool's helping
  // protocol) — so one pool serves both levels without deadlock. Results
  // land in pre-sized slots keyed by registration index, so the fold
  // below is deterministic regardless of completion order.
  struct TickResult {
    IntervalReport report;
    double seconds = 0.0;
    Status error;
  };
  std::vector<TickResult> results(tenants_.size());
  {
    const uint64_t parent = interval_span.id();
    std::vector<std::future<void>> futures;
    futures.reserve(admitted.size());
    for (size_t i : admitted) {
      TenantState& t = tenants_[i];
      TickResult& slot = results[i];
      futures.push_back(pool_.Submit([&t, &slot, parent] {
        obs::Span tenant_span(obs::Tracer::Get(), "fleet.tenant", parent);
        tenant_span.SetAttr("tenant", t.name);
        const auto start = std::chrono::steady_clock::now();
        Result<IntervalReport> tick = t.tuner->Tick(*t.workload, t.monitor);
        slot.seconds = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();
        if (tick.ok()) {
          slot.report = tick.MoveValue();
        } else {
          slot.error = tick.status();
        }
        tenant_span.SetAttr("seconds", slot.seconds);
        tenant_span.SetAttr("degraded",
                            !slot.error.ok() || slot.report.degraded);
      }));
    }
    for (std::future<void>& f : futures) {
      pool_.WaitHelping(f);
      f.get();
    }
  }

  // ---- Fold outcomes (serial, registration order). ------------------
  for (size_t i = 0; i < tenants_.size(); ++i) {
    TenantState& t = tenants_[i];
    TenantOutcome& out = report.outcomes[i];
    const bool was_admitted =
        std::find(admitted.begin(), admitted.end(), i) != admitted.end();
    if (!was_admitted) {
      ++t.intervals_since_tuned;
      continue;
    }
    TickResult& r = results[i];
    out.tuned = true;
    out.measured_seconds = r.seconds;
    report.measured_spend_seconds += r.seconds;
    if (!r.error.ok()) {
      // Tick's contract is to degrade internally; a non-OK Result is
      // unexpected but folded the same way: nothing changed, try again.
      out.report.degraded = true;
      out.report.error = r.error;
    } else {
      out.report = std::move(r.report);
    }
    if (out.report.degraded) ++report.degraded_ticks;

    // Exploration: feed the warehouse-side benefit signal into the
    // tenant's bandit gate (serial fold — the gate is lock-free by
    // design). The signal scales the UCB confidence bonus; admission
    // stays a pure function of each tenant's own serial history.
    if (ExplorationGate* gate = t.tuner->exploration_gate()) {
      gate->ObserveFleetBenefit(
          aggregator_.view(t.name).last_delta_benefit_seconds);
    }

    // Benefit estimate for the next interval: measured per-query CPU
    // improvement from clone validation when available, otherwise decay
    // toward zero — a converged tenant sinks until its workload shifts.
    double measured_benefit = 0.0;
    for (const QueryValidation& q : out.report.aim.validation.per_query) {
      measured_benefit += std::max(0.0, q.cpu_before - q.cpu_after);
    }
    const bool changed_something = !out.report.aim.recommended.empty() ||
                                   !out.report.dropped.empty() ||
                                   !out.report.shrunk.empty();
    if (out.report.degraded) {
      // Keep the estimate: the work is still pending.
    } else if (measured_benefit > 0.0) {
      t.benefit_estimate = measured_benefit;
    } else if (changed_something) {
      t.benefit_estimate =
          std::max(t.benefit_estimate, options_.default_benefit_seconds);
    } else {
      t.benefit_estimate *= options_.converged_decay;
    }
    t.cost_estimate = options_.cost_smoothing * r.seconds +
                      (1.0 - options_.cost_smoothing) * t.cost_estimate;
    t.ever_tuned = true;
    t.intervals_since_tuned = 0;
  }

  // ---- Persist + trim the cache store (quiescent: no tenant mid-tick).
  // The parallel ticks touched the admitted stores in completion order;
  // touching them again in admission order makes the LRU order, and so
  // what the trim evicts, independent of scheduling.
  for (size_t i : admitted) {
    cache_store_.GetOrCreate(report.outcomes[i].schema_fingerprint);
  }
  Status save = cache_store_.SaveAll();
  (void)save;  // best-effort: a failed save only costs a warm start
  cache_store_.TrimToCapacity();
  report.cache_stores = cache_store_.store_count();

  intervals->Add();
  tuned_counter->Add(report.tenants_tuned);
  skipped_counter->Add(report.tenants_skipped_budget);
  interval_span.SetAttr("tuned", report.tenants_tuned);
  interval_span.SetAttr("skipped_budget", report.tenants_skipped_budget);
  interval_span.SetAttr("degraded", report.degraded_ticks);
  interval_span.SetAttr("measured_seconds", report.measured_spend_seconds);

  ++interval_;
  return report;
}

}  // namespace aim::core
