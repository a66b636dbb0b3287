#ifndef AIM_CORE_FLEET_H_
#define AIM_CORE_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "core/continuous.h"
#include "support/fleet_aggregator.h"

namespace aim::core {

/// Global per-interval tuning budget (Sec. VII at fleet scale: thousands
/// of databases, one tuning service). Non-positive fields are
/// unconstrained.
struct FleetBudget {
  /// Estimated tuning CPU-seconds the interval may spend, accounted in
  /// per-tenant cost estimates (EWMA of measured tick wall time on the
  /// dedicated pool).
  double cpu_seconds = 0.0;
  /// Hard cap on tenants tuned per interval.
  int max_tenants = 0;
  /// Cap on validation clones materialized per interval (one per tenant
  /// tick when `validate_on_clone` is on).
  int max_clones = 0;
};

struct FleetTunerOptions {
  /// Per-tenant tuner options, alike for every tenant. Each tenant tuner
  /// borrows the fleet's cache store and worker pool.
  ContinuousTunerOptions tuner;
  optimizer::CostModel cost_model = optimizer::CostModel();
  FleetBudget budget;
  /// Width of the shared worker pool both fan-out levels run on: tenant
  /// ticks, and each tick's inner what-if work one nesting level deeper
  /// (see common::ThreadPool's helping protocol). 1 = serial fleet loop.
  int num_threads = 1;
  /// Priority aging per starved interval (see Priority below); > 0
  /// guarantees every tenant is eventually scheduled under any budget
  /// that admits at least one tenant per interval.
  double aging_rate = 0.25;
  /// Benefit prior for never-tuned tenants, CPU seconds.
  double default_benefit_seconds = 0.010;
  /// Cost estimate for never-tuned tenants, CPU seconds.
  double default_cost_seconds = 0.050;
  /// EWMA weight of the newest measured tick cost (0..1].
  double cost_smoothing = 0.5;
  /// Multiplicative decay of a tenant's benefit estimate after an
  /// interval that changed nothing (converged tenants sink down the
  /// ranking until their workload shifts).
  double converged_decay = 0.5;
  FleetCacheStoreOptions cache_store;
};

/// What the scheduler decided and observed for one tenant this interval.
struct TenantOutcome {
  std::string tenant;
  uint64_t schema_fingerprint = 0;
  /// Scheduling inputs, as of the decision point.
  double priority = 0.0;
  double estimated_benefit_seconds = 0.0;
  double estimated_cost_seconds = 0.0;
  int intervals_since_tuned = 0;
  /// True when the tenant was scheduled (report/measured fields valid).
  bool tuned = false;
  /// True when an admissible tenant was passed over for budget.
  bool skipped_for_budget = false;
  IntervalReport report;
  double measured_seconds = 0.0;
  /// True when this tenant's cache already existed in the store (a
  /// same-schema sibling made it, this interval or earlier). A store
  /// first made for this tenant counts as not shared, even when it
  /// warm-started from a disk snapshot.
  bool cache_shared = false;
};

struct FleetIntervalReport {
  int interval = 0;
  size_t tenants_considered = 0;
  size_t tenants_tuned = 0;
  size_t tenants_skipped_budget = 0;
  size_t degraded_ticks = 0;
  double estimated_spend_seconds = 0.0;
  double measured_spend_seconds = 0.0;
  size_t cache_stores = 0;
  /// Registration order, one entry per tenant.
  std::vector<TenantOutcome> outcomes;
};

/// \brief Fleet-scale multi-tenant tuning (Sec. VII): N tenant databases
/// with distinct schemas and workloads, one tuning service.
///
/// Each RunInterval ranks every tenant by estimated benefit — measured
/// improvement deltas from the tenant's last tuned IntervalReport plus
/// the aggregator's workload-pressure signal — aged by intervals since
/// last tuned so starved tenants eventually win, then admits tenants in
/// rank order under the global budget and fans the admitted ticks over
/// the shared pool. Inner what-if work nests one level deeper on the
/// same pool (no second pool, no nested-pool deadlock — see
/// common::ThreadPool). Per-tenant decisions are bit-identical to an
/// isolated ContinuousTuner run with the same per-tenant options: the
/// schedule changes WHEN a tenant is tuned, never WHAT a tick decides,
/// and cache/pool sharing are decision-invariant by construction.
class FleetTuner {
 public:
  explicit FleetTuner(FleetTunerOptions options = {});

  /// Registers a tenant. `db`, `workload`, and `monitor` (optional,
  /// bootstrap mode when null) must outlive the tuner. Registration
  /// order is the deterministic tie-break everywhere.
  void AddTenant(std::string name, storage::Database* db,
                 const workload::Workload* workload,
                 const workload::WorkloadMonitor* monitor = nullptr);

  /// One fleet interval: rank, admit under budget, tune in parallel,
  /// fold outcomes, persist + trim the cache store.
  Result<FleetIntervalReport> RunInterval();

  /// The warehouse-side stats view; attach StatsExporters here to feed
  /// the scheduler monitor-driven benefit signals.
  support::FleetAggregator* aggregator() { return &aggregator_; }

  FleetCacheStore* cache_store() { return &cache_store_; }
  size_t tenant_count() const { return tenants_.size(); }
  int intervals_run() const { return interval_; }

 private:
  struct TenantState {
    std::string name;
    storage::Database* db = nullptr;
    const workload::Workload* workload = nullptr;
    const workload::WorkloadMonitor* monitor = nullptr;
    std::unique_ptr<ContinuousTuner> tuner;
    /// Measured-improvement estimate from the last tuned interval.
    double benefit_estimate = 0.0;
    /// EWMA of measured tick seconds.
    double cost_estimate = 0.0;
    int intervals_since_tuned = 0;
    bool ever_tuned = false;
  };

  double Priority(const TenantState& t, double benefit) const;
  /// Benefit signal for ranking: last report's measured per-query CPU
  /// deltas (or the never-tuned prior) plus the aggregator's view.
  double BenefitEstimate(const TenantState& t) const;

  FleetTunerOptions options_;
  std::vector<TenantState> tenants_;
  support::FleetAggregator aggregator_;
  FleetCacheStore cache_store_;
  common::ThreadPool pool_;
  int interval_ = 0;
};

}  // namespace aim::core

#endif  // AIM_CORE_FLEET_H_
