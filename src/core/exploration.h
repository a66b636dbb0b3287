#ifndef AIM_CORE_EXPLORATION_H_
#define AIM_CORE_EXPLORATION_H_

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "catalog/catalog.h"
#include "core/clone_validation.h"
#include "core/ranking.h"

namespace aim::core {

/// Stable identity of a candidate index as a bandit arm: a hash of its
/// table and key columns only. Ids, names, and flags are excluded so the
/// same logical index maps to the same arm across intervals, restarts,
/// and databases rebuilt from the same schema (no pointers, no ASLR).
uint64_t IndexArmKey(const catalog::IndexDef& def);

/// Knobs of the bandit-style exploration gate (DBA bandits, PAPERS.md:
/// bound the regret of online index exploration under ad-hoc workloads).
struct ExplorationOptions {
  /// Master switch; the tuner constructs no gate when false.
  bool enabled = false;
  /// Scale of the UCB confidence bonus. 0 = pure exploitation (rank by
  /// measured/estimated benefit alone).
  double ucb_coefficient = 1.0;
  /// Per-interval regret budget, CPU seconds: the summed downside risk of
  /// the indexes admitted in one interval may not exceed this. The budget
  /// is soft the same way the fleet's CPU budget is soft — the top-ranked
  /// arm is always admitted, so tuning can never stall outright.
  /// Non-positive = unconstrained.
  double regret_budget_seconds = 0.05;
  /// Offenses (distinct intervals in which RegressionDetector implicated
  /// the index) before an arm is quarantined.
  int quarantine_after_offenses = 2;
  /// Downside risk charged to a never-measured arm, as a fraction of its
  /// estimated benefit (an optimistic estimate may be entirely wrong;
  /// maintenance cost alone understates the exposure).
  double unproven_risk_fraction = 0.5;
  /// When non-empty, the owning ContinuousTuner saves the gate's state
  /// here after every successful Tick and loads it on its first; a
  /// missing, corrupt or drifted snapshot is a cold start.
  std::string state_path;
};

/// One candidate's admission-time bandit accounting, for reports/tests.
struct ArmView {
  uint64_t key = 0;
  uint64_t pulls = 0;
  uint64_t measured_count = 0;
  /// Sum of measured per-interval benefits (validated CPU-seconds deltas
  /// over the arm's benefiting queries).
  double measured_total_seconds = 0.0;
};

/// Quarantine bookkeeping of one repeat-offender arm.
struct QuarantineView {
  uint64_t key = 0;
  catalog::IndexDef def;
  int offenses = 0;
  bool quarantined = false;
  /// Schema/stats fingerprint the offenses were observed under; drift
  /// invalidates the entry (SyncFingerprint).
  uint64_t fingerprint = 0;
};

/// What Admit decided for one interval.
struct AdmissionDecision {
  /// Admitted candidates in UCB order (best first).
  std::vector<CandidateIndex> admitted;
  /// Deferred for regret budget this interval (not rejected — they simply
  /// retry next interval, when installed arms have left the pool).
  std::vector<CandidateIndex> deferred;
  /// Σ downside risk of the admitted set, CPU seconds.
  double projected_regret_seconds = 0.0;
};

/// Admission summary embedded in AimReport (zeros when no gate is set).
struct ExplorationSummary {
  bool gated = false;
  size_t candidates_quarantined = 0;
  size_t admitted = 0;
  size_t deferred = 0;
  double projected_regret_seconds = 0.0;
  double regret_budget_seconds = 0.0;
};

/// \brief Bandit-style exploration gate over candidate index configs.
///
/// Each candidate index is an arm keyed by IndexArmKey. The gate ranks
/// validated candidates by a UCB score — measured mean benefit when the
/// arm has validated evidence, the optimistic what-if estimate otherwise,
/// plus a confidence bonus that shrinks with pulls — and admits greedily
/// until the interval's summed downside risk would exceed the regret
/// budget (top-1 always admitted). Repeat offenders flagged by
/// RegressionDetector are quarantined: excluded from candidate generation
/// until the schema/stats fingerprint drifts, at which point the evidence
/// against them is void and the entry is released.
///
/// Not thread-safe by design: every mutation happens in the tuner's
/// serial sections (admission before apply, regression fold after), which
/// is also what makes decisions bit-identical across worker counts.
class ExplorationGate {
 public:
  explicit ExplorationGate(ExplorationOptions options = {})
      : options_(options) {}

  /// Adopts the current schema/stats fingerprint. Quarantine entries
  /// recorded under a different fingerprint are released (their evidence
  /// predates the drift) and arm measurements are reset; returns how many
  /// quarantined entries the drift released.
  size_t SyncFingerprint(uint64_t fingerprint);

  /// True when the arm of `def` is currently quarantined.
  bool IsQuarantined(const catalog::IndexDef& def) const;

  /// Gate the validated recommendation set for this interval. Mutates arm
  /// state (admitted arms are pulled); call once per interval.
  AdmissionDecision Admit(const std::vector<CandidateIndex>& validated);

  /// Folds validated replay evidence into the admitted arms' measured
  /// benefit: Σ (cpu_before − cpu_after) over each arm's benefiting
  /// queries.
  void ObserveValidation(const std::vector<CandidateIndex>& applied,
                         const CloneValidationResult& validation);

  /// Records one offense against `def` (RegressionDetector implicated it
  /// this interval). Returns true when this offense newly quarantined the
  /// arm.
  bool ObserveRegression(const catalog::IndexDef& def);

  /// Folds a fleet-level benefit measurement (FleetAggregator per-tenant
  /// delta) into the reward scale of the UCB confidence bonus via EWMA.
  /// Scale-only: it widens/narrows every unproven arm's bonus alike.
  void ObserveFleetBenefit(double benefit_seconds);

  /// The gate's state (fingerprint, reward scale, arms, quarantine) as a
  /// snapshot image (SnapshotKind::kExplorationGate).
  std::string SaveTo() const;
  /// Replaces the gate's state with a SaveTo image recorded under
  /// `fingerprint`. Returns false, with the state untouched, when the
  /// image is foreign, an old version, truncated, fails its CRC or was
  /// recorded under another fingerprint: a cold start.
  bool LoadFrom(std::string_view image, uint64_t fingerprint);

  const ExplorationOptions& options() const { return options_; }
  uint64_t fingerprint() const { return fingerprint_; }
  double reward_scale() const { return reward_scale_; }
  /// Deterministic (key-ordered) views, for signatures and tests.
  std::vector<ArmView> arms() const;
  std::vector<QuarantineView> quarantine() const;
  /// Keys currently quarantined, key-ordered.
  std::set<uint64_t> quarantined_keys() const;

 private:
  struct ArmState {
    uint64_t pulls = 0;
    uint64_t measured_count = 0;
    double measured_total_seconds = 0.0;
  };
  struct QuarantineState {
    catalog::IndexDef def;
    int offenses = 0;
    bool quarantined = false;
    uint64_t fingerprint = 0;
  };

  double UcbScore(const CandidateIndex& c, uint64_t total_pulls) const;
  double DownsideRisk(const CandidateIndex& c) const;

  ExplorationOptions options_;
  uint64_t fingerprint_ = 0;
  /// EWMA of |fleet benefit| observations; 1.0 until the first sample.
  double reward_scale_ = 1.0;
  /// std::map: deterministic iteration is part of the bit-identity story.
  std::map<uint64_t, ArmState> arms_;
  std::map<uint64_t, QuarantineState> quarantine_;
};

}  // namespace aim::core

#endif  // AIM_CORE_EXPLORATION_H_
