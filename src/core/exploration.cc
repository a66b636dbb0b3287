#include "core/exploration.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/snapshot_file.h"
#include "obs/metrics.h"

namespace aim::core {

namespace {

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (i * 8)) & 0xff;
    h *= 1099511628211ULL;
  }
  return h;
}

}  // namespace

uint64_t IndexArmKey(const catalog::IndexDef& def) {
  uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  h = Fnv1a(h, static_cast<uint64_t>(def.table));
  h = Fnv1a(h, static_cast<uint64_t>(def.columns.size()));
  for (catalog::ColumnId c : def.columns) {
    h = Fnv1a(h, static_cast<uint64_t>(c));
  }
  return h;
}

size_t ExplorationGate::SyncFingerprint(uint64_t fingerprint) {
  if (fingerprint == fingerprint_) return 0;
  size_t released = 0;
  for (auto it = quarantine_.begin(); it != quarantine_.end();) {
    if (it->second.fingerprint != fingerprint) {
      if (it->second.quarantined) ++released;
      it = quarantine_.erase(it);
    } else {
      ++it;
    }
  }
  // Measured benefits were computed under the old schema/statistics;
  // after a drift they may be arbitrarily wrong, so arms fall back to the
  // optimistic what-if prior (pull counts survive — the arm's exploration
  // history is real even if its reward samples went stale).
  for (auto& [key, arm] : arms_) {
    (void)key;
    arm.measured_count = 0;
    arm.measured_total_seconds = 0.0;
  }
  fingerprint_ = fingerprint;
  return released;
}

bool ExplorationGate::IsQuarantined(const catalog::IndexDef& def) const {
  auto it = quarantine_.find(IndexArmKey(def));
  return it != quarantine_.end() && it->second.quarantined;
}

double ExplorationGate::UcbScore(const CandidateIndex& c,
                                 uint64_t total_pulls) const {
  const uint64_t key = IndexArmKey(c.def);
  uint64_t pulls = 0;
  double estimate = c.benefit;  // optimistic what-if prior
  auto it = arms_.find(key);
  if (it != arms_.end()) {
    pulls = it->second.pulls;
    if (it->second.measured_count > 0) {
      estimate = it->second.measured_total_seconds /
                 static_cast<double>(it->second.measured_count);
    }
  }
  const double bonus =
      options_.ucb_coefficient * reward_scale_ *
      std::sqrt(std::log(1.0 + static_cast<double>(total_pulls)) /
                (1.0 + static_cast<double>(pulls)));
  return estimate + bonus;
}

double ExplorationGate::DownsideRisk(const CandidateIndex& c) const {
  double risk = std::max(c.maintenance, 0.0);
  auto it = arms_.find(IndexArmKey(c.def));
  const bool measured = it != arms_.end() && it->second.measured_count > 0;
  if (!measured) {
    risk += options_.unproven_risk_fraction * std::max(c.benefit, 0.0);
  }
  return risk;
}

AdmissionDecision ExplorationGate::Admit(
    const std::vector<CandidateIndex>& validated) {
  AdmissionDecision decision;
  if (validated.empty()) return decision;

  uint64_t total_pulls = 0;
  for (const auto& [key, arm] : arms_) {
    (void)key;
    total_pulls += arm.pulls;
  }

  // Rank by UCB score; arm key breaks ties so the order is a pure
  // function of gate state + candidates (bit-identical at any thread
  // count — the inputs already are).
  struct Ranked {
    const CandidateIndex* c;
    double score;
    uint64_t key;
  };
  std::vector<Ranked> ranked;
  ranked.reserve(validated.size());
  for (const CandidateIndex& c : validated) {
    ranked.push_back({&c, UcbScore(c, total_pulls), IndexArmKey(c.def)});
  }
  std::sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                             const Ranked& b) {
    if (a.score != b.score) return a.score > b.score;
    return a.key < b.key;
  });

  const double budget = options_.regret_budget_seconds;
  for (const Ranked& r : ranked) {
    const double risk = DownsideRisk(*r.c);
    const bool fits = budget <= 0.0 ||
                      decision.projected_regret_seconds + risk <= budget;
    // Soft budget: the top arm always goes through, mirroring the fleet's
    // soft CPU budget — exploration throttles, it never stalls.
    if (fits || decision.admitted.empty()) {
      decision.projected_regret_seconds += risk;
      decision.admitted.push_back(*r.c);
      ++arms_[r.key].pulls;
    } else {
      decision.deferred.push_back(*r.c);
    }
  }
  return decision;
}

void ExplorationGate::ObserveValidation(
    const std::vector<CandidateIndex>& applied,
    const CloneValidationResult& validation) {
  if (applied.empty() || validation.per_query.empty()) return;
  for (const CandidateIndex& c : applied) {
    double measured = 0.0;
    bool any = false;
    for (const QueryValidation& q : validation.per_query) {
      if (std::find(c.benefiting_queries.begin(),
                    c.benefiting_queries.end(),
                    q.fingerprint) == c.benefiting_queries.end()) {
        continue;
      }
      measured += q.cpu_before - q.cpu_after;
      any = true;
    }
    if (!any) continue;
    ArmState& arm = arms_[IndexArmKey(c.def)];
    ++arm.measured_count;
    arm.measured_total_seconds += measured;
  }
}

bool ExplorationGate::ObserveRegression(const catalog::IndexDef& def) {
  QuarantineState& q = quarantine_[IndexArmKey(def)];
  q.def = def;
  q.def.hypothetical = false;
  q.fingerprint = fingerprint_;
  ++q.offenses;
  if (!q.quarantined && q.offenses >= options_.quarantine_after_offenses) {
    q.quarantined = true;
    static obs::Counter* const quarantined =
        obs::MetricsRegistry::Global()->counter(
            "aim.exploration.quarantined");
    quarantined->Add();
    return true;
  }
  return false;
}

void ExplorationGate::ObserveFleetBenefit(double benefit_seconds) {
  const double sample = std::fabs(benefit_seconds);
  reward_scale_ = 0.5 * reward_scale_ + 0.5 * sample;
  // Floor keeps the confidence bonus alive through quiet fleets (a zero
  // scale would freeze exploration entirely).
  reward_scale_ = std::max(reward_scale_, 1e-3);
}

std::string ExplorationGate::SaveTo() const {
  SnapshotWriter out(SnapshotKind::kExplorationGate);
  out.Put(fingerprint_);
  out.Put(reward_scale_);
  out.Put(static_cast<uint64_t>(arms_.size()));
  static_assert(sizeof(ArmState) == 24);  // saved as raw bytes: no padding
  for (const auto& [key, arm] : arms_) {
    out.Put(key);
    out.Put(arm);  // pulls u64, measured_count u64, measured total f64
  }
  out.Put(static_cast<uint64_t>(quarantine_.size()));
  for (const auto& [key, q] : quarantine_) {
    out.Put(key);
    out.Put(static_cast<int32_t>(q.offenses));
    out.Put(static_cast<uint8_t>(q.quarantined ? 1 : 0));
    out.Put(q.fingerprint);
    out.Put(static_cast<int32_t>(q.def.table));
    out.PutString(q.def.name);
    out.Put(static_cast<uint64_t>(q.def.columns.size()));
    for (catalog::ColumnId c : q.def.columns) {
      out.Put(static_cast<int32_t>(c));
    }
  }
  return std::move(out).Finish();
}

bool ExplorationGate::LoadFrom(std::string_view image, uint64_t fingerprint) {
  SnapshotReader in(SnapshotKind::kExplorationGate, image);
  uint64_t fp = 0;
  double scale = 1.0;
  if (!in.Get(&fp) || fp != fingerprint || !in.Get(&scale)) return false;
  // Staged: the gate changes only once the whole image has decoded.
  std::map<uint64_t, ArmState> arms;
  std::map<uint64_t, QuarantineState> quarantine;
  uint64_t n = 0;
  in.Get(&n);
  for (uint64_t i = 0; i < n && in.ok(); ++i) {
    uint64_t key = 0;
    ArmState arm;
    in.Get(&key);
    in.Get(&arm);
    arms[key] = arm;
  }
  in.Get(&n);
  for (uint64_t i = 0; i < n && in.ok(); ++i) {
    uint64_t key = 0;
    QuarantineState q;
    int32_t offenses = 0;
    uint8_t quarantined = 0;
    int32_t table = 0;
    uint64_t ncols = 0;
    in.Get(&key);
    in.Get(&offenses);
    in.Get(&quarantined);
    in.Get(&q.fingerprint);
    in.Get(&table);
    in.GetString(&q.def.name);
    in.Get(&ncols);
    q.offenses = offenses;
    q.quarantined = quarantined != 0;
    q.def.table = static_cast<catalog::TableId>(table);
    q.def.created_by_automation = true;
    int32_t col = 0;
    for (uint64_t ci = 0; ci < ncols && in.Get(&col); ++ci) {
      q.def.columns.push_back(static_cast<catalog::ColumnId>(col));
    }
    quarantine[key] = std::move(q);
  }
  if (!in.done()) return false;
  fingerprint_ = fp;
  reward_scale_ = scale;
  arms_ = std::move(arms);
  quarantine_ = std::move(quarantine);
  return true;
}

std::vector<ArmView> ExplorationGate::arms() const {
  std::vector<ArmView> out;
  out.reserve(arms_.size());
  for (const auto& [key, arm] : arms_) {
    out.push_back({key, arm.pulls, arm.measured_count,
                   arm.measured_total_seconds});
  }
  return out;
}

std::vector<QuarantineView> ExplorationGate::quarantine() const {
  std::vector<QuarantineView> out;
  out.reserve(quarantine_.size());
  for (const auto& [key, q] : quarantine_) {
    out.push_back({key, q.def, q.offenses, q.quarantined, q.fingerprint});
  }
  return out;
}

std::set<uint64_t> ExplorationGate::quarantined_keys() const {
  std::set<uint64_t> out;
  for (const auto& [key, q] : quarantine_) {
    if (q.quarantined) out.insert(key);
  }
  return out;
}

}  // namespace aim::core
