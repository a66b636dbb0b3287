// Workload compression + incremental candidate generation: a 10k-template
// synthetic interval (each template standing for ~10 raw statements, the
// shape of an hour of production traffic after the monitor's folding)
// tuned twice. Interval 1 is cold; interval 2 re-runs after a 20% template
// drift with the candidate cache carried, so candidate generation only
// pays for the drifted clusters. Reported: compression ratio (raw
// statements per cluster), per-interval wall/candgen time, and the
// interval-2 cluster reuse rate — the sublinearity evidence.
//
// Writes the `workload_compression` section of BENCH_results.json.
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_json.h"
#include "bench/bench_util.h"
#include "core/aim.h"
#include "core/candidate_cache.h"
#include "workload/compression.h"
#include "workload/demo.h"

using namespace aim;

namespace {

using Clock = std::chrono::steady_clock;

constexpr int kTemplates = 10000;
constexpr uint64_t kMultiplicity = 10;  // raw statements per template
constexpr double kDrift = 0.2;          // templates replaced in interval 2

/// Enumerates structurally distinct SELECT templates over the users
/// table: select-list × first predicate (column, op) × optional second
/// predicate × ORDER BY × LIMIT variants. `salt` appends an extra
/// BETWEEN conjunct, minting shapes outside the base enumeration (the
/// drifted replacements of interval 2).
std::vector<std::string> MakeTemplates(int n, bool salt) {
  static constexpr const char* kCols[] = {"id", "org_id", "status", "score",
                                          "created_at"};
  static constexpr const char* kSelects[] = {
      "id",          "email",           "id, email",
      "org_id, score", "id, status, score", "created_at"};
  static constexpr const char* kOps[] = {" = 1", " < 7", " > 3"};
  std::vector<std::string> out;
  out.reserve(n);
  for (int limit = 0; limit < 2 && static_cast<int>(out.size()) < n;
       ++limit) {
    for (const char* sel : kSelects) {
      for (size_t a = 0; a < 5; ++a) {
        for (const char* opa : kOps) {
          for (int b = -1; b < 5 * 3; ++b) {
            if (b >= 0 && static_cast<size_t>(b) / 3 == a) continue;
            for (int order = -1; order < 5; ++order) {
              if (static_cast<int>(out.size()) >= n) return out;
              std::string sql = std::string("SELECT ") + sel +
                                " FROM users WHERE " + kCols[a] + opa;
              if (b >= 0) {
                sql += std::string(" AND ") + kCols[b / 3] + kOps[b % 3];
              }
              if (salt) sql += " AND score BETWEEN 10 AND 90";
              if (order >= 0) {
                sql += std::string(" ORDER BY ") + kCols[order];
              }
              if (limit == 1) sql += " LIMIT 10";
              out.push_back(std::move(sql));
            }
          }
        }
      }
    }
  }
  return out;
}

/// One interval's raw workload: every template carried with the
/// multiplicity the monitor's statement folding would report.
workload::Workload MakeInterval(const std::vector<std::string>& templates) {
  workload::Workload w;
  for (const std::string& sql : templates) {
    if (!w.Add(sql, 1.0).ok()) {
      std::fprintf(stderr, "bad template: %s\n", sql.c_str());
      continue;
    }
    w.queries.back().multiplicity = kMultiplicity;
    w.queries.back().weight = static_cast<double>(kMultiplicity);
  }
  return w;
}

}  // namespace

int main(int argc, char** argv) {
  const int templates = argc > 1 ? std::atoi(argv[1]) : kTemplates;
  bench::Header(
      "Workload compression + incremental candidate generation — " +
      std::to_string(templates) + "-template interval, " +
      std::to_string(static_cast<int>(kDrift * 100)) +
      "% drift on interval 2");

  storage::Database db = workload::MakeUsersDemoDb(2000, /*seed=*/7);

  std::vector<std::string> base = MakeTemplates(templates, /*salt=*/false);
  std::vector<std::string> drifted = base;
  const size_t replaced = static_cast<size_t>(kDrift * base.size());
  const std::vector<std::string> fresh =
      MakeTemplates(static_cast<int>(replaced), /*salt=*/true);
  for (size_t i = 0; i < replaced && i < fresh.size(); ++i) {
    drifted[i] = fresh[i];
  }

  core::CandidateCache cache(4 * static_cast<size_t>(templates));
  core::AimOptions options;
  options.num_threads = 4;
  options.compression.enabled = true;
  // Single-pass generation: the carried-cluster arithmetic is the point
  // here, and a drifted phase-1 candidate set would legitimately change
  // phase 2's whole staged-configuration context.
  options.two_phase = false;
  core::TuningResources resources;
  resources.candidate_cache = &cache;
  core::AutomaticIndexManager aim(&db, optimizer::CostModel(), options,
                                  resources);

  const auto run = [&](const workload::Workload& w, const char* what)
      -> core::AimRunStats {
    const auto t0 = Clock::now();
    Result<core::AimReport> r = aim.Recommend(w, nullptr);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!r.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", what,
                   r.status().ToString().c_str());
      return {};
    }
    core::AimRunStats stats = r.ValueOrDie().stats;
    stats.runtime_seconds = wall;
    std::printf(
        "%s: %.2fs wall (compress %.3fs, candgen %.3fs) — %llu stmts -> "
        "%zu clusters (%.1fx), clusters reused %zu / %zu, "
        "%zu indexes recommended\n",
        what, wall, stats.compression_seconds, stats.candgen_seconds,
        static_cast<unsigned long long>(stats.compression_statements_in),
        stats.compression_clusters, stats.compression_ratio,
        stats.candgen_clusters_reused, stats.candgen_clusters_total,
        r.ValueOrDie().recommended.size());
    return stats;
  };

  const workload::Workload w1 = MakeInterval(base);
  const workload::Workload w2 = MakeInterval(drifted);
  const core::AimRunStats first = run(w1, "interval 1 (cold)");
  const core::AimRunStats second = run(w2, "interval 2 (20% drift)");

  const bool ratio_ok = first.compression_ratio >= 10.0;
  const bool reuse_ok = second.candgen_reuse_rate() >= 0.6;
  std::printf(
      "compression ratio %.1fx (target >= 10x): %s\n"
      "interval-2 cluster reuse %.1f%% (target >= 60%%): %s\n",
      first.compression_ratio, ratio_ok ? "PASS" : "FAIL",
      100.0 * second.candgen_reuse_rate(), reuse_ok ? "PASS" : "FAIL");

  bench::JsonObject out;
  out.Add("templates", templates)
      .Add("multiplicity", kMultiplicity)
      .Add("statements_in", first.compression_statements_in)
      .Add("clusters", static_cast<uint64_t>(first.compression_clusters))
      .Add("compression_ratio", first.compression_ratio)
      .Add("compression_ratio_target_met", ratio_ok)
      .Add("interval1_wall_seconds", first.runtime_seconds)
      .Add("interval1_compress_seconds", first.compression_seconds)
      .Add("interval1_candgen_seconds", first.candgen_seconds)
      .Add("interval2_wall_seconds", second.runtime_seconds)
      .Add("interval2_candgen_seconds", second.candgen_seconds)
      .Add("interval2_clusters_total",
           static_cast<uint64_t>(second.candgen_clusters_total))
      .Add("interval2_clusters_reused",
           static_cast<uint64_t>(second.candgen_clusters_reused))
      .Add("interval2_clusters_recomputed",
           static_cast<uint64_t>(second.candgen_clusters_recomputed))
      .Add("interval2_reuse_rate", second.candgen_reuse_rate())
      .Add("interval2_reuse_target_met", reuse_ok)
      .AddRaw("run_meta", bench::RunMetadataJson(/*threads_used=*/4));
  if (!bench::WriteJsonSection("BENCH_results.json", "workload_compression",
                               out)) {
    std::fprintf(stderr, "failed to write BENCH_results.json\n");
    return 1;
  }
  return ratio_ok && reuse_ok ? 0 : 2;
}
