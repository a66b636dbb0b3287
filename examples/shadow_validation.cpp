// Clone validation demo (Sec. VII-B, the MyShadow contract): validate a
// risky index change on clones of production before touching production
// — including catching a change that would regress a query.
//
//   $ ./shadow_validation
#include <cstdio>
#include <vector>

#include "core/clone_validation.h"
#include "workload/demo.h"

using namespace aim;

int main() {
  storage::Database production = workload::MakeUsersDemoDb(20000);

  workload::Workload w;
  (void)w.Add("SELECT id FROM users WHERE org_id = 5", 10.0);
  (void)w.Add("SELECT email FROM users WHERE status = 2 AND score > 900",
              5.0);
  (void)w.Add(
      "UPDATE users SET score = 0 WHERE created_at BETWEEN 100 AND 120",
      20.0);
  std::vector<core::SelectedQuery> queries;
  for (const workload::Query& q : w.queries) {
    core::SelectedQuery sq;
    sq.query = &q;
    queries.push_back(sq);
  }

  // Proposed change: two candidate indexes, one useful, one that only
  // adds write amplification.
  core::CandidateIndex useful;
  useful.def.table = 0;
  useful.def.columns = {1};  // org_id
  core::CandidateIndex write_burden;
  write_burden.def.table = 0;
  write_burden.def.columns = {3, 4, 5};  // score, created_at, email

  // Replays the workload on a control clone (production as-is) and a
  // test clone with both candidates built as real B+Trees.
  Result<core::CloneValidationResult> r = core::ValidateOnClone(
      production, {useful, write_burden}, queries, optimizer::CostModel());
  if (!r.ok()) {
    std::fprintf(stderr, "validation failed: %s\n",
                 r.status().ToString().c_str());
    return 1;
  }
  const core::CloneValidationResult& v = r.ValueOrDie();
  std::printf("replayed %zu statements on both clones (%zu failed)\n",
              v.executed, v.failed);

  // Per-query verdicts: the UPDATE pays maintenance on the wide index.
  std::printf("\n%-55s %12s %12s\n", "query", "cpu before", "cpu after");
  for (const core::QueryValidation& q : v.per_query) {
    for (const workload::Query& wq : w.queries) {
      if (wq.fingerprint != q.fingerprint) continue;
      std::printf("%-55.55s %12.6f %12.6f %s\n", wq.normalized_sql.c_str(),
                  q.cpu_before, q.cpu_after,
                  q.regressed ? "<-- REGRESSION" : "");
      break;
    }
  }
  std::printf("\naccepted %zu, rejected as unused %zu, no regressions: %s\n",
              v.accepted.size(), v.rejected_unused.size(),
              v.no_regressions ? "yes" : "no");
  std::printf("production untouched: %zu indexes\n",
              production.catalog().AllIndexes(false, false).size());
  return 0;
}
