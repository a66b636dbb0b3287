#include "core/candidate_generation.h"

#include <algorithm>
#include <set>

#include "common/logging.h"
#include "core/merge.h"
#include "optimizer/access_path.h"
#include "optimizer/selectivity.h"

namespace aim::core {

namespace {

using optimizer::AnalyzedQuery;
using optimizer::AtomicPredicate;
using optimizer::Factor;

/// Sargable predicate columns of `instance` within one DNF factor,
/// restricted to `allowed` (empty allowed = no restriction).
struct FactorGroup {
  std::vector<catalog::ColumnId> ipp;       // index-prefix columns
  std::vector<catalog::ColumnId> residual;  // range/like columns
};

void InsertUnique(std::vector<catalog::ColumnId>* v, catalog::ColumnId c) {
  if (std::find(v->begin(), v->end(), c) == v->end()) v->push_back(c);
}

bool Allowed(const std::vector<catalog::ColumnId>& allowed,
             catalog::ColumnId c) {
  return std::find(allowed.begin(), allowed.end(), c) != allowed.end();
}

}  // namespace

/// The DNF factors candidate generation may target. With index-merge
/// union disabled on the fleet, per-OR-factor candidates cannot be used
/// by any plan, so only the conjunctive skeleton is considered.
static std::vector<optimizer::Factor> EffectiveFactors(
    const optimizer::AnalyzedQuery& aq,
    const optimizer::OptimizerSwitches& switches) {
  if (!switches.index_merge_union && aq.dnf.size() > 1) {
    return {optimizer::Factor{aq.conjuncts}};
  }
  std::vector<optimizer::Factor> out;
  out.reserve(aq.dnf.size());
  for (const optimizer::Factor& f : aq.dnf) out.push_back(f);
  return out;
}

std::vector<std::vector<int>> CandidateGenerator::JoinedTablesPowerset(
    const AnalyzedQuery& aq, int instance, int j) const {
  std::vector<int> partners;
  for (const auto& [col, other] : aq.JoinColumnsOf(instance)) {
    (void)col;
    if (std::find(partners.begin(), partners.end(), other) ==
        partners.end()) {
      partners.push_back(other);
    }
  }
  // Algorithm 3: too many partners -> only the empty set (no exhaustive
  // join-order support for this table).
  if (static_cast<int>(partners.size()) > j) partners.clear();
  std::vector<std::vector<int>> powerset;
  const size_t n = partners.size();
  for (size_t mask = 0; mask < (size_t{1} << n); ++mask) {
    std::vector<int> subset;
    for (size_t b = 0; b < n; ++b) {
      if ((mask >> b) & 1) subset.push_back(partners[b]);
    }
    powerset.push_back(std::move(subset));
  }
  return powerset;
}

double CandidateGenerator::DatalessIndexCost(
    const workload::Query& query, catalog::TableId table,
    const std::vector<catalog::ColumnId>& ipp, catalog::ColumnId extra) {
  ++dataless_cost_calls_;
  if (what_if_ == nullptr || !options_.use_dataless_cost) {
    // Fallback: raw per-column cardinality (no optimizer consultation) --
    // prefer the column with more distinct values.
    return catalog_->column_stats({table, extra}).DefaultEqSelectivity();
  }
  catalog::IndexDef def;
  def.table = table;
  def.columns = ipp;
  def.columns.push_back(extra);
  // Probe with the candidate index alone, then restore the ambient
  // configuration (e.g. the staged phase-1 candidates of two-phase
  // generation) so the covering checks of *later* queries still see it —
  // each query's generation is independent of where it sits in the loop,
  // which is also what lets the per-query fan-out chunk arbitrarily.
  const std::vector<catalog::IndexDef> ambient =
      what_if_->CurrentConfiguration();
  Status st = what_if_->SetConfiguration({def});
  double cost = 1e30;
  if (st.ok()) {
    Result<double> c = what_if_->QueryCost(query.stmt);
    if (c.ok()) cost = c.ValueOrDie();
  }
  if (!what_if_->SetConfiguration(ambient).ok()) {
    what_if_->ClearConfiguration();
  }
  return cost;
}

std::vector<PartialOrder>
CandidateGenerator::GenerateCandidateIndexPredicates(
    const workload::Query& query, const AnalyzedQuery& aq, int instance,
    const std::vector<catalog::ColumnId>& columns,
    const std::vector<catalog::ColumnId>& join_columns) {
  const catalog::TableId table = aq.instances[instance].table;
  std::vector<PartialOrder> out;
  PartialOrderSet seen;

  // FactorizeIndexPredicates: one group per DNF factor, restricted to the
  // allowed columns; join columns act as equality (IPP) members of every
  // group.
  const std::vector<Factor> factors = EffectiveFactors(aq, options_.switches);
  std::vector<FactorGroup> groups;
  for (const Factor& factor : factors) {
    FactorGroup g;
    for (const AtomicPredicate& p : factor.predicates) {
      if (p.column.instance != instance) continue;
      if (!p.is_sargable()) continue;
      if (!Allowed(columns, p.column.column)) continue;
      if (p.is_index_prefix()) {
        InsertUnique(&g.ipp, p.column.column);
      } else {
        InsertUnique(&g.residual, p.column.column);
      }
    }
    for (catalog::ColumnId c : join_columns) {
      if (Allowed(columns, c)) InsertUnique(&g.ipp, c);
    }
    // A column with both an IPP and a range predicate counts as IPP.
    g.residual.erase(
        std::remove_if(g.residual.begin(), g.residual.end(),
                       [&](catalog::ColumnId c) {
                         return std::find(g.ipp.begin(), g.ipp.end(), c) !=
                                g.ipp.end();
                       }),
        g.residual.end());
    if (g.ipp.empty() && g.residual.empty()) continue;
    groups.push_back(std::move(g));
  }

  for (FactorGroup& g : groups) {
    if (options_.ipp_selectivity_floor > 0.0 && g.ipp.size() > 1) {
      // IPP relaxation (Sec. V-A): order prefix columns most selective
      // first and stop once the additive selectivity falls below the
      // floor — further columns cannot reduce the scanned range.
      std::sort(g.ipp.begin(), g.ipp.end(),
                [&](catalog::ColumnId a, catalog::ColumnId b) {
                  return catalog_->column_stats({table, a})
                             .DefaultEqSelectivity() <
                         catalog_->column_stats({table, b})
                             .DefaultEqSelectivity();
                });
      double cumulative = 1.0;
      size_t keep = 0;
      for (; keep < g.ipp.size(); ++keep) {
        if (cumulative < options_.ipp_selectivity_floor) break;
        cumulative *= std::max(
            catalog_->column_stats({table, g.ipp[keep]})
                .DefaultEqSelectivity(),
            1e-12);
      }
      g.ipp.resize(std::max<size_t>(1, keep));
    }
    PartialOrder po(table);
    po.AppendPartition(g.ipp);
    if (!g.residual.empty()) {
      // last_col = argmin dataless_index_cost(Q, <C_IPP, {c}>).
      catalog::ColumnId best = g.residual[0];
      if (g.residual.size() > 1) {
        double best_cost = DatalessIndexCost(query, table, g.ipp, best);
        for (size_t i = 1; i < g.residual.size(); ++i) {
          const double c =
              DatalessIndexCost(query, table, g.ipp, g.residual[i]);
          if (c < best_cost) {
            best_cost = c;
            best = g.residual[i];
          }
        }
      }
      po.AppendPartition({best});
    }
    if (po.empty()) continue;
    AppendUnique(std::move(po), &seen, &out);
  }
  return out;
}

std::vector<PartialOrder> CandidateGenerator::GenerateCandidatesForSelection(
    const workload::Query& query, const AnalyzedQuery& aq, int j,
    CoveringMode mode) {
  std::vector<PartialOrder> out;
  PartialOrderSet seen;
  for (int t = 0; t < static_cast<int>(aq.instances.size()); ++t) {
    // C_F: columns of t featuring in (sargable) filter predicates.
    std::vector<catalog::ColumnId> c_f;
    for (const Factor& factor : EffectiveFactors(aq, options_.switches)) {
      for (const AtomicPredicate& p : factor.predicates) {
        if (p.column.instance == t && p.is_sargable()) {
          InsertUnique(&c_f, p.column.column);
        }
      }
    }
    for (const std::vector<int>& s : JoinedTablesPowerset(aq, t, j)) {
      // C_J: columns of t joining to any instance in S.
      std::vector<catalog::ColumnId> c_j;
      for (const auto& [col, other] : aq.JoinColumnsOf(t)) {
        if (std::find(s.begin(), s.end(), other) != s.end()) {
          InsertUnique(&c_j, col);
        }
      }
      std::vector<catalog::ColumnId> allowed = c_f;
      for (catalog::ColumnId c : c_j) InsertUnique(&allowed, c);
      if (allowed.empty()) continue;
      std::vector<PartialOrder> candidates = GenerateCandidateIndexPredicates(
          query, aq, t, allowed, c_j);
      if (mode == CoveringMode::kCovering) {
        for (PartialOrder& c : candidates) {
          c.AppendPartition(aq.instances[t].referenced_columns);
        }
      }
      for (PartialOrder& c : candidates) {
        AppendUnique(std::move(c), &seen, &out);
      }
    }
  }
  return out;
}

std::vector<PartialOrder> CandidateGenerator::GenerateCandidatesForGroupBy(
    const workload::Query& query, const AnalyzedQuery& aq, int j,
    CoveringMode mode) {
  (void)query;
  std::vector<PartialOrder> out;
  if (!options_.switches.sort_avoidance) return out;
  PartialOrderSet seen;
  for (int t = 0; t < static_cast<int>(aq.instances.size()); ++t) {
    const auto& inst = aq.instances[t];
    const std::vector<catalog::ColumnId>& c_g = inst.group_by_columns;
    if (c_g.empty()) continue;
    if (mode == CoveringMode::kNonCovering) {
      PartialOrder po(inst.table);
      po.AppendPartition(c_g);
      AppendUnique(std::move(po), &seen, &out);
      continue;
    }
    // Covering: prefix with IPP columns per DNF factor, then group
    // columns, then the remaining referenced columns.
    std::vector<catalog::ColumnId> c_f;
    for (const Factor& factor : EffectiveFactors(aq, options_.switches)) {
      for (const AtomicPredicate& p : factor.predicates) {
        if (p.column.instance == t && p.is_sargable()) {
          InsertUnique(&c_f, p.column.column);
        }
      }
    }
    for (const std::vector<int>& s : JoinedTablesPowerset(aq, t, j)) {
      std::vector<catalog::ColumnId> c_j;
      for (const auto& [col, other] : aq.JoinColumnsOf(t)) {
        if (std::find(s.begin(), s.end(), other) != s.end()) {
          InsertUnique(&c_j, col);
        }
      }
      std::vector<catalog::ColumnId> allowed = c_f;
      for (catalog::ColumnId c : c_j) InsertUnique(&allowed, c);
      for (const Factor& factor : EffectiveFactors(aq, options_.switches)) {
        std::vector<catalog::ColumnId> ipp;
        for (const AtomicPredicate& p : factor.predicates) {
          if (p.column.instance == t && p.is_index_prefix() &&
              Allowed(allowed, p.column.column)) {
            InsertUnique(&ipp, p.column.column);
          }
        }
        for (catalog::ColumnId c : c_j) InsertUnique(&ipp, c);
        PartialOrder po(inst.table);
        po.AppendPartition(ipp);
        po.AppendPartition(c_g);
        po.AppendPartition(inst.referenced_columns);
        if (po.empty()) continue;
        AppendUnique(std::move(po), &seen, &out);
      }
    }
  }
  return out;
}

std::vector<PartialOrder> CandidateGenerator::GenerateCandidatesForOrderBy(
    const workload::Query& query, const AnalyzedQuery& aq, int j,
    CoveringMode mode) {
  std::vector<PartialOrder> out;
  if (!options_.switches.sort_avoidance) return out;
  PartialOrderSet seen;
  for (int t = 0; t < static_cast<int>(aq.instances.size()); ++t) {
    const auto& inst = aq.instances[t];
    if (inst.order_by_columns.empty()) continue;
    std::vector<catalog::ColumnId> c_o;
    for (const auto& o : inst.order_by_columns) {
      c_o.push_back(o.column.column);
    }
    if (mode == CoveringMode::kNonCovering) {
      PartialOrder po(inst.table);
      po.AppendSequence(c_o);  // sequence: the order matters
      AppendUnique(std::move(po), &seen, &out);
      continue;
    }
    std::vector<catalog::ColumnId> c_f;
    for (const Factor& factor : EffectiveFactors(aq, options_.switches)) {
      for (const AtomicPredicate& p : factor.predicates) {
        if (p.column.instance == t && p.is_sargable()) {
          InsertUnique(&c_f, p.column.column);
        }
      }
    }
    for (const std::vector<int>& s : JoinedTablesPowerset(aq, t, j)) {
      std::vector<catalog::ColumnId> c_j;
      for (const auto& [col, other] : aq.JoinColumnsOf(t)) {
        if (std::find(s.begin(), s.end(), other) != s.end()) {
          InsertUnique(&c_j, col);
        }
      }
      std::vector<catalog::ColumnId> allowed = c_f;
      for (catalog::ColumnId c : c_j) InsertUnique(&allowed, c);
      for (const Factor& factor : EffectiveFactors(aq, options_.switches)) {
        std::vector<catalog::ColumnId> ipp;
        for (const AtomicPredicate& p : factor.predicates) {
          if (p.column.instance == t && p.is_index_prefix() &&
              Allowed(allowed, p.column.column)) {
            InsertUnique(&ipp, p.column.column);
          }
        }
        for (catalog::ColumnId c : c_j) InsertUnique(&ipp, c);
        PartialOrder po(inst.table);
        po.AppendPartition(ipp);
        po.AppendSequence(c_o);
        po.AppendPartition(inst.referenced_columns);
        if (po.empty()) continue;
        AppendUnique(std::move(po), &seen, &out);
      }
    }
  }
  (void)query;
  return out;
}

CoveringMode CandidateGenerator::TryCoveringIndex(
    const workload::Query& query, const AnalyzedQuery& aq,
    const workload::QueryStats* stats) {
  (void)query;
  if (!options_.enable_covering) return CoveringMode::kNonCovering;
  // A covering index is tried only when (a) some index — existing or
  // staged hypothetical — already consumes every index-prefix predicate
  // of an instance (selectivity cannot improve further), and (b) that
  // access would still pay enough primary-key seeks to justify the wider
  // index's storage (Sec. III-D). Candidate index *paths* are evaluated
  // directly: whether the optimizer would currently pick them over a
  // scan is irrelevant — high seek volume is exactly why it may not.
  const catalog::Catalog& cat = *catalog_;
  const optimizer::CostModel cm(what_if_ != nullptr
                                    ? what_if_->cost_model()
                                    : optimizer::CostModel());
  const double executions =
      stats != nullptr ? static_cast<double>(stats->executions) : 1.0;
  for (int t = 0; t < static_cast<int>(aq.instances.size()); ++t) {
    const auto preds = aq.ConjunctsForInstance(t);
    size_t ipp_columns = 0;
    bool any_sargable = false;
    for (const auto& p : preds) {
      if (p.is_index_prefix()) ++ipp_columns;
      any_sargable = any_sargable || p.is_sargable();
    }
    if (!any_sargable) continue;
    optimizer::AccessPathRequest req;
    req.query = &aq;
    req.instance = t;
    req.predicates = preds;
    req.include_hypothetical = true;
    for (const catalog::IndexDef* idx :
         cat.TableIndexes(aq.instances[t].table, true)) {
      optimizer::AccessPath path =
          optimizer::EvaluateIndexPath(req, *idx, cat, cm);
      if (path.covering) continue;  // already covering: nothing to add
      // "Not possible to improve selectivity any further": the index
      // already consumes every index-prefix predicate, plus the range
      // residual when there are no IPPs at all (range-only filters).
      if (path.eq_prefix_len < ipp_columns) continue;
      if (path.eq_prefix_len == 0 && !path.range_on_next) continue;
      const double seeks_per_interval = path.rows_fetched * executions;
      if (seeks_per_interval >= options_.covering_seek_threshold) {
        return CoveringMode::kCovering;
      }
    }
  }
  return CoveringMode::kNonCovering;
}

std::vector<PartialOrder> CandidateGenerator::GenerateForQuery(
    const workload::Query& query, const AnalyzedQuery& aq,
    const workload::QueryStats* stats) {
  const CoveringMode mode = TryCoveringIndex(query, aq, stats);
  const int j = options_.join_parameter;
  std::vector<PartialOrder> out =
      GenerateCandidatesForSelection(query, aq, j, mode);
  std::vector<PartialOrder> group =
      GenerateCandidatesForGroupBy(query, aq, j, mode);
  std::vector<PartialOrder> order =
      GenerateCandidatesForOrderBy(query, aq, j, mode);
  out.insert(out.end(), std::make_move_iterator(group.begin()),
             std::make_move_iterator(group.end()));
  out.insert(out.end(), std::make_move_iterator(order.begin()),
             std::make_move_iterator(order.end()));
  // Dedup across the three generators.
  PartialOrderSet seen;
  std::vector<PartialOrder> dedup;
  for (PartialOrder& po : out) {
    if (!po.empty()) AppendUnique(std::move(po), &seen, &dedup);
  }
  return dedup;
}

Result<std::vector<PartialOrder>> CandidateGenerator::GenerateForWorkload(
    const workload::Workload& workload,
    const workload::WorkloadMonitor* monitor) {
  std::vector<PartialOrder> all;
  for (const workload::Query& q : workload.queries) {
    if (q.stmt.kind != sql::Statement::Kind::kSelect &&
        q.stmt.kind != sql::Statement::Kind::kUpdate &&
        q.stmt.kind != sql::Statement::Kind::kDelete) {
      continue;  // INSERTs generate no read candidates
    }
    Result<AnalyzedQuery> aq = optimizer::Analyze(q.stmt, *catalog_);
    if (!aq.ok()) {
      AIM_LOG(Warn) << "skipping unanalyzable query: "
                    << aq.status().ToString();
      continue;
    }
    const workload::QueryStats* stats =
        monitor != nullptr ? monitor->Find(q.fingerprint) : nullptr;
    std::vector<PartialOrder> pos =
        GenerateForQuery(q, aq.ValueOrDie(), stats);
    all.insert(all.end(), std::make_move_iterator(pos.begin()),
               std::make_move_iterator(pos.end()));
  }
  return MergePartialOrders(std::move(all));
}

std::vector<catalog::IndexDef> CandidateGenerator::GenerateCandidateIndexPerPO(
    const std::vector<PartialOrder>& orders) const {
  std::vector<catalog::IndexDef> out;
  std::set<std::pair<catalog::TableId, std::vector<catalog::ColumnId>>> seen;
  for (const PartialOrder& po : orders) {
    catalog::IndexDef def;
    def.table = po.table();
    def.columns = po.AnyTotalOrder();
    if (def.columns.empty()) continue;
    if (def.columns.size() > options_.max_index_width) {
      def.columns.resize(options_.max_index_width);
    }
    // Skip candidates subsumed by the clustered primary key: a prefix of
    // the PK, or any index that *starts with* the whole PK (the clustered
    // index already delivers that access path).
    const auto& pk = catalog_->table(def.table).primary_key;
    if (!pk.empty()) {
      if (def.columns.size() <= pk.size() &&
          std::equal(def.columns.begin(), def.columns.end(), pk.begin())) {
        continue;
      }
      if (def.columns.size() >= pk.size() &&
          std::equal(pk.begin(), pk.end(), def.columns.begin())) {
        continue;
      }
    }
    if (seen.emplace(def.table, def.columns).second) {
      out.push_back(std::move(def));
    }
  }
  return out;
}

}  // namespace aim::core
