#include "executor/join.h"

#include <algorithm>
#include <numeric>

namespace aim::executor {

using storage::IndexHit;
using storage::ProbeSpan;
using storage::Row;

BatchEngine::BatchEngine(ExecContext* ctx, const optimizer::Plan& plan,
                         const FilterProgram* filter, SelectSink* sink,
                         std::vector<int> step_of_instance)
    : ctx_(ctx),
      plan_(plan),
      filter_(filter),
      sink_(sink),
      step_of_instance_(std::move(step_of_instance)),
      num_instances_(ctx->num_instances()),
      accesses_(plan.steps.size()),
      invariants_(plan.steps.size()) {
  const auto& pp = ctx_->cm().params();
  c_entry_ = pp.cpu_index_entry_cost;
  c_fetch_ = pp.random_page_cost + pp.cpu_row_cost;
}

const StepAccess& BatchEngine::Access(size_t s) {
  if (!accesses_[s].has_value()) {
    accesses_[s] = CompileStepAccess(*ctx_, plan_, s, step_of_instance_);
  }
  return *accesses_[s];
}

const Production& BatchEngine::Invariant(size_t s) {
  if (!invariants_[s].has_value()) {
    invariants_[s].emplace();
    GatherInvariant(Access(s), &*invariants_[s]);
    const Production& p = *invariants_[s];
    auto& sc = ctx_->metrics.op_scan;
    ++sc.batches;
    sc.rows_in += p.visited_total;
    sc.rows_out += p.rows.size();
  }
  return *invariants_[s];
}

double BatchEngine::DescentCost(uint64_t n) const {
  const auto& pp = ctx_->cm().params();
  return static_cast<double>(std::max<uint64_t>(1, n)) *
         pp.btree_descent_cost * pp.random_page_cost / 4.0;
}

bool BatchEngine::EmitLane(const Row* const* bound) {
  ++ctx_->metrics.op_aggregate.rows_in;
  if (!filter_->EmitCheck(bound)) return true;
  return sink_->Emit(bound);
}

void BatchEngine::Run() {
  ++ctx_->metrics.op_aggregate.batches;
  if (plan_.steps.empty()) {
    std::vector<const Row*> bound(std::max<size_t>(num_instances_, 1),
                                  nullptr);
    if (filter_->CheckLane(0, bound.data())) {
      (void)EmitLane(bound.data());
    }
    return;
  }
  if (sink_->can_stop_early()) {
    // Capacity-1 batches: an exact depth-first walk, so mid-scan stop
    // accounting matches the interpreter entry for entry.
    std::vector<const Row*> bound(num_instances_, nullptr);
    (void)StrictStep(0, bound.data());
    return;
  }
  RunBulk();
}

// ---------------------------------------------------------------------------
// Bulk (breadth-first) path.

void BatchEngine::RunBulk() {
  LaneBuffer cur(num_instances_);
  LaneBuffer next(num_instances_);
  cur.PushEmptyLane();
  for (size_t s = 0; s < plan_.steps.size(); ++s) {
    if (cur.empty()) return;
    next.Clear();
    const double est = std::max(1.0, plan_.steps[s].rows_after);
    const size_t hint = std::max<size_t>(plan_.batch_size_hint, 1);
    next.ReserveLanes(std::min<size_t>(
        std::max<size_t>(static_cast<size_t>(est), hint), 1u << 20));
    ProduceBulk(s, cur, &next);
    FilterDepth(s, &next);
    cur.Swap(next);
  }
  for (size_t i = 0; i < cur.size(); ++i) {
    (void)EmitLane(cur.lane(i));
  }
}

void BatchEngine::ReplayInvariantLane(size_t s, const StepAccess& a,
                                      const Production& p) {
  auto& m = ctx_->metrics;
  switch (a.kind) {
    case StepAccess::Kind::kFullScan: {
      m.rows_examined += p.visited_total;
      m.heap_rows_read += p.visited_total;
      const auto& pp = ctx_->cm().params();
      ctx_->AddStepCost(
          s, a.pages * pp.seq_page_cost +
                 static_cast<double>(p.visited_total) * pp.cpu_row_cost);
      return;
    }
    case StepAccess::Kind::kHypoScan:
      // The interpreter's hypothetical-leak fallback counts rows but
      // charges nothing and claims no index.
      m.rows_examined += p.visited_total;
      m.heap_rows_read += p.visited_total;
      return;
    case StepAccess::Kind::kSkipScan: {
      for (size_t k = 0; k < p.hits.size(); ++k) {
        ctx_->AddStepCost(s, c_entry_);
        if (!a.covering) {
          ++m.pk_lookups;
          ++m.heap_rows_read;
          ctx_->AddStepCost(s, c_fetch_);
        }
      }
      m.index_entries_read += p.visited_total;
      m.rows_examined += p.visited_total;
      ctx_->AddStepCost(s, DescentCost(p.groups_total));
      ctx_->UseIndex(s, a.index->id);
      return;
    }
    case StepAccess::Kind::kIndex: {
      for (const ProbeSpan& span : p.spans) {
        for (size_t k = span.begin; k < span.end; ++k) {
          ctx_->AddStepCost(s, c_entry_);
          if (!a.covering) {
            ++m.pk_lookups;
            ++m.heap_rows_read;
            ctx_->AddStepCost(s, c_fetch_);
          }
        }
        m.index_entries_read += span.visited;
        m.rows_examined += span.visited;
      }
      ctx_->AddStepCost(s, DescentCost(p.spans.size()));
      ctx_->UseIndex(s, a.index->id);
      return;
    }
    case StepAccess::Kind::kIndexMerge: {
      const auto& pp = ctx_->cm().params();
      for (size_t ai = 0; ai < a.arms.size(); ++ai) {
        for (const uint64_t v : p.arm_probe_visited[ai]) {
          m.index_entries_read += v;
          m.rows_examined += v;
          ctx_->AddStepCost(s, pp.btree_descent_cost);
        }
        ctx_->UseIndex(s, a.arms[ai].index->id);
      }
      for (size_t k = 0; k < p.rows.size(); ++k) {
        m.heap_rows_read += a.covering ? 0 : 1;
        ctx_->AddStepCost(s, c_entry_);
        if (!a.covering) {
          ++m.pk_lookups;
          ctx_->AddStepCost(s, c_fetch_);
        }
      }
      return;
    }
  }
}

void BatchEngine::ProduceBulk(size_t s, const LaneBuffer& cur,
                              LaneBuffer* next) {
  const StepAccess& a = Access(s);
  const int instance = a.instance;

  if (a.kind != StepAccess::Kind::kIndex || a.lane_invariant) {
    const Production& p = Invariant(s);
    for (size_t li = 0; li < cur.size(); ++li) {
      ReplayInvariantLane(s, a, p);
      const Row* const* lane = cur.lane(li);
      for (const Row* row : p.rows) {
        next->PushChild(lane, instance, row);
      }
    }
    return;
  }

  // Join-bound index step: batch all lanes' probes, sort the keys so
  // duplicate prefixes share one descent, then replay per lane in order.
  const size_t lanes = cur.size();
  const size_t ppl = a.probes_per_lane;
  std::vector<std::string> probes;
  probes.reserve(lanes * ppl);
  for (size_t li = 0; li < lanes; ++li) {
    BuildLaneProbes(a, cur.lane(li), &probes);
  }
  std::vector<size_t> order(probes.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t x, size_t y) { return probes[x] < probes[y]; });
  std::vector<IndexHit> hits;
  std::vector<ProbeSpan> spans;
  a.btree->GatherPrefixBatch(probes, order, a.lower, a.upper, &hits,
                             &spans);

  auto& m = ctx_->metrics;
  auto& oj = ctx_->metrics.op_join;
  ++oj.batches;
  oj.rows_in += probes.size();
  for (size_t li = 0; li < lanes; ++li) {
    const Row* const* lane = cur.lane(li);
    for (size_t j = 0; j < ppl; ++j) {
      const ProbeSpan& span = spans[li * ppl + j];
      for (size_t k = span.begin; k < span.end; ++k) {
        ctx_->AddStepCost(s, c_entry_);
        if (!a.covering) {
          ++m.pk_lookups;
          ++m.heap_rows_read;
          ctx_->AddStepCost(s, c_fetch_);
        }
        next->PushChild(lane, instance, &a.heap->row(hits[k].rid));
        ++oj.rows_out;
      }
      m.index_entries_read += span.visited;
      m.rows_examined += span.visited;
    }
    ctx_->AddStepCost(s, DescentCost(ppl));
    ctx_->UseIndex(s, a.index->id);
  }
}

void BatchEngine::FilterDepth(size_t s, LaneBuffer* lanes) {
  auto& of = ctx_->metrics.op_filter;
  ++of.batches;
  of.rows_in += lanes->size();
  std::vector<size_t> keep;
  keep.reserve(lanes->size());
  for (size_t i = 0; i < lanes->size(); ++i) {
    if (filter_->CheckLane(static_cast<int>(s), lanes->lane(i))) {
      keep.push_back(i);
    }
  }
  if (keep.size() != lanes->size()) lanes->Compact(keep);
  of.rows_out += lanes->size();
}

// ---------------------------------------------------------------------------
// Strict (early-stop) path. Mirrors NestedLoopDriver::RunStep with
// compiled filters and cached lane-invariant productions.

bool BatchEngine::StrictStep(size_t s, const Row** bound) {
  if (s >= plan_.steps.size()) return EmitLane(bound);
  const StepAccess& a = Access(s);
  const int instance = a.instance;
  auto& m = ctx_->metrics;

  auto consider = [&](const Row* row, bool via_index,
                      bool covering) -> bool {
    m.heap_rows_read += (via_index && covering) ? 0 : 1;
    if (via_index) {
      ctx_->AddStepCost(s, c_entry_);
      if (!covering) {
        ++m.pk_lookups;
        ctx_->AddStepCost(s, c_fetch_);
      }
    }
    bound[instance] = row;
    bool keep = true;
    if (filter_->CheckLane(static_cast<int>(s), bound)) {
      keep = StrictStep(s + 1, bound);
    }
    bound[instance] = nullptr;
    return keep;
  };

  switch (a.kind) {
    case StepAccess::Kind::kFullScan:
    case StepAccess::Kind::kHypoScan: {
      const Production& p = Invariant(s);
      uint64_t visited = 0;
      bool keep = true;
      for (const Row* row : p.rows) {
        ++visited;
        keep = consider(row, /*via_index=*/false, /*covering=*/false);
        if (!keep) break;
      }
      m.rows_examined += visited;
      if (a.kind == StepAccess::Kind::kFullScan) {
        const auto& pp = ctx_->cm().params();
        ctx_->AddStepCost(
            s, a.pages * pp.seq_page_cost +
                   static_cast<double>(visited) * pp.cpu_row_cost);
      }
      return keep;
    }
    case StepAccess::Kind::kSkipScan: {
      const Production& p = Invariant(s);
      uint64_t visited = p.visited_total;
      uint64_t groups = p.groups_total;
      bool keep = true;
      for (size_t k = 0; k < p.hits.size(); ++k) {
        keep = consider(p.rows[k], /*via_index=*/true, a.covering);
        if (!keep) {
          visited = p.hits[k].visited;
          groups = p.cum_groups[k];
          break;
        }
      }
      m.index_entries_read += visited;
      m.rows_examined += visited;
      ctx_->AddStepCost(s, DescentCost(groups));
      ctx_->UseIndex(s, a.index->id);
      return keep;
    }
    case StepAccess::Kind::kIndex: {
      bool keep = true;
      uint64_t probes_done = 0;
      if (a.lane_invariant) {
        const Production& p = Invariant(s);
        for (const ProbeSpan& span : p.spans) {
          ++probes_done;
          uint64_t probe_visited = span.visited;
          for (size_t k = span.begin; k < span.end && keep; ++k) {
            keep = consider(p.rows[k], /*via_index=*/true, a.covering);
            if (!keep) probe_visited = p.hits[k].visited;
          }
          m.index_entries_read += probe_visited;
          m.rows_examined += probe_visited;
          if (!keep) break;
        }
      } else {
        // Locals, not members: StrictStep recurses and a nested index
        // step must not clobber this step's probe iteration state.
        std::vector<std::string> probes;
        BuildLaneProbes(a, bound, &probes);
        std::vector<IndexHit> hits;
        for (const std::string& probe : probes) {
          ++probes_done;
          hits.clear();
          const uint64_t full_visited =
              a.btree->GatherPrefix(probe, a.lower, a.upper, &hits);
          uint64_t probe_visited = full_visited;
          for (size_t k = 0; k < hits.size() && keep; ++k) {
            keep = consider(&a.heap->row(hits[k].rid),
                            /*via_index=*/true, a.covering);
            if (!keep) probe_visited = hits[k].visited;
          }
          m.index_entries_read += probe_visited;
          m.rows_examined += probe_visited;
          if (!keep) break;
        }
      }
      ctx_->AddStepCost(s, DescentCost(probes_done));
      ctx_->UseIndex(s, a.index->id);
      return keep;
    }
    case StepAccess::Kind::kIndexMerge: {
      const Production& p = Invariant(s);
      const auto& pp = ctx_->cm().params();
      // Arm scans complete before any row is considered (interpreter
      // order), so their accounting always replays in full.
      for (size_t ai = 0; ai < a.arms.size(); ++ai) {
        for (const uint64_t v : p.arm_probe_visited[ai]) {
          m.index_entries_read += v;
          m.rows_examined += v;
          ctx_->AddStepCost(s, pp.btree_descent_cost);
        }
        ctx_->UseIndex(s, a.arms[ai].index->id);
      }
      bool keep = true;
      for (const Row* row : p.rows) {
        keep = consider(row, /*via_index=*/true, a.covering);
        if (!keep) break;
      }
      return keep;
    }
  }
  return true;
}

}  // namespace aim::executor
