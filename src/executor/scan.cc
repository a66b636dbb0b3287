#include "executor/scan.h"

#include <algorithm>
#include <functional>
#include <string>

namespace aim::executor {

using optimizer::AccessPath;
using sql::Value;
using storage::Row;
using storage::RowId;

namespace {

/// Enumerates the cartesian product of literal key-part options into
/// encoded probe prefixes, first part slowest — the interpreter's
/// recursive `enumerate` order. Zero parts yield one empty probe.
void EnumerateLiteralProbes(const std::vector<std::vector<Value>>& options,
                            std::vector<std::string>* out) {
  size_t total = 1;
  for (const auto& o : options) total *= o.size();
  out->reserve(out->size() + total);
  std::string prefix;
  std::function<void(size_t)> enumerate = [&](size_t pos) {
    if (pos == options.size()) {
      out->push_back(prefix);
      return;
    }
    const size_t mark = prefix.size();
    for (const Value& v : options[pos]) {
      storage::AppendKeyPart(v, &prefix);
      enumerate(pos + 1);
      prefix.resize(mark);
    }
  };
  enumerate(0);
}

/// Range bounds of a merge arm from its matched predicates — an exact
/// replica of the interpreter's inline arm-bound assembly (which differs
/// from RangeBoundsFor: it reads the arm's matched_predicates, not the
/// query conjuncts).
void MergeArmBounds(const AccessPath& part, size_t next_pos,
                    std::optional<storage::KeyBound>* lower,
                    std::optional<storage::KeyBound>* upper) {
  const catalog::IndexDef& index = *part.index;
  for (const auto& p : part.matched_predicates) {
    if (p.column.column != index.columns[next_pos]) continue;
    if (p.kind == optimizer::PredKind::kRange) {
      if (p.has_lower) {
        *lower = storage::KeyBound{Value::Int(p.lower), p.lower_inclusive};
      }
      if (p.has_upper) {
        *upper = storage::KeyBound{Value::Int(p.upper), p.upper_inclusive};
      }
    } else if (p.kind == optimizer::PredKind::kLikePrefix &&
               !p.values.empty()) {
      const std::string& pat = p.values[0].AsString();
      const size_t cut = pat.find_first_of("%_");
      const std::string pre =
          cut == std::string::npos ? pat : pat.substr(0, cut);
      if (!pre.empty()) {
        *lower = storage::KeyBound{Value::Str(pre), true};
        const std::string succ = PrefixSuccessor(pre);
        if (!succ.empty()) {
          *upper = storage::KeyBound{Value::Str(succ), false};
        }
      }
    }
  }
}

}  // namespace

StepAccess CompileStepAccess(const ExecContext& ctx,
                             const optimizer::Plan& plan, size_t step_idx,
                             const std::vector<int>& step_of_instance) {
  const optimizer::JoinStep& step = plan.steps[step_idx];
  const auto& query = ctx.query();
  const int instance = step.instance;
  const catalog::TableId table = query.instances[instance].table;
  storage::Database* db = ctx.db();

  StepAccess a;
  a.instance = instance;
  a.heap = &db->heap(table);
  a.covering = step.path.covering;

  if (step.path.is_index_merge()) {
    a.kind = StepAccess::Kind::kIndexMerge;
    for (const AccessPath& part : step.path.union_parts) {
      const catalog::IndexDef& index = *part.index;
      const storage::BTreeIndex* btree = db->btree(index.id);
      if (btree == nullptr) continue;  // hypothetical leak: skip arm
      MergeArm arm;
      arm.index = &index;
      arm.btree = btree;
      // Arm prefix options come from the arm's own matched predicates,
      // first match per key position wins, duplicates kept — exactly the
      // interpreter's inline assembly (distinct from LiteralOptionsFor).
      std::vector<std::vector<Value>> options;
      for (size_t pos = 0;
           pos < part.eq_prefix_len && pos < index.columns.size(); ++pos) {
        std::vector<Value> opts;
        for (const auto& p : part.matched_predicates) {
          if (p.column.column != index.columns[pos] ||
              !p.is_index_prefix()) {
            continue;
          }
          if (p.kind == optimizer::PredKind::kIsNull) {
            opts.push_back(Value::Null());
          } else {
            opts = p.values;
          }
          break;
        }
        if (opts.empty()) break;
        options.push_back(std::move(opts));
      }
      if (part.range_on_next && options.size() < index.columns.size()) {
        MergeArmBounds(part, options.size(), &arm.lower, &arm.upper);
      }
      EnumerateLiteralProbes(options, &arm.probes);
      a.arms.push_back(std::move(arm));
    }
    return a;
  }

  if (step.path.is_full_scan()) {
    a.kind = StepAccess::Kind::kFullScan;
    a.pages = std::max(
        1.0, db->catalog().TableSizeBytes(table) / ctx.cm().params().page_size);
    return a;
  }

  const catalog::IndexDef& index = *step.path.index;
  const storage::BTreeIndex* btree = db->btree(index.id);
  if (btree == nullptr) {
    // Hypothetical index leaked into an execution plan; treat as scan
    // (the interpreter counts rows but charges no cost on this path).
    a.kind = StepAccess::Kind::kHypoScan;
    return a;
  }
  a.index = &index;
  a.btree = btree;

  if (step.path.skip_scan && index.columns.size() >= 2) {
    a.kind = StepAccess::Kind::kSkipScan;
    a.skip_width = step.path.skip_width;
    // Range bounds apply to the key part after the skipped prefix;
    // equality predicates become a closed point range.
    for (const auto& p : query.ConjunctsForInstance(instance)) {
      if (p.column.column != index.columns[a.skip_width]) continue;
      if (p.kind == optimizer::PredKind::kEq && !p.values.empty()) {
        a.lower = storage::KeyBound{p.values[0], true};
        a.upper = storage::KeyBound{p.values[0], true};
      }
    }
    if (!a.lower.has_value()) {
      RangeBoundsFor(query, instance, index.columns[a.skip_width], &a.lower,
                     &a.upper);
    }
    return a;
  }

  a.kind = StepAccess::Kind::kIndex;
  for (size_t part = 0;
       part < step.path.eq_prefix_len && part < index.columns.size();
       ++part) {
    const catalog::ColumnId col = index.columns[part];
    KeyPart kp;
    kp.literals = LiteralOptionsFor(query, instance, col);
    if (kp.literals.empty()) {
      int src_instance = -1;
      catalog::ColumnId src_column = 0;
      if (StaticJoinSource(query, step_of_instance, instance, col,
                           static_cast<int>(step_idx), &src_instance,
                           &src_column)) {
        kp.join_bound = true;
        kp.src_instance = src_instance;
        kp.src_column = src_column;
        a.lane_invariant = false;
      } else {
        break;  // prefix ends here at run time, for every lane
      }
    }
    a.parts.push_back(std::move(kp));
  }
  a.probes_per_lane = 1;
  for (const auto& p : a.parts) a.probes_per_lane *= p.option_count();
  if (step.path.range_on_next && a.parts.size() < index.columns.size()) {
    RangeBoundsFor(query, instance, index.columns[a.parts.size()], &a.lower,
                   &a.upper);
  }
  return a;
}

void GatherInvariant(const StepAccess& a, Production* out) {
  switch (a.kind) {
    case StepAccess::Kind::kFullScan:
    case StepAccess::Kind::kHypoScan: {
      RowId cursor = 0;
      constexpr size_t kChunk = 1024;
      while (true) {
        const size_t got = a.heap->ScanChunk(&cursor, kChunk, &out->rows);
        out->visited_total += got;
        if (got < kChunk) break;
      }
      return;
    }
    case StepAccess::Kind::kSkipScan: {
      out->visited_total =
          a.btree->GatherSkip(a.skip_width, a.lower, a.upper, &out->hits,
                              &out->cum_groups, &out->groups_total);
      out->rows.reserve(out->hits.size());
      for (const auto& h : out->hits) {
        out->rows.push_back(&a.heap->row(h.rid));
      }
      return;
    }
    case StepAccess::Kind::kIndex: {
      std::vector<std::vector<Value>> options;
      options.reserve(a.parts.size());
      for (const auto& p : a.parts) options.push_back(p.literals);
      std::vector<std::string> probes;
      EnumerateLiteralProbes(options, &probes);
      out->spans.reserve(probes.size());
      for (const std::string& probe : probes) {
        storage::ProbeSpan span;
        span.begin = out->hits.size();
        span.visited =
            a.btree->GatherPrefix(probe, a.lower, a.upper, &out->hits);
        span.end = out->hits.size();
        out->spans.push_back(span);
        out->visited_total += span.visited;
      }
      out->rows.reserve(out->hits.size());
      for (const auto& h : out->hits) {
        out->rows.push_back(&a.heap->row(h.rid));
      }
      return;
    }
    case StepAccess::Kind::kIndexMerge: {
      std::vector<RowId> rids;
      std::vector<storage::IndexHit> scratch;
      out->arm_probe_visited.reserve(a.arms.size());
      for (const MergeArm& arm : a.arms) {
        std::vector<uint64_t> visited;
        visited.reserve(arm.probes.size());
        for (const std::string& probe : arm.probes) {
          scratch.clear();
          const uint64_t v =
              arm.btree->GatherPrefix(probe, arm.lower, arm.upper, &scratch);
          visited.push_back(v);
          for (const auto& h : scratch) rids.push_back(h.rid);
        }
        out->arm_probe_visited.push_back(std::move(visited));
      }
      // The interpreter collects arm hits into a std::set<RowId> and
      // visits it in order: dedup ascending.
      std::sort(rids.begin(), rids.end());
      rids.erase(std::unique(rids.begin(), rids.end()), rids.end());
      out->rows.reserve(rids.size());
      for (const RowId rid : rids) {
        out->rows.push_back(&a.heap->row(rid));
      }
      return;
    }
  }
}

void BuildLaneProbes(const StepAccess& a, const Row* const* bound,
                     std::vector<std::string>* out) {
  // Odometer over key parts, first part slowest (interpreter enumeration
  // order); join-bound parts contribute the single partner value.
  std::string probe;
  std::function<void(size_t)> enumerate = [&](size_t pos) {
    if (pos == a.parts.size()) {
      out->push_back(probe);
      return;
    }
    const KeyPart& kp = a.parts[pos];
    const size_t mark = probe.size();
    if (kp.join_bound) {
      storage::AppendKeyPart((*bound[kp.src_instance])[kp.src_column],
                             &probe);
      enumerate(pos + 1);
      probe.resize(mark);
      return;
    }
    for (const Value& v : kp.literals) {
      storage::AppendKeyPart(v, &probe);
      enumerate(pos + 1);
      probe.resize(mark);
    }
  };
  enumerate(0);
}

}  // namespace aim::executor
