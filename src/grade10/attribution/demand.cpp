#include "grade10/attribution/demand.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace g10::core {

namespace {

/// Per-slice active fraction of one leaf.
LeafDemand make_leaf_demand(const PhaseInstance& leaf,
                            const AttributionRule& rule,
                            const TimesliceGrid& grid) {
  LeafDemand demand;
  demand.instance = leaf.id;
  demand.rule = rule;
  demand.first_slice = grid.slice_of(leaf.begin);
  const TimesliceIndex last = leaf.end > leaf.begin
                                  ? grid.slice_count(leaf.end) - 1
                                  : demand.first_slice;
  demand.active_fraction.assign(
      static_cast<std::size_t>(last - demand.first_slice + 1), 0.0);
  const auto active = active_intervals(leaf.begin, leaf.end, leaf.blocked);
  const double slice_len = static_cast<double>(grid.slice_duration());
  for (const auto& interval : active) {
    if (interval.end <= interval.begin) continue;
    // First and last overlapped slices computed arithmetically; every slice
    // strictly between them is fully covered and contributes exactly 1.0
    // (overlap == slice_duration), so no per-slice overlap math is needed.
    const TimesliceIndex first = grid.slice_of(interval.begin);
    const TimesliceIndex final = grid.slice_count(interval.end) - 1;
    G10_ASSERT_MSG(first >= demand.first_slice && final <= last,
                   "active interval escapes its leaf's slice range");
    if (first == final) {
      demand.active_fraction[static_cast<std::size_t>(
          first - demand.first_slice)] +=
          static_cast<double>(interval.length()) / slice_len;
      continue;
    }
    demand.active_fraction[static_cast<std::size_t>(
        first - demand.first_slice)] +=
        static_cast<double>(grid.end_of(first) - interval.begin) / slice_len;
    for (TimesliceIndex s = first + 1; s < final; ++s) {
      demand.active_fraction[static_cast<std::size_t>(
          s - demand.first_slice)] += 1.0;
    }
    demand.active_fraction[static_cast<std::size_t>(
        final - demand.first_slice)] +=
        static_cast<double>(interval.end - grid.start_of(final)) / slice_len;
  }
  return demand;
}

/// Fills one (resource, machine) matrix with the demand of `leaves`, the
/// trace's leaves on that machine (all of them for a global resource).
void fill_matrix(DemandMatrix& matrix, const AttributionRuleSet& rules,
                 const ExecutionTrace& trace,
                 const std::vector<InstanceId>& leaves,
                 const TimesliceGrid& grid, TimesliceIndex slice_count) {
  matrix.slice_count = slice_count;
  matrix.exact.assign(static_cast<std::size_t>(slice_count), 0.0);
  matrix.variable.assign(static_cast<std::size_t>(slice_count), 0.0);
  for (const InstanceId leaf_id : leaves) {
    const PhaseInstance& leaf = trace.instance(leaf_id);
    const AttributionRule rule = rules.get(leaf.type, matrix.resource);
    if (rule.is_none()) continue;
    if (leaf.duration() <= 0) continue;
    LeafDemand demand = make_leaf_demand(leaf, rule, grid);
    for (std::size_t i = 0; i < demand.active_fraction.size(); ++i) {
      const double frac = demand.active_fraction[i];
      if (frac <= 0.0) continue;
      const auto slice = static_cast<std::size_t>(demand.first_slice) + i;
      if (rule.is_exact()) {
        matrix.exact[slice] += rule.amount * frac;
      } else {
        matrix.variable[slice] += rule.amount * frac;
      }
    }
    matrix.leaves.push_back(std::move(demand));
  }
}

}  // namespace

DemandEstimator::DemandEstimator(const ResourceModel& resources,
                                 const AttributionRuleSet& rules,
                                 const ExecutionTrace& trace,
                                 const TimesliceGrid& grid)
    : resources_(resources),
      rules_(rules),
      trace_(trace),
      grid_(grid),
      leaves_on_(trace.machines().size()) {
  // Bucket the leaves by machine once, keeping trace order within each
  // bucket, so every matrix sums its leaves in the same order as a scan.
  for (const InstanceId leaf : trace.leaves()) {
    const trace::MachineId machine = trace.instance(leaf).machine;
    if (machine != trace::kGlobalMachine) {
      leaves_on_[bucket(machine)].push_back(leaf);
    }
  }
}

std::size_t DemandEstimator::bucket(trace::MachineId machine) const {
  const std::vector<trace::MachineId>& machines = trace_.machines();
  return static_cast<std::size_t>(
      std::lower_bound(machines.begin(), machines.end(), machine) -
      machines.begin());
}

std::vector<DemandMatrix> DemandEstimator::matrices() const {
  const TimesliceIndex slice_count =
      trace_.end_time() > 0 ? grid_.slice_count(trace_.end_time()) : 0;
  std::vector<DemandMatrix> matrices;
  const auto add = [&](ResourceId r, trace::MachineId machine) {
    DemandMatrix matrix;
    matrix.resource = r;
    matrix.machine = machine;
    matrix.capacity = resources_.resource(r).capacity;
    matrix.slice_count = slice_count;
    matrices.push_back(std::move(matrix));
  };
  for (ResourceId r = 0;
       r < static_cast<ResourceId>(resources_.resource_count()); ++r) {
    const Resource& resource = resources_.resource(r);
    if (resource.kind != ResourceKind::kConsumable) continue;
    if (resource.scope == ResourceScope::kGlobal) {
      add(r, trace::kGlobalMachine);
    } else {
      for (const trace::MachineId machine : trace_.machines()) {
        add(r, machine);
      }
    }
  }
  return matrices;
}

void DemandEstimator::fill(DemandMatrix& matrix) const {
  const bool global =
      resources_.resource(matrix.resource).scope == ResourceScope::kGlobal;
  fill_matrix(matrix, rules_, trace_,
              global ? trace_.leaves() : leaves_on_[bucket(matrix.machine)],
              grid_, matrix.slice_count);
}

std::vector<DemandMatrix> estimate_demand(const ResourceModel& resources,
                                          const AttributionRuleSet& rules,
                                          const ExecutionTrace& trace,
                                          const TimesliceGrid& grid,
                                          ThreadPool* pool) {
  const DemandEstimator estimator(resources, rules, trace, grid);
  std::vector<DemandMatrix> matrices = estimator.matrices();
  // Each (resource, machine) matrix is independent; fan out one per task.
  // Every matrix is filled by exactly one thread, so the result is
  // bit-identical to the serial loop.
  parallel_for(pool, matrices.size(), 1,
               [&](std::size_t m) { estimator.fill(matrices[m]); });
  return matrices;
}

}  // namespace g10::core
