// Resource demand estimation (paper §III-D1).
//
// For every consumable resource instance (resource × machine), builds the
// timeslice-granular demand matrix: the summed Exact demand and summed
// Variable weight of the leaf phases active in each slice, where "active"
// means started, not ended, and not interrupted by a blocking event. Phase
// activity is weighted by the fraction of the slice it covers, which reduces
// to the paper's boundary-aligned formulation when phases align with slices.
#pragma once

#include <vector>

#include "common/time.hpp"
#include "grade10/model/attribution_rules.hpp"
#include "grade10/trace/execution_trace.hpp"

namespace g10 {
class ThreadPool;
}

namespace g10::core {

/// One leaf phase's contribution to a demand matrix.
struct LeafDemand {
  InstanceId instance = kNoInstance;
  AttributionRule rule;
  TimesliceIndex first_slice = 0;
  /// Active fraction of each slice in [first_slice, first_slice + size).
  std::vector<double> active_fraction;
};

/// Demand matrix of one resource instance.
struct DemandMatrix {
  ResourceId resource = kNoResource;
  trace::MachineId machine = trace::kGlobalMachine;
  double capacity = 0.0;
  TimesliceIndex slice_count = 0;
  std::vector<double> exact;     ///< per slice: summed Exact demand (units)
  std::vector<double> variable;  ///< per slice: summed Variable weight
  /// Per-leaf active fractions: the input AttributionWindows scatters into
  /// its slice-major tables. A `CharacterizationResult` holds no matrices.
  std::vector<LeafDemand> leaves;
};

/// The matrices of one trace, filled one at a time: a caller that consumes
/// each matrix as it is filled never holds them all.
class DemandEstimator {
 public:
  DemandEstimator(const ResourceModel& resources,
                  const AttributionRuleSet& rules, const ExecutionTrace& trace,
                  const TimesliceGrid& grid);

  /// estimate_demand's matrices, in its order, empty: resource, machine,
  /// capacity and slice_count set.
  std::vector<DemandMatrix> matrices() const;
  /// Fills `matrix` (one of matrices()): per-slice sums and leaves.
  /// Thread-safe for distinct matrices.
  void fill(DemandMatrix& matrix) const;

 private:
  std::size_t bucket(trace::MachineId machine) const;

  const ResourceModel& resources_;
  const AttributionRuleSet& rules_;
  const ExecutionTrace& trace_;
  TimesliceGrid grid_;
  /// The trace's leaves per machine, in trace order.
  std::vector<std::vector<InstanceId>> leaves_on_;
};

/// Builds one matrix per (consumable resource, machine) pair — or one
/// global matrix for globally-scoped resources. `slice_count` slices cover
/// the whole trace. With a pool, matrices are filled in parallel (one task
/// per matrix); the result is bit-identical to the serial path.
std::vector<DemandMatrix> estimate_demand(const ResourceModel& resources,
                                          const AttributionRuleSet& rules,
                                          const ExecutionTrace& trace,
                                          const TimesliceGrid& grid,
                                          ThreadPool* pool = nullptr);

}  // namespace g10::core
