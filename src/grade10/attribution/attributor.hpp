// Attribution of upsampled consumption to phases (paper §III-D3).
//
// For each resource instance and timeslice: active phases with Exact rules
// receive the consumption first, proportionally to and capped at their
// demand; the remainder is distributed over active Variable phases
// proportionally to their weights. The result is the paper's 3-D array
// (resource × timeslice × phase), stored slice-sparse: one 32-byte entry per
// (slice, active leaf), slice-major and in the matrix's leaf order within a
// slice. A counting pass sizes the table exactly before it is filled, so it
// is allocated once and never grows.
#pragma once

#include <span>
#include <vector>

#include "common/time.hpp"
#include "grade10/attribution/demand.hpp"
#include "grade10/attribution/upsample.hpp"
#include "grade10/trace/resource_trace.hpp"

namespace g10::core {

struct AttributionEntry {
  double usage = 0.0;     ///< units attributed in this slice
  double demand = 0.0;    ///< Exact demand (units) or Variable weight
  double fraction = 0.0;  ///< active fraction of the slice
  InstanceId instance = kNoInstance;
  bool exact = false;
};
// The doubles first, the narrow fields last: 24 + 4 + 1 bytes pad to 32, not
// to the 40 an id-first order costs.
static_assert(sizeof(AttributionEntry) == 32);

/// Full attribution result for one (resource, machine) instance.
struct AttributedResource {
  ResourceId resource = kNoResource;
  trace::MachineId machine = trace::kGlobalMachine;
  double capacity = 0.0;
  UpsampledSeries upsampled;
  /// entries for slice s live in entries[slice_offsets[s] ..
  /// slice_offsets[s+1]).
  std::vector<std::uint32_t> slice_offsets;
  std::vector<AttributionEntry> entries;
  /// Consumption not attributable to any active phase, per slice.
  std::vector<double> unattributed;

  std::span<const AttributionEntry> slice_entries(TimesliceIndex s) const {
    return {entries.data() + slice_offsets[static_cast<std::size_t>(s)],
            entries.data() + slice_offsets[static_cast<std::size_t>(s) + 1]};
  }
  TimesliceIndex slice_count() const {
    return static_cast<TimesliceIndex>(slice_offsets.empty()
                                           ? 0
                                           : slice_offsets.size() - 1);
  }
};

struct AttributedUsage {
  std::vector<AttributedResource> resources;

  const AttributedResource* find(ResourceId resource,
                                 trace::MachineId machine) const;
};

/// Runs upsampling + per-slice attribution for every demand matrix with a
/// matching monitored series. Matrices without monitoring data are skipped.
/// `constant_strawman` replaces Grade10's upsampler with the constant-rate
/// baseline (Table II). With a pool, matrices are processed in parallel
/// (bit-identical to the serial path).
AttributedUsage attribute_usage(const std::vector<DemandMatrix>& demand,
                                const ResourceTrace& monitored,
                                const TimesliceGrid& grid,
                                bool constant_strawman = false,
                                ThreadPool* pool = nullptr);

}  // namespace g10::core
