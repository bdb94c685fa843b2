// Resource-bottleneck identification (paper §III-E).
//
// Three bottleneck classes are detected:
//  - blocking bottlenecks: time a phase spent blocked on a blocking resource
//    (GC, message queues) — read directly from the blocking events;
//  - saturation bottlenecks: a consumable resource at (~)full utilization
//    (kSaturationThreshold of capacity) in a timeslice bottlenecks every
//    phase using it in that slice;
//  - self-limit bottlenecks: a phase with an Exact rule pinned at its own
//    demand even though the resource is not saturated (e.g. a phase confined
//    to 2 of 4 cores using exactly those 2).
#pragma once

#include <map>
#include <utility>
#include <vector>

#include "grade10/attribution/attributor.hpp"
#include "grade10/config.hpp"
#include "grade10/trace/execution_trace.hpp"

namespace g10::core {

/// A consumable resource counts as saturated in a slice when its upsampled
/// utilization reaches this fraction of capacity.
inline constexpr double kSaturationThreshold = 0.97;
/// A phase with an Exact rule counts as self-limited in a slice when its
/// attributed usage reaches this fraction of its own demand.
inline constexpr double kExactCapThreshold = 0.85;

struct ResourceSaturation {
  ResourceId resource = kNoResource;
  trace::MachineId machine = trace::kGlobalMachine;
  /// Per slice: 1 when the resource is saturated.
  std::vector<char> saturated;
  DurationNs total_saturated = 0;
};

struct BottleneckReport {
  /// Per (phase instance, blocking resource): total blocked time.
  std::map<std::pair<InstanceId, ResourceId>, DurationNs> blocked;
  /// Per (phase instance, consumable resource): time bottlenecked because
  /// the resource was saturated.
  std::map<std::pair<InstanceId, ResourceId>, DurationNs> saturated;
  /// Per (phase instance, consumable resource): time the phase was pinned
  /// at its own Exact limit while the resource had headroom.
  std::map<std::pair<InstanceId, ResourceId>, DurationNs> self_limited;
  /// Per resource instance: saturation timeline.
  std::vector<ResourceSaturation> saturation;

  const ResourceSaturation* find_saturation(ResourceId resource,
                                            trace::MachineId machine) const;

  /// Sums a per-(instance, resource) map over all instances, per resource.
  static std::map<ResourceId, DurationNs> totals_by_resource(
      const std::map<std::pair<InstanceId, ResourceId>, DurationNs>& m);
};

/// With a pool, resource instances are classified in parallel and merged
/// in resource order (bit-identical to the serial path). `config` is not
/// read: the thresholds above are constants.
BottleneckReport detect_bottlenecks(const AttributedUsage& usage,
                                    const ExecutionTrace& trace,
                                    const TimesliceGrid& grid,
                                    const AnalysisConfig& config,
                                    ThreadPool* pool = nullptr);

}  // namespace g10::core
