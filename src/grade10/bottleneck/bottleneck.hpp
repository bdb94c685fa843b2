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

/// The blocking bottlenecks of `trace`, read from its blocking events; no
/// consumable resource classified yet.
BottleneckReport blocking_bottlenecks(const ExecutionTrace& trace);

/// The saturation timeline of one attributed resource instance, from its
/// upsampled series alone.
ResourceSaturation saturation_of(const AttributedResource& resource,
                                 const TimesliceGrid& grid);

/// Saturated and self-limited durations per (phase instance, consumable
/// resource), gathered table by table (a window or a whole table): dense
/// per-instance sums while one resource instance's tables are added, then
/// added to a report's maps in key order. Integer sums: the result does not
/// depend on the order tables are added in.
class BottleneckTally {
 public:
  /// `instance_count` sizes the per-instance sums up front (they grow on
  /// demand past it).
  explicit BottleneckTally(std::size_t instance_count = 0)
      : saturated_(instance_count, kUntouched),
        self_limited_(instance_count, kUntouched) {}

  /// Adds the entries of `resource`'s table; `saturation` is the resource
  /// instance's timeline.
  void add(const AttributedResource& resource,
           const ResourceSaturation& saturation, const TimesliceGrid& grid);
  /// Ends one resource instance's tables: their sums are kept under
  /// `resource` until flush().
  void close(ResourceId resource);
  /// Adds every kept sum to `report`'s saturated and self-limited maps and
  /// frees the tally's storage.
  void flush(BottleneckReport& report);

 private:
  static constexpr DurationNs kUntouched = -1;
  using Pending =
      std::vector<std::pair<std::pair<InstanceId, ResourceId>, DurationNs>>;
  /// Per phase instance id; kUntouched where no entry was classified.
  std::vector<DurationNs> saturated_;
  std::vector<DurationNs> self_limited_;
  /// The phase instances with a classified entry, in first-seen order.
  std::vector<InstanceId> touched_;
  /// The sums of the closed resource instances.
  Pending saturated_pending_;
  Pending self_limited_pending_;
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
