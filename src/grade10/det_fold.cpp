#include "grade10/det_fold.hpp"

#include <string>

#include "common/check.hpp"

namespace g10::core {
namespace {

std::string resource_stream(std::string_view prefix,
                            const ResourceModel& resources, ResourceId id,
                            trace::MachineId machine) {
  std::string key(prefix);
  key += '/';
  key += resources.resource(id).name;
  key += "/m";
  key += std::to_string(machine);
  return key;
}

}  // namespace

void fold_instances(DetHasher& hasher, const ExecutionTrace& trace) {
  // Instance tree: timing, placement, and blocked intervals per phase path.
  for (const PhaseInstance& instance : trace.instances()) {
    hasher.fold_i64(instance.path, instance.begin);
    hasher.fold_i64(instance.path, instance.end);
    hasher.fold_i64(instance.path, instance.machine);
    hasher.fold_u64(instance.path, instance.degraded ? 1 : 0);
    for (const Interval& interval : instance.blocked) {
      hasher.fold_i64(instance.path, interval.begin);
      hasher.fold_i64(instance.path, interval.end);
    }
  }
}

void fold_series(DetHasher& hasher, const AttributedResource& attributed,
                 const ResourceModel& resources) {
  // The (resource, machine) series: upsampled, then unattributed usage.
  const std::string stream = resource_stream(
      "usage", resources, attributed.resource, attributed.machine);
  for (const double usage : attributed.upsampled.usage) {
    hasher.fold_double(stream, usage);
  }
  for (const double unattributed : attributed.unattributed) {
    hasher.fold_double(stream, unattributed);
  }
}

void fold_entries(DetHasher& hasher, const AttributedResource& attributed,
                  const ExecutionTrace& trace) {
  // Per-slice entries, keyed by the phase instance the usage was attributed
  // to.
  for (const AttributionEntry& entry : attributed.entries) {
    const PhaseInstance& instance = trace.instance(entry.instance);
    hasher.fold_double(instance.path, entry.usage);
    hasher.fold_double(instance.path, entry.demand);
    hasher.fold_double(instance.path, entry.fraction);
  }
}

void fold_findings(DetHasher& hasher, const CharacterizationResult& result,
                   const ResourceModel& resources) {
  // Bottlenecks: classifications per phase instance (ordered maps), plus
  // the per-resource saturation timelines.
  const auto fold_classified =
      [&](const std::map<std::pair<InstanceId, ResourceId>, DurationNs>& map,
          std::uint64_t tag) {
        for (const auto& [key, duration] : map) {
          const PhaseInstance& instance = result.trace.instance(key.first);
          hasher.fold_u64(instance.path, tag);
          hasher.fold_i64(instance.path, key.second);
          hasher.fold_i64(instance.path, duration);
        }
      };
  fold_classified(result.bottlenecks.blocked, 1);
  fold_classified(result.bottlenecks.saturated, 2);
  fold_classified(result.bottlenecks.self_limited, 3);
  for (const ResourceSaturation& saturation : result.bottlenecks.saturation) {
    const std::string stream = resource_stream("saturation", resources,
                                               saturation.resource,
                                               saturation.machine);
    hasher.fold_bytes(stream,
                      std::string_view(saturation.saturated.data(),
                                       saturation.saturated.size()));
    hasher.fold_i64(stream, saturation.total_saturated);
  }

  // Issues: the ranked list that heads every report.
  for (const PerformanceIssue& issue : result.issues) {
    hasher.fold_bytes("issues", issue.description);
    hasher.fold_i64("issues", issue.baseline_makespan);
    hasher.fold_i64("issues", issue.optimistic_makespan);
    hasher.fold_double("issues", issue.impact);
  }
  hasher.fold_i64("run/baseline_makespan", result.baseline_makespan);
}

DetSummary fold_characterization(const CharacterizationResult& result,
                                 const ResourceModel& resources) {
  DetHasher hasher;
  fold_instances(hasher, result.trace);
  for (const AttributedResource& attributed : result.usage.resources) {
    G10_CHECK_MSG(attributed.has_table(),
                  "fold_characterization needs every attribution table");
    fold_series(hasher, attributed, resources);
    fold_entries(hasher, attributed, result.trace);
  }
  fold_findings(hasher, result, resources);
  return hasher.summary();
}

}  // namespace g10::core
