#include "grade10/bottleneck/bottleneck.hpp"

#include <algorithm>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace g10::core {

const ResourceSaturation* BottleneckReport::find_saturation(
    ResourceId resource, trace::MachineId machine) const {
  for (const auto& s : saturation) {
    if (s.resource == resource && s.machine == machine) return &s;
  }
  return nullptr;
}

std::map<ResourceId, DurationNs> BottleneckReport::totals_by_resource(
    const std::map<std::pair<InstanceId, ResourceId>, DurationNs>& m) {
  std::map<ResourceId, DurationNs> totals;
  for (const auto& [key, value] : m) totals[key.second] += value;
  return totals;
}

namespace {

/// Bottleneck classification of a single attributed resource instance.
struct ResourceBottlenecks {
  ResourceSaturation sat;
  std::map<std::pair<InstanceId, ResourceId>, DurationNs> saturated;
  std::map<std::pair<InstanceId, ResourceId>, DurationNs> self_limited;
};

ResourceBottlenecks detect_one(const AttributedResource& res,
                               const TimesliceGrid& grid) {
  ResourceBottlenecks out;
  const DurationNs slice = grid.slice_duration();

  // Saturation timeline.
  ResourceSaturation& sat = out.sat;
  sat.resource = res.resource;
  sat.machine = res.machine;
  const auto slices = static_cast<std::size_t>(res.slice_count());
  G10_ASSERT_MSG(res.upsampled.usage.size() == slices,
                 "attributed resource and upsampled series disagree on "
                 "slice count");
  sat.saturated.assign(slices, 0);
  const double threshold = kSaturationThreshold * res.capacity;
  for (std::size_t s = 0; s < slices; ++s) {
    if (res.upsampled.usage[s] >= threshold) {
      sat.saturated[s] = 1;
      sat.total_saturated += slice;
    }
  }

  // Per-phase consumable bottlenecks.
  for (std::size_t s = 0; s < slices; ++s) {
    const auto entries = res.slice_entries(static_cast<TimesliceIndex>(s));
    for (const AttributionEntry& entry : entries) {
      if (entry.demand <= 0.0) continue;
      const auto affected = static_cast<DurationNs>(
          entry.fraction * static_cast<double>(slice));
      if (sat.saturated[s]) {
        out.saturated[{entry.instance, res.resource}] += affected;
      } else if (entry.exact &&
                 entry.usage >= kExactCapThreshold * entry.demand) {
        out.self_limited[{entry.instance, res.resource}] += affected;
      }
    }
  }
  return out;
}

}  // namespace

BottleneckReport detect_bottlenecks(const AttributedUsage& usage,
                                    const ExecutionTrace& trace,
                                    const TimesliceGrid& grid,
                                    const AnalysisConfig& /*config*/,
                                    ThreadPool* pool) {
  BottleneckReport report;

  // Blocking bottlenecks: straight from the blocking events.
  for (const BlockingSpan& span : trace.blocking()) {
    report.blocked[{span.instance, span.resource}] += span.interval.length();
  }

  // Each resource instance classifies independently; partial results are
  // merged in resource order. The per-(instance, resource) durations are
  // integers, so merged sums are exact regardless of grouping.
  std::vector<ResourceBottlenecks> partial(usage.resources.size());
  parallel_for(pool, usage.resources.size(), 1, [&](std::size_t r) {
    partial[r] = detect_one(usage.resources[r], grid);
  });
  // `merge` moves the nodes whose keys the report lacks; only the keys it
  // already holds stay behind in the partial, and are summed.
  const auto absorb = [](auto& into, auto& from) {
    into.merge(from);
    for (const auto& [key, value] : from) into[key] += value;
  };
  for (ResourceBottlenecks& p : partial) {
    absorb(report.saturated, p.saturated);
    absorb(report.self_limited, p.self_limited);
    report.saturation.push_back(std::move(p.sat));
  }
  return report;
}

}  // namespace g10::core
