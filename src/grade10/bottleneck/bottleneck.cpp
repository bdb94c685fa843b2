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

ResourceSaturation saturation_of(const AttributedResource& resource,
                                 const TimesliceGrid& grid) {
  ResourceSaturation sat;
  sat.resource = resource.resource;
  sat.machine = resource.machine;
  const std::vector<double>& usage = resource.upsampled.usage;
  sat.saturated.assign(usage.size(), 0);
  const double threshold = kSaturationThreshold * resource.capacity;
  for (std::size_t s = 0; s < usage.size(); ++s) {
    if (usage[s] >= threshold) {
      sat.saturated[s] = 1;
      sat.total_saturated += grid.slice_duration();
    }
  }
  return sat;
}

void BottleneckTally::add(const AttributedResource& resource,
                          const ResourceSaturation& saturation,
                          const TimesliceGrid& grid) {
  G10_ASSERT_MSG(saturation.saturated.size() == resource.upsampled.usage.size(),
                 "attributed resource and saturation timeline disagree on "
                 "slice count");
  const DurationNs slice = grid.slice_duration();
  const auto tally = [this](std::vector<DurationNs>& sums, InstanceId instance,
                            DurationNs affected) {
    const auto i = static_cast<std::size_t>(instance);
    if (i >= saturated_.size()) {
      saturated_.resize(i + 1, kUntouched);
      self_limited_.resize(i + 1, kUntouched);
    }
    if (saturated_[i] == kUntouched && self_limited_[i] == kUntouched) {
      touched_.push_back(instance);
    }
    sums[i] = (sums[i] == kUntouched ? 0 : sums[i]) + affected;
  };
  for (TimesliceIndex s = resource.first_slice; s < resource.table_end(); ++s) {
    const bool saturated = saturation.saturated[static_cast<std::size_t>(s)];
    for (const AttributionEntry& entry : resource.slice_entries(s)) {
      if (entry.demand <= 0.0) continue;
      const auto affected = static_cast<DurationNs>(
          entry.fraction * static_cast<double>(slice));
      if (saturated) {
        tally(saturated_, entry.instance, affected);
      } else if (entry.exact &&
                 entry.usage >= kExactCapThreshold * entry.demand) {
        tally(self_limited_, entry.instance, affected);
      }
    }
  }
}

void BottleneckTally::close(ResourceId resource) {
  for (const InstanceId instance : touched_) {
    const auto i = static_cast<std::size_t>(instance);
    if (saturated_[i] != kUntouched) {
      saturated_pending_.push_back({{instance, resource}, saturated_[i]});
    }
    if (self_limited_[i] != kUntouched) {
      self_limited_pending_.push_back({{instance, resource}, self_limited_[i]});
    }
    saturated_[i] = kUntouched;
    self_limited_[i] = kUntouched;
  }
  touched_.clear();
}

void BottleneckTally::flush(BottleneckReport& report) {
  // In key order, each key lands right before the hint: no tree search
  // when the map held none of the keys.
  const auto add_all = [](Pending& pending, auto& into) {
    std::sort(pending.begin(), pending.end());
    auto hint = into.begin();
    for (const auto& [key, duration] : pending) {
      hint = into.try_emplace(hint, key, 0);
      hint->second += duration;
      ++hint;
    }
    pending = Pending();
  };
  add_all(saturated_pending_, report.saturated);
  add_all(self_limited_pending_, report.self_limited);
  saturated_ = std::vector<DurationNs>();
  self_limited_ = std::vector<DurationNs>();
  touched_ = std::vector<InstanceId>();
}

BottleneckReport blocking_bottlenecks(const ExecutionTrace& trace) {
  BottleneckReport report;
  for (const BlockingSpan& span : trace.blocking()) {
    report.blocked[{span.instance, span.resource}] += span.interval.length();
  }
  return report;
}

BottleneckReport detect_bottlenecks(const AttributedUsage& usage,
                                    const ExecutionTrace& trace,
                                    const TimesliceGrid& grid,
                                    const AnalysisConfig& /*config*/,
                                    ThreadPool* pool) {
  BottleneckReport report = blocking_bottlenecks(trace);
  // Each resource instance classifies independently into its own partial
  // report; partials are merged in resource order. The per-(instance,
  // resource) durations are integers, so merged sums are exact regardless
  // of grouping.
  std::vector<BottleneckReport> partial(usage.resources.size());
  parallel_for(pool, usage.resources.size(), 1, [&](std::size_t r) {
    const AttributedResource& resource = usage.resources[r];
    partial[r].saturation.push_back(saturation_of(resource, grid));
    BottleneckTally tally;
    tally.add(resource, partial[r].saturation.back(), grid);
    tally.close(resource.resource);
    tally.flush(partial[r]);
  });
  // `merge` moves the nodes whose keys the report lacks; only the keys it
  // already holds stay behind in the partial, and are summed.
  const auto absorb = [](auto& into, auto& from) {
    into.merge(from);
    for (const auto& [key, value] : from) into[key] += value;
  };
  for (BottleneckReport& p : partial) {
    absorb(report.saturated, p.saturated);
    absorb(report.self_limited, p.self_limited);
    report.saturation.push_back(std::move(p.saturation.front()));
  }
  return report;
}

}  // namespace g10::core
