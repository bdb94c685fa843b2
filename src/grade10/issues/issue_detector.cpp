#include "grade10/issues/issue_detector.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"
#include "common/thread_pool.hpp"

namespace g10::core {

IssueDetector::IssueDetector(const ExecutionModel& model,
                             const ResourceModel& resources,
                             const ExecutionTrace& trace,
                             const TimesliceGrid& grid,
                             const AnalysisConfig& config)
    : model_(model),
      resources_(resources),
      trace_(trace),
      grid_(grid),
      config_(config),
      simulator_(model, trace),
      recorded_(simulator_.recorded_durations()),
      baseline_(simulator_.critical_path(simulator_.simulate(recorded_))) {}

namespace {

/// A consumable bottleneck's slice shrinks to the utilization of the
/// next-binding resource, but never below this fraction.
constexpr double kMinShrinkFraction = 0.02;

/// Scales the durations of the leaves below `id` by `factor`.
void scale_leaves(const ExecutionTrace& trace, InstanceId id, double factor,
                  std::vector<DurationNs>& durations) {
  const PhaseInstance& instance = trace.instance(id);
  if (instance.is_leaf()) {
    auto& duration = durations[static_cast<std::size_t>(id)];
    duration = static_cast<DurationNs>(static_cast<double>(duration) * factor);
  }
  for (const InstanceId child : instance.children) {
    scale_leaves(trace, child, factor, durations);
  }
}

}  // namespace

std::vector<DurationNs> IssueDetector::balanced_durations(
    PhaseTypeId type) const {
  std::vector<DurationNs> adjusted = recorded_;
  for (std::size_t g = 0; g < simulator_.group_count(); ++g) {
    const auto members = simulator_.group_members(g);
    if (simulator_.group_type(g) != type || members.size() < 2) continue;
    // Integer durations sum exactly in a double (below 2^53 ns), so the
    // member order does not change the mean.
    double total = 0.0;
    for (const InstanceId id : members) {
      total += static_cast<double>(trace_.instance(id).duration());
    }
    const double mean = total / static_cast<double>(members.size());
    for (const InstanceId id : members) {
      const PhaseInstance& instance = trace_.instance(id);
      const auto duration = static_cast<double>(instance.duration());
      if (instance.is_leaf()) {
        adjusted[static_cast<std::size_t>(id)] =
            static_cast<DurationNs>(mean);
        continue;
      }
      if (duration > 0.0) scale_leaves(trace_, id, mean / duration, adjusted);
    }
  }
  return adjusted;
}

bool IssueDetector::is_fault_resource(ResourceId resource) const {
  const std::string& name = resources_.resource(resource).name;
  return name == "Recovery" || name == "Retry";
}

PerformanceIssue IssueDetector::replayed(
    PerformanceIssue issue, const std::vector<DurationNs>& durations) const {
  const TimeNs baseline = baseline_.makespan;
  issue.baseline_makespan = baseline;
  issue.optimistic_makespan = simulator_.simulate(durations).makespan;
  issue.impact =
      baseline > 0
          ? static_cast<double>(baseline - issue.optimistic_makespan) /
                static_cast<double>(baseline)
          : 0.0;
  return issue;
}

PerformanceIssue IssueDetector::imbalance_issue(PhaseTypeId type) const {
  PerformanceIssue issue;
  issue.kind = IssueKind::kImbalance;
  issue.phase_type = type;
  issue.description =
      "imbalance across concurrent '" + model_.type(type).name + "' phases";
  return replayed(std::move(issue), balanced_durations(type));
}

PerformanceIssue IssueDetector::bottleneck_issue(
    ResourceId resource, const AttributedUsage& usage,
    const BottleneckReport& bottlenecks) const {
  return bottleneck_issue(resource, shrink_of(usage, bottlenecks),
                          bottlenecks);
}

PerformanceIssue IssueDetector::bottleneck_issue(
    ResourceId resource, const BottleneckShrink& shrink,
    const BottleneckReport& bottlenecks) const {
  PerformanceIssue issue;
  issue.kind = IssueKind::kResourceBottleneck;
  issue.resource = resource;
  issue.description =
      "bottleneck on resource '" + resources_.resource(resource).name + "'";
  return replayed(std::move(issue),
                  bottleneck_durations(resource, shrink, bottlenecks));
}

void IssueDetector::add_shrink(BottleneckShrink& shrink,
                               const AttributedResource& ar,
                               const AttributedUsage& usage,
                               const BottleneckReport& bottlenecks) const {
  const auto resource_index = static_cast<std::size_t>(ar.resource);
  if (shrink.size() <= resource_index) shrink.resize(resource_index + 1);
  // Per-slice shrinks are accumulated in floating point and applied once
  // per instance, so slice-granularity rounding does not bias the result.
  // A resource's vector is allocated at its first shrinking entry.
  std::vector<double>& shrink_by_instance = shrink[resource_index];
  const double slice_len = static_cast<double>(grid_.slice_duration());
  const ResourceSaturation* saturation =
      bottlenecks.find_saturation(ar.resource, ar.machine);
  // Utilization of the other consumable resources on this machine: the
  // next binding constraint once `resource` is removed.
  std::vector<const AttributedResource*> others;
  for (const AttributedResource& other : usage.resources) {
    if (other.machine == ar.machine && other.resource != ar.resource) {
      others.push_back(&other);
    }
  }
  for (TimesliceIndex s = ar.first_slice; s < ar.table_end(); ++s) {
    const auto slice = static_cast<std::size_t>(s);
    const bool slice_saturated =
        saturation != nullptr && saturation->saturated[slice] != 0;
    double next_binding = kMinShrinkFraction;
    for (const AttributedResource* other : others) {
      if (slice < other->upsampled.usage.size()) {
        next_binding = std::max(
            next_binding, other->upsampled.usage[slice] / other->capacity);
      }
    }
    next_binding = std::min(next_binding, 1.0);
    const auto entries = ar.slice_entries(s);
    // Self-limited phases (pinned at their own Exact cap while the
    // resource has headroom) can at best absorb the slice's idle
    // capacity, shared among them — unlike a saturated resource,
    // nothing else frees up when the configuration limit is lifted.
    const auto self_limited = [&](const AttributionEntry& entry) {
      return entry.exact && entry.demand > 0.0 &&
             entry.usage >= kExactCapThreshold * entry.demand;
    };
    double self_limited_usage = 0.0;
    for (const AttributionEntry& entry : entries) {
      if (self_limited(entry)) self_limited_usage += entry.usage;
    }
    const double headroom =
        std::max(0.0, ar.capacity - ar.upsampled.usage[slice]);
    const double self_limit_factor =
        self_limited_usage > 0.0
            ? self_limited_usage / (self_limited_usage + headroom)
            : 1.0;
    for (const AttributionEntry& entry : entries) {
      if (!slice_saturated && !self_limited(entry)) continue;
      const double factor =
          slice_saturated ? next_binding
                          : std::max(next_binding, self_limit_factor);
      if (shrink_by_instance.empty()) {
        shrink_by_instance.assign(recorded_.size(), 0.0);
      }
      shrink_by_instance[static_cast<std::size_t>(entry.instance)] +=
          slice_len * entry.fraction * (1.0 - factor);
    }
  }
}

BottleneckShrink IssueDetector::shrink_of(
    const AttributedUsage& usage, const BottleneckReport& bottlenecks) const {
  BottleneckShrink shrink;
  for (const AttributedResource& ar : usage.resources) {
    add_shrink(shrink, ar, usage, bottlenecks);
  }
  return shrink;
}

std::vector<DurationNs> IssueDetector::bottleneck_durations(
    ResourceId resource, const AttributedUsage& usage,
    const BottleneckReport& bottlenecks) const {
  return bottleneck_durations(resource, shrink_of(usage, bottlenecks),
                              bottlenecks);
}

std::vector<DurationNs> IssueDetector::bottleneck_durations(
    ResourceId resource, const BottleneckShrink& shrink,
    const BottleneckReport& bottlenecks) const {
  std::vector<DurationNs> adjusted = recorded_;
  if (resources_.resource(resource).kind == ResourceKind::kBlocking) {
    for (const auto& [key, blocked_time] : bottlenecks.blocked) {
      if (key.second != resource) continue;
      auto& duration = adjusted[static_cast<std::size_t>(key.first)];
      duration = std::max<DurationNs>(0, duration - blocked_time);
    }
    return adjusted;
  }
  const auto index = static_cast<std::size_t>(resource);
  if (index >= shrink.size()) return adjusted;
  const std::vector<double>& shrink_by_instance = shrink[index];
  for (std::size_t i = 0; i < shrink_by_instance.size(); ++i) {
    if (shrink_by_instance[i] > 0.0) {
      adjusted[i] = std::max<DurationNs>(
          0, adjusted[i] - static_cast<DurationNs>(
                               std::llround(shrink_by_instance[i])));
    }
  }
  return adjusted;
}

PerformanceIssue IssueDetector::fault_recovery_issue() const {
  PerformanceIssue issue;
  issue.kind = IssueKind::kFaultRecovery;
  issue.description = "time lost to fault handling (crash recovery, retries)";
  std::vector<Interval> spans;
  for (const BlockingSpan& span : trace_.blocking()) {
    if (is_fault_resource(span.resource)) spans.push_back(span.interval);
  }
  const TimeNs end_time = trace_.end_time();
  issue.baseline_makespan = end_time;
  std::ranges::sort(spans, {}, &Interval::begin);
  DurationNs blocked = 0;
  TimeNs cursor = std::numeric_limits<TimeNs>::min();
  for (const Interval& span : spans) {
    const TimeNs begin = std::max(span.begin, cursor);
    if (span.end > begin) {
      blocked += span.end - begin;
      cursor = span.end;
    }
  }
  issue.optimistic_makespan = end_time - blocked;
  issue.impact = end_time > 0
                     ? static_cast<double>(blocked) /
                           static_cast<double>(end_time)
                     : 0.0;
  return issue;
}

std::vector<PerformanceIssue> IssueDetector::detect(
    const AttributedUsage& usage, const BottleneckReport& bottlenecks,
    ThreadPool* pool) {
  return detect(shrink_of(usage, bottlenecks), bottlenecks, pool);
}

std::vector<PerformanceIssue> IssueDetector::detect(
    const BottleneckShrink& shrink, const BottleneckReport& bottlenecks,
    ThreadPool* pool) {
  // Candidate enumeration is cheap and stays serial; evaluating a candidate
  // replays the whole trace, so that fans out — one task per candidate.
  struct Candidate {
    ResourceId resource = kNoResource;
    PhaseTypeId type = kNoPhaseType;  ///< set for imbalance candidates
  };
  std::vector<Candidate> candidates;
  for (ResourceId r = 0;
       r < static_cast<ResourceId>(resources_.resource_count()); ++r) {
    // Fault-class resources are covered by the dedicated fault-recovery
    // issue below; a bottleneck replay would zero their wait-type phases.
    if (!is_fault_resource(r)) candidates.push_back({r, kNoPhaseType});
  }
  const std::size_t bottleneck_count = candidates.size();
  // Only types that actually form concurrent sibling groups.
  std::vector<bool> grouped(model_.type_count(), false);
  for (std::size_t g = 0; g < simulator_.group_count(); ++g) {
    if (simulator_.group_members(g).size() >= 2) {
      grouped[static_cast<std::size_t>(simulator_.group_type(g))] = true;
    }
  }
  for (PhaseTypeId t = 0; t < static_cast<PhaseTypeId>(model_.type_count());
       ++t) {
    if (grouped[static_cast<std::size_t>(t)] && !model_.type(t).wait) {
      candidates.push_back({kNoResource, t});
    }
  }

  const std::vector<PerformanceIssue> evaluated =
      parallel_map(pool, candidates, [&](const Candidate& c) {
        return c.type != kNoPhaseType
                   ? imbalance_issue(c.type)
                   : bottleneck_issue(c.resource, shrink, bottlenecks);
      });

  // Reassemble in the serial order (bottlenecks, fault recovery,
  // imbalances) so the impact sort below sees the same input sequence at
  // every thread count — ties then break identically.
  const auto fault_pos =
      evaluated.begin() + static_cast<std::ptrdiff_t>(bottleneck_count);
  std::vector<PerformanceIssue> issues(evaluated.begin(), fault_pos);
  {
    PerformanceIssue fault = fault_recovery_issue();
    if (fault.optimistic_makespan < fault.baseline_makespan) {
      issues.push_back(std::move(fault));
    }
  }
  issues.insert(issues.end(), fault_pos, evaluated.end());
  std::erase_if(issues, [this](const PerformanceIssue& issue) {
    return issue.impact < config_.min_issue_impact;
  });
  std::sort(issues.begin(), issues.end(),
            [](const PerformanceIssue& a, const PerformanceIssue& b) {
              return a.impact > b.impact;
            });
  return issues;
}

}  // namespace g10::core
