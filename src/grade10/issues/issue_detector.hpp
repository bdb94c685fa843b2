// Performance-issue detection (paper §III-F).
//
// For each candidate issue the detector derives adjusted leaf durations
// ("what if this issue were fixed?"), replays the trace, and reports the
// optimistic makespan reduction. Two issue classes are implemented, matching
// the paper:
//
//  - Resource bottlenecks: remove every bottleneck on one resource. For a
//    blocking resource, phases lose their blocked time. For a consumable
//    resource, each bottlenecked slice shrinks to the utilization of the
//    next-most-utilized resource on that machine (the next binding
//    constraint), with a fixed floor.
//
//  - Imbalanced execution: concurrent same-type sibling phases are set to
//    their mean duration (total work preserved; work is interchangeable
//    only within a group, per the paper's locality assumption). Non-leaf
//    groups scale their leaf descendants proportionally.
//
//  - Fault recovery: total wall-clock time covered by fault-class blocking
//    events (the Recovery and Retry resources — crash recovery and send
//    retries).
//    Measured directly as the union of those blocked intervals over the
//    trace; the replay simulator is bypassed because recovery phases are
//    wait-type and would replay with zero duration.
#pragma once

#include <string>
#include <vector>

#include "grade10/attribution/attributor.hpp"
#include "grade10/bottleneck/bottleneck.hpp"
#include "grade10/config.hpp"
#include "grade10/issues/replay_simulator.hpp"

namespace g10::core {

enum class IssueKind { kResourceBottleneck, kImbalance, kFaultRecovery };

struct PerformanceIssue {
  IssueKind kind = IssueKind::kResourceBottleneck;
  ResourceId resource = kNoResource;    ///< bottleneck issues
  PhaseTypeId phase_type = kNoPhaseType;///< imbalance issues
  std::string description;
  TimeNs baseline_makespan = 0;
  TimeNs optimistic_makespan = 0;
  /// Upper bound on the makespan reduction: (baseline - optimistic) / baseline.
  double impact = 0.0;
};

/// Per consumable resource, indexed by its id: per phase instance, the
/// time in ns removing the resource's bottleneck takes off the instance,
/// summed in slice order. Empty for a resource with no attributed instance.
using BottleneckShrink = std::vector<std::vector<double>>;

class IssueDetector {
 public:
  IssueDetector(const ExecutionModel& model, const ResourceModel& resources,
                const ExecutionTrace& trace, const TimesliceGrid& grid,
                const AnalysisConfig& config);

  /// All issues whose impact clears config.min_issue_impact, sorted by
  /// descending impact. With a pool, candidate issues are evaluated in
  /// parallel (one replay each) and reassembled in the serial order.
  std::vector<PerformanceIssue> detect(const BottleneckShrink& shrink,
                                       const BottleneckReport& bottlenecks,
                                       ThreadPool* pool = nullptr);
  /// detect() over the shrink of `usage`'s tables (shrink_of).
  std::vector<PerformanceIssue> detect(const AttributedUsage& usage,
                                       const BottleneckReport& bottlenecks,
                                       ThreadPool* pool = nullptr);

  /// Adds the shrink of the entries in `ar`'s table (a window or the whole
  /// table) to `shrink`. `usage` holds the series of every instance (the
  /// next binding constraint) and `bottlenecks` the saturation timeline of
  /// `ar`. An instance lies in one matrix per resource, so the sums depend
  /// only on each matrix's windows being added in slice order.
  void add_shrink(BottleneckShrink& shrink, const AttributedResource& ar,
                  const AttributedUsage& usage,
                  const BottleneckReport& bottlenecks) const;

  /// The imbalance issue for one phase type. Thread-safe.
  PerformanceIssue imbalance_issue(PhaseTypeId type) const;

  /// The bottleneck-removal issue for one resource. Thread-safe.
  PerformanceIssue bottleneck_issue(ResourceId resource,
                                    const AttributedUsage& usage,
                                    const BottleneckReport& bottlenecks) const;

  /// The fault-recovery issue: union of blocked intervals on the
  /// Recovery and Retry resources over the whole trace. Impact is relative to
  /// the recorded end time, not the replay baseline.
  PerformanceIssue fault_recovery_issue() const;

  TimeNs baseline_makespan() const { return baseline_.makespan; }
  /// The critical path of the baseline replay (the recorded durations).
  const CriticalPath& critical_path() const { return baseline_; }

  /// The leaf durations imbalance_issue(type) replays.
  std::vector<DurationNs> balanced_durations(PhaseTypeId type) const;
  /// The leaf durations bottleneck_issue(resource, ...) replays.
  std::vector<DurationNs> bottleneck_durations(
      ResourceId resource, const AttributedUsage& usage,
      const BottleneckReport& bottlenecks) const;

 private:
  bool is_fault_resource(ResourceId resource) const;
  /// The shrink of every instance of `usage`, which holds the tables.
  BottleneckShrink shrink_of(const AttributedUsage& usage,
                             const BottleneckReport& bottlenecks) const;
  PerformanceIssue bottleneck_issue(ResourceId resource,
                                    const BottleneckShrink& shrink,
                                    const BottleneckReport& bottlenecks) const;
  std::vector<DurationNs> bottleneck_durations(
      ResourceId resource, const BottleneckShrink& shrink,
      const BottleneckReport& bottlenecks) const;
  /// `issue` with the makespans of the baseline and of `durations`.
  PerformanceIssue replayed(PerformanceIssue issue,
                            const std::vector<DurationNs>& durations) const;

  const ExecutionModel& model_;
  const ResourceModel& resources_;
  const ExecutionTrace& trace_;
  TimesliceGrid grid_;
  AnalysisConfig config_;
  ReplaySimulator simulator_;
  std::vector<DurationNs> recorded_;
  CriticalPath baseline_;
};

}  // namespace g10::core
