// Result rendering (paper component 10): plain-text summaries of the
// profile, the detected bottlenecks, and the performance issues.
#pragma once

#include <ostream>
#include <vector>

#include "grade10/bottleneck/bottleneck.hpp"
#include "grade10/issues/issue_detector.hpp"

namespace g10::core {

/// Top-level phase durations and per-resource aggregate utilization.
void render_profile(std::ostream& os, const ExecutionTrace& trace,
                    const ResourceModel& resources,
                    const AttributedUsage& usage, const TimesliceGrid& grid);

/// Per-resource bottleneck totals (blocked / saturated / self-limited).
void render_bottlenecks(std::ostream& os, const ResourceModel& resources,
                        const BottleneckReport& report);

/// Detected issues sorted by impact.
void render_issues(std::ostream& os,
                   const std::vector<PerformanceIssue>& issues);

/// Critical-path breakdown: which phase types the replayed makespan is
/// spent on along the binding chain of leaves.
void render_critical_path(std::ostream& os, const ExecutionModel& model,
                          const ExecutionTrace& trace,
                          const CriticalPath& path);
/// The same, for `schedule`'s path.
void render_critical_path(std::ostream& os, const ExecutionModel& model,
                          const ExecutionTrace& trace,
                          const ReplaySimulator& simulator,
                          const ReplaySchedule& schedule);

}  // namespace g10::core
