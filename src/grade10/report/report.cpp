#include "grade10/report/report.hpp"

#include <map>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace g10::core {

void render_profile(std::ostream& os, const ExecutionTrace& trace,
                    const ResourceModel& resources,
                    const AttributedUsage& usage, const TimesliceGrid& grid) {
  os << "== Execution profile ==\n";
  if (trace.root() == kNoInstance) {
    os << "(empty trace)\n";
    return;
  }
  const PhaseInstance& root = trace.instance(trace.root());
  os << "makespan: " << format_fixed(to_seconds(root.duration()), 3) << " s\n";
  TextTable phases({"phase", "begin [s]", "duration [s]", "machine"});
  for (const InstanceId child : root.children) {
    const PhaseInstance& instance = trace.instance(child);
    phases.add_row({instance.path,
                    format_fixed(to_seconds(instance.begin), 3),
                    format_fixed(to_seconds(instance.duration()), 3),
                    instance.machine == trace::kGlobalMachine
                        ? "-"
                        : std::to_string(instance.machine)});
  }
  phases.render(os);

  os << "\n== Resource utilization (upsampled) ==\n";
  TextTable table({"resource", "machine", "mean util", "unattributed",
                   "unallocated mass"});
  for (const AttributedResource& r : usage.resources) {
    double total = 0.0;
    double unattributed = 0.0;
    for (const double u : r.upsampled.usage) total += u;
    for (const double u : r.unattributed) unattributed += u;
    const double slices = static_cast<double>(r.slice_count());
    (void)grid;
    table.add_row(
        {resources.resource(r.resource).name,
         r.machine == trace::kGlobalMachine ? "-" : std::to_string(r.machine),
         format_percent(slices > 0 ? total / slices / r.capacity : 0.0),
         format_percent(total > 0 ? unattributed / total : 0.0),
         format_fixed(r.upsampled.unallocated, 3)});
  }
  table.render(os);
}

void render_bottlenecks(std::ostream& os, const ResourceModel& resources,
                        const BottleneckReport& report) {
  os << "== Bottlenecks ==\n";
  const auto blocked = BottleneckReport::totals_by_resource(report.blocked);
  const auto saturated =
      BottleneckReport::totals_by_resource(report.saturated);
  const auto limited =
      BottleneckReport::totals_by_resource(report.self_limited);
  TextTable table(
      {"resource", "blocked [s]", "saturated [s]", "self-limited [s]"});
  for (ResourceId r = 0;
       r < static_cast<ResourceId>(resources.resource_count()); ++r) {
    const auto value = [&](const std::map<ResourceId, DurationNs>& m) {
      const auto it = m.find(r);
      return it == m.end() ? 0.0 : to_seconds(it->second);
    };
    table.add_row({resources.resource(r).name,
                   format_fixed(value(blocked), 3),
                   format_fixed(value(saturated), 3),
                   format_fixed(value(limited), 3)});
  }
  table.render(os);
}

void render_critical_path(std::ostream& os, const ExecutionModel& model,
                          const ExecutionTrace& trace,
                          const CriticalPath& path) {
  os << "== Critical path (replayed) ==\n";
  if (path.leaves.empty() || path.makespan <= 0) {
    os << "(empty schedule)\n";
    return;
  }
  std::map<PhaseTypeId, DurationNs> by_type;
  DurationNs covered = 0;
  for (std::size_t i = 0; i < path.leaves.size(); ++i) {
    by_type[trace.instance(path.leaves[i]).type] += path.lengths[i];
    covered += path.lengths[i];
  }
  TextTable table({"phase type", "time on path [s]", "share of makespan"});
  for (const auto& [type, time] : by_type) {
    table.add_row({model.type(type).name, format_fixed(to_seconds(time), 3),
                   format_percent(static_cast<double>(time) /
                                  static_cast<double>(path.makespan))});
  }
  table.add_row({"(scheduler gaps / parent tails)",
                 format_fixed(to_seconds(path.makespan - covered), 3),
                 format_percent(static_cast<double>(path.makespan - covered) /
                                static_cast<double>(path.makespan))});
  table.render(os);
}

void render_critical_path(std::ostream& os, const ExecutionModel& model,
                          const ExecutionTrace& trace,
                          const ReplaySimulator& simulator,
                          const ReplaySchedule& schedule) {
  render_critical_path(os, model, trace, simulator.critical_path(schedule));
}

void render_issues(std::ostream& os,
                   const std::vector<PerformanceIssue>& issues) {
  os << "== Performance issues (optimistic impact) ==\n";
  if (issues.empty()) {
    os << "(none above threshold)\n";
    return;
  }
  TextTable table({"issue", "impact", "baseline [s]", "optimistic [s]"});
  for (const PerformanceIssue& issue : issues) {
    table.add_row({issue.description, format_percent(issue.impact),
                   format_fixed(to_seconds(issue.baseline_makespan), 3),
                   format_fixed(to_seconds(issue.optimistic_makespan), 3)});
  }
  table.render(os);
}

}  // namespace g10::core
