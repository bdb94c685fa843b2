#include "grade10/report/phase_profile.hpp"

#include <algorithm>

#include "common/strings.hpp"
#include "common/table.hpp"

namespace g10::core {

void add_phase_usage(PhaseUsage& usage, const ExecutionTrace& trace,
                     const AttributedResource& resource,
                     const TimesliceGrid& grid) {
  // Attributed usage, rolled up to each leaf's own type. Each type's sum
  // is looked up once per table; map nodes do not move.
  const double slice_seconds = to_seconds(grid.slice_duration());
  std::vector<double*> sum_of;
  for (const AttributionEntry& entry : resource.entries) {
    const auto type =
        static_cast<std::size_t>(trace.instance(entry.instance).type);
    if (type >= sum_of.size()) sum_of.resize(type + 1, nullptr);
    if (sum_of[type] == nullptr) {
      sum_of[type] = &usage[static_cast<PhaseTypeId>(type)][resource.resource];
    }
    *sum_of[type] += entry.usage * slice_seconds;
  }
}

std::vector<PhaseTypeStats> build_phase_profile(
    const ExecutionTrace& trace, const AttributedUsage& usage,
    const BottleneckReport& bottlenecks, const TimesliceGrid& grid) {
  PhaseUsage by_type;
  for (const AttributedResource& resource : usage.resources) {
    add_phase_usage(by_type, trace, resource, grid);
  }
  return build_phase_profile(trace, by_type, bottlenecks);
}

std::vector<PhaseTypeStats> build_phase_profile(
    const ExecutionTrace& trace, const PhaseUsage& usage,
    const BottleneckReport& bottlenecks) {
  std::map<PhaseTypeId, PhaseTypeStats> by_type;
  std::vector<PhaseTypeId> instance_type(trace.instances().size(),
                                         kNoPhaseType);
  for (const PhaseInstance& instance : trace.instances()) {
    auto& stats = by_type[instance.type];
    stats.type = instance.type;
    ++stats.instances;
    stats.total_duration += instance.duration();
    stats.max_duration = std::max(stats.max_duration, instance.duration());
    stats.total_blocked += instance.blocked_time();
    instance_type[static_cast<std::size_t>(instance.id)] = instance.type;
  }
  for (const auto& [type, by_resource] : usage) {
    by_type[type].usage = by_resource;
  }
  const auto accumulate =
      [&](const std::map<std::pair<InstanceId, ResourceId>, DurationNs>& m) {
        for (const auto& [key, time] : m) {
          const PhaseTypeId type =
              instance_type[static_cast<std::size_t>(key.first)];
          by_type[type].bottlenecked[key.second] += time;
        }
      };
  accumulate(bottlenecks.blocked);
  accumulate(bottlenecks.saturated);
  accumulate(bottlenecks.self_limited);

  std::vector<PhaseTypeStats> profile;
  profile.reserve(by_type.size());
  for (auto& [type, stats] : by_type) profile.push_back(std::move(stats));
  std::sort(profile.begin(), profile.end(),
            [](const PhaseTypeStats& a, const PhaseTypeStats& b) {
              return a.total_duration > b.total_duration;
            });
  return profile;
}

void render_phase_profile(std::ostream& os, const ExecutionModel& model,
                          const ResourceModel& resources,
                          const std::vector<PhaseTypeStats>& profile) {
  os << "== Phase-type profile ==\n";
  std::vector<std::string> header{"phase type", "count", "total [s]",
                                  "max [s]", "blocked [s]"};
  const auto consumables = resources.consumables();
  for (const ResourceId r : consumables) {
    header.push_back(resources.resource(r).name + " [unit.s]");
  }
  header.push_back("bottlenecked [s]");
  TextTable table(std::move(header));
  for (const PhaseTypeStats& stats : profile) {
    std::vector<std::string> row{
        model.type(stats.type).name, std::to_string(stats.instances),
        format_fixed(to_seconds(stats.total_duration), 3),
        format_fixed(to_seconds(stats.max_duration), 3),
        format_fixed(to_seconds(stats.total_blocked), 3)};
    for (const ResourceId r : consumables) {
      const auto it = stats.usage.find(r);
      row.push_back(format_fixed(it == stats.usage.end() ? 0.0 : it->second,
                                 3));
    }
    DurationNs bottlenecked = 0;
    for (const auto& [r, time] : stats.bottlenecked) bottlenecked += time;
    row.push_back(format_fixed(to_seconds(bottlenecked), 3));
    table.add_row(std::move(row));
  }
  table.render(os);
}

}  // namespace g10::core
