// Per-phase-type profile: the aggregate view an analyst reads first
// (paper component 10). For every phase type: instance counts, total and
// per-instance durations, blocked time per blocking resource, and attributed
// usage per consumable resource, rolled up over all instances of the type.
#pragma once

#include <map>
#include <ostream>
#include <vector>

#include "grade10/attribution/attributor.hpp"
#include "grade10/bottleneck/bottleneck.hpp"
#include "grade10/trace/execution_trace.hpp"

namespace g10::core {

struct PhaseTypeStats {
  PhaseTypeId type = kNoPhaseType;
  std::size_t instances = 0;
  DurationNs total_duration = 0;
  DurationNs max_duration = 0;
  DurationNs total_blocked = 0;
  /// Attributed usage in unit·seconds per consumable resource (leaf types
  /// only — attribution happens at leaf level).
  std::map<ResourceId, double> usage;
  /// Total bottlenecked time per resource (blocked + saturated +
  /// self-limited).
  std::map<ResourceId, DurationNs> bottlenecked;
};

/// Attributed usage in unit·seconds per (leaf type, consumable resource),
/// each sum taken in attribution-table order.
using PhaseUsage = std::map<PhaseTypeId, std::map<ResourceId, double>>;

/// Adds the entries of one attributed resource instance (with its table) to
/// `usage`. Sums are order-sensitive: add instances in table order.
void add_phase_usage(PhaseUsage& usage, const ExecutionTrace& trace,
                     const AttributedResource& resource,
                     const TimesliceGrid& grid);

/// Aggregates the trace, the attributed usage per type and the bottleneck
/// results by phase type.
std::vector<PhaseTypeStats> build_phase_profile(
    const ExecutionTrace& trace, const PhaseUsage& usage,
    const BottleneckReport& bottlenecks);
/// The same over `usage`'s tables (add_phase_usage of each instance).
std::vector<PhaseTypeStats> build_phase_profile(
    const ExecutionTrace& trace, const AttributedUsage& usage,
    const BottleneckReport& bottlenecks, const TimesliceGrid& grid);

/// Renders the profile as a table, with resource columns named from the
/// model. Types are ordered by total duration, descending.
void render_phase_profile(std::ostream& os, const ExecutionModel& model,
                          const ResourceModel& resources,
                          const std::vector<PhaseTypeStats>& profile);

}  // namespace g10::core
