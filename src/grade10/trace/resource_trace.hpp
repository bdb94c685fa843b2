// Resource trace (paper §III-C): per-resource, per-machine sequences of
// coarse monitoring measurements. Each measurement is the average
// consumption rate over its window; windows tile the run.
#pragma once

#include <span>
#include <vector>

#include "common/time.hpp"
#include "grade10/model/resource_model.hpp"
#include "trace/records.hpp"

namespace g10::core {

struct Measurement {
  TimeNs begin = 0;
  TimeNs end = 0;
  double value = 0.0;  ///< average rate over [begin, end), resource units
};

struct ResourceSeries {
  ResourceId resource = kNoResource;
  trace::MachineId machine = trace::kGlobalMachine;
  std::vector<Measurement> measurements;  ///< sorted, non-overlapping
};

struct TraceDefect;

class ResourceTrace {
 public:
  struct Options {
    /// Samples of a resource the model lacks are reported, not rejected.
    bool ignore_unknown_resources = false;
  };

  /// The trace build's sample pass (ExecutionTrace::build_checked). Groups
  /// samples by (resource, machine) and derives each measurement's window
  /// start from the previous sample (the first from 0), so a series must
  /// advance in time, starting after 0. Appends one TraceDefect per (rule,
  /// series) to `defects` and returns the series repaired as a lenient
  /// build does (sorted, negative rates clamped to 0); samples of unknown
  /// or blocking resources are dropped. `phase_machines` (sorted) are the
  /// machines trace-orphan-machine accepts; null skips that check.
  static ResourceTrace build_checked(
      const ResourceModel& model,
      std::span<const trace::MonitoringSampleRecord> samples,
      const Options& options,
      const std::vector<trace::MachineId>* phase_machines,
      std::vector<TraceDefect>& defects);

  /// build_checked, throwing CheckError on the first defect that is more
  /// than a report (a strict build).
  static ResourceTrace build(
      const ResourceModel& model,
      std::span<const trace::MonitoringSampleRecord> samples,
      const Options& options);

  /// Convenience overload with default options.
  static ResourceTrace build(
      const ResourceModel& model,
      std::span<const trace::MonitoringSampleRecord> samples) {
    return build(model, samples, Options{});
  }

  const std::vector<ResourceSeries>& series() const { return series_; }
  const ResourceSeries* find(ResourceId resource,
                             trace::MachineId machine) const;

 private:
  std::vector<ResourceSeries> series_;
};

}  // namespace g10::core
