// Execution trace (paper §III-C): the tree of phase *instances* of one
// workload run, assembled from the SUT's phase-event log and validated
// against the execution model, with blocking events attached. The build
// works on the log's node form (trace::NodeLog): it adopts the reader's
// path table, so events pair and parents resolve by node id, and path text
// is rendered only for defects and PhaseInstance::path. The build's one
// pass, samples included, is also the only check of a trace's records:
// g10_lint's trace rules, strict rejection and lenient repair all read it.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/time.hpp"
#include "grade10/model/execution_model.hpp"
#include "grade10/model/resource_model.hpp"
#include "grade10/trace/resource_trace.hpp"
#include "trace/node_log.hpp"
#include "trace/records.hpp"

namespace g10::core {

using InstanceId = std::int32_t;
inline constexpr InstanceId kNoInstance = -1;

struct PhaseInstance {
  InstanceId id = kNoInstance;
  PhaseTypeId type = kNoPhaseType;
  InstanceId parent = kNoInstance;
  std::int64_t index = 0;  ///< instance index among same-type siblings
  TimeNs begin = 0;
  TimeNs end = 0;
  trace::MachineId machine = trace::kGlobalMachine;
  /// True when lenient mode repaired this instance (synthesized a missing
  /// end, clamped an escaping interval): its timing is an estimate.
  bool degraded = false;
  std::string path;  ///< canonical path string
  std::vector<InstanceId> children;
  /// Merged intervals during which the phase was blocked (any resource).
  std::vector<Interval> blocked;

  bool is_leaf() const { return children.empty(); }
  DurationNs duration() const { return end - begin; }
  DurationNs blocked_time() const;
};

/// One blocking event resolved against the model and the instance tree.
struct BlockingSpan {
  ResourceId resource = kNoResource;
  InstanceId instance = kNoInstance;
  Interval interval;
};

/// One defect of a trace's records, as the build reads them: each of the
/// build's responses names its lint rule.
struct TraceDefect {
  enum class Response {
    kReport,  ///< the build is unaffected; only lint reports it
    kRepair,  ///< a strict build rejects the trace, a lenient one repairs it
    kReject,  ///< the events contradict the model; every build rejects
  };
  /// The lint::rule_catalog id (at the catalog's severity), context and
  /// message g10_lint reports.
  std::string rule_id;
  std::string context;
  std::string message;
  Response response = Response::kReport;
  std::string error;   ///< the build's error when it rejects on this defect
  std::string repair;  ///< the lenient build's note on what it repaired
};

struct TraceBuild;

class ExecutionTrace {
 public:
  struct Options {
    /// Drop blocking events and samples whose resource is not in the model.
    /// No production caller sets it: Table II's untuned analysis drops the
    /// GC records itself before the build.
    bool ignore_unknown_blocking = false;
    /// Graceful degradation for damaged logs (crashed workers): instead of
    /// rejecting, repair what can be repaired and record a warning. A phase
    /// with a BEGIN but no END (a crashed worker's log just stops) gets a
    /// synthesized end — the latest recorded time in its subtree, i.e. the
    /// crash time — and is flagged `degraded`; duplicate/orphaned events
    /// and escaping intervals are skipped or clamped, as are samples that
    /// do not advance or go negative. Violations of the model itself
    /// (unknown hierarchy linkage, sampled resources) are still rejected:
    /// those mean the wrong model was supplied, not a damaged log.
    bool lenient = false;
  };

  /// Builds the instance tree and the resource trace from `log`'s events
  /// and samples, recording every defect. Never throws: the first defect
  /// whose Response `options` do not accept rejects the build
  /// (TraceBuild::error).
  static TraceBuild build_checked(const ExecutionModel& model,
                                  const ResourceModel& resources,
                                  const trace::NodeLog& log,
                                  const Options& options);

  /// build_checked of records: the node-log build over
  /// trace::intern_events of the phase and blocking events.
  static TraceBuild build_checked(
      const ExecutionModel& model, const ResourceModel& resources,
      std::span<const trace::PhaseEventRecord> phase_events,
      std::span<const trace::BlockingEventRecord> blocking_events,
      std::span<const trace::MonitoringSampleRecord> samples,
      const Options& options);

  /// build_checked of the phase and blocking events alone, throwing
  /// CheckError with TraceBuild::error when the build is rejected.
  static ExecutionTrace build(
      const ExecutionModel& model, const ResourceModel& resources,
      std::span<const trace::PhaseEventRecord> phase_events,
      std::span<const trace::BlockingEventRecord> blocking_events,
      const Options& options);

  /// Convenience overload with default options.
  static ExecutionTrace build(
      const ExecutionModel& model, const ResourceModel& resources,
      std::span<const trace::PhaseEventRecord> phase_events,
      std::span<const trace::BlockingEventRecord> blocking_events) {
    return build(model, resources, phase_events, blocking_events, Options{});
  }

  const std::vector<PhaseInstance>& instances() const { return instances_; }
  const PhaseInstance& instance(InstanceId id) const;
  const std::vector<InstanceId>& leaves() const { return leaves_; }
  const std::vector<BlockingSpan>& blocking() const { return blocking_; }

  InstanceId root() const { return instances_.empty() ? kNoInstance : 0; }

  /// The instance whose canonical path is `path`, or kNoInstance. A linear
  /// scan: meant for tests and worked examples, not per-record lookups.
  InstanceId find(std::string_view path) const;

  /// Latest phase end in the trace.
  TimeNs end_time() const { return end_time_; }

  /// All machine ids that appear on instances (excluding global).
  const std::vector<trace::MachineId>& machines() const { return machines_; }

  /// Human-readable notes about repairs performed in lenient mode (capped;
  /// a final entry summarizes any overflow). Empty for a clean trace.
  const std::vector<std::string>& warnings() const { return warnings_; }

  /// Number of instances flagged `degraded` by lenient repairs.
  std::size_t degraded_count() const;

 private:
  friend class TraceBuilder;

  std::vector<PhaseInstance> instances_;
  std::vector<InstanceId> leaves_;
  std::vector<BlockingSpan> blocking_;
  std::vector<trace::MachineId> machines_;
  std::vector<std::string> warnings_;
  TimeNs end_time_ = 0;
};

/// ExecutionTrace::build_checked's outcome.
struct TraceBuild {
  ExecutionTrace trace;     ///< empty when the build was rejected
  ResourceTrace monitored;  ///< the samples' series, likewise
  /// In the build's pass order: phase events as met, unended instances,
  /// linkage, containment, REPEATED siblings, blocking events as met, then
  /// the samples (ResourceTrace::build_checked's order).
  std::vector<TraceDefect> defects;
  /// Machines of the phase events, sorted: the machines trace-orphan-machine
  /// accepts in other records.
  std::vector<trace::MachineId> phase_machines;
  std::optional<std::string> error;  ///< the rejecting defect's error
};

/// Subtracts `blocked` intervals from [begin, end), returning the active
/// sub-intervals in order. Blocked intervals must be within [begin, end)
/// (clipped otherwise) but may touch; overlapping ones are merged.
std::vector<Interval> active_intervals(TimeNs begin, TimeNs end,
                                       std::vector<Interval> blocked);

}  // namespace g10::core
