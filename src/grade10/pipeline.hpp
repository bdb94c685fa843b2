// High-level facade: one call from raw logs + models to the full
// characterization result (paper Fig. 1, components 6-9).
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "grade10/attribution/attributor.hpp"
#include "grade10/attribution/demand.hpp"
#include "grade10/bottleneck/bottleneck.hpp"
#include "grade10/config.hpp"
#include "grade10/issues/issue_detector.hpp"
#include "grade10/model/attribution_rules.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "grade10/trace/resource_trace.hpp"
#include "trace/records.hpp"

namespace g10::core {

struct CharacterizationInput {
  const ExecutionModel* model = nullptr;
  const ResourceModel* resources = nullptr;
  const AttributionRuleSet* rules = nullptr;
  std::span<const trace::PhaseEventRecord> phase_events;
  std::span<const trace::BlockingEventRecord> blocking_events;
  std::span<const trace::MonitoringSampleRecord> samples;
  AnalysisConfig config;
  ExecutionTrace::Options trace_options;
};

struct CharacterizationResult {
  ExecutionTrace trace;
  ResourceTrace monitored;
  /// Per-slice `exact`/`variable` sums of every matrix. The matrices'
  /// `leaves` are released as soon as attribution has consumed them; call
  /// `estimate_demand` directly for per-leaf demand.
  std::vector<DemandMatrix> demand;
  AttributedUsage usage;
  BottleneckReport bottlenecks;
  std::vector<PerformanceIssue> issues;
  TimeNs baseline_makespan = 0;
  /// The critical path of the issue detector's baseline replay.
  CriticalPath critical_path;

  TimesliceGrid grid{1};
};

/// Outcome summary of a characterization attempt: structured errors instead
/// of aborts, plus any lenient-mode repair warnings from trace ingestion.
struct CharacterizationStatus {
  std::vector<std::string> errors;
  std::vector<std::string> warnings;
  bool ok() const { return errors.empty(); }
};

struct CheckedCharacterization {
  CharacterizationStatus status;
  /// Present when the pipeline produced a (possibly partial) result. On a
  /// late-stage failure the trace survives but downstream fields are empty.
  std::optional<CharacterizationResult> result;
};

/// Runs the full pipeline: trace building, demand estimation, upsampling +
/// attribution, bottleneck identification, and issue detection.
/// Throws g10::CheckError on invalid input or a damaged trace (unless
/// trace_options.lenient repairs it).
CharacterizationResult characterize(const CharacterizationInput& input);

/// Like characterize(), but never throws for data-dependent failures:
/// missing inputs, a rejected trace build and per-stage CheckErrors become
/// status.errors, and the stages that did complete are returned. Use with
/// trace_options.lenient for graceful degradation on damaged logs. Equal to
/// characterize_trace on ExecutionTrace::build_checked's result.
CheckedCharacterization characterize_checked(
    const CharacterizationInput& input);

/// The stages after the trace build, on `built`: a build of the input's
/// phase events, blocking events and samples with its trace_options, whose
/// records this does not read again. A rejected build becomes a status
/// error.
CheckedCharacterization characterize_trace(const CharacterizationInput& input,
                                           TraceBuild built);

}  // namespace g10::core
