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
#include "grade10/report/phase_profile.hpp"
#include "grade10/model/attribution_rules.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "grade10/trace/resource_trace.hpp"
#include "trace/records.hpp"

namespace g10 {
class DetHasher;
}

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

/// The pipeline's product. It holds the folded aggregates (`bottlenecks`,
/// `phase_usage`, `issues`) and the per-slice series, never the resource ×
/// timeslice × phase table: `demand` stays empty (no leaves, no per-slice
/// sums), and each `usage` instance holds its upsampled and unattributed
/// series but no entries or slice offsets. Callers that want the demand
/// matrices or the tables build them with estimate_demand and
/// attribute_usage over `trace` and `monitored`; fold_characterization
/// needs such a result.
struct CharacterizationResult {
  ExecutionTrace trace;
  ResourceTrace monitored;
  /// Empty in a pipeline result; filled by callers that assemble a result
  /// from the whole-table stages themselves.
  std::vector<DemandMatrix> demand;
  AttributedUsage usage;
  /// Attributed usage per (leaf type, resource): build_phase_profile's input.
  PhaseUsage phase_usage;
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
/// With `det`, the whole characterization is folded into it in
/// fold_characterization's order while each window of the attribution
/// tables exists.
CharacterizationResult characterize(const CharacterizationInput& input,
                                    DetHasher* det = nullptr);

/// Like characterize(), but never throws for data-dependent failures:
/// missing inputs, a rejected trace build and per-stage CheckErrors become
/// status.errors, and the stages that did complete are returned. Use with
/// trace_options.lenient for graceful degradation on damaged logs. Equal to
/// characterize_trace on ExecutionTrace::build_checked's result.
CheckedCharacterization characterize_checked(
    const CharacterizationInput& input, DetHasher* det = nullptr);

/// The stages after the trace build, on `built`: a build of the input's
/// phase events, blocking events and samples with its trace_options, whose
/// records this does not read again. A rejected build becomes a status
/// error.
///
/// Attribution runs in two passes. Pass A fills the demand of each matrix
/// with a monitored series, in parallel, keeps its per-slice series and
/// saturation timeline and frees its per-slice sums. Pass B, serially in
/// matrix order, builds each matrix's table `window_slices` slices at a time
/// from the matrix's leaves, folds each window into the bottlenecks, the
/// issue detector's shrink, the per-type usage and (with `det`) the digest,
/// and frees it. The window only bounds memory: the result and the digest
/// are the same at every window size, and the digest equals
/// fold_characterization of a result assembled from the whole-table stages.
CheckedCharacterization characterize_trace(
    const CharacterizationInput& input, TraceBuild built,
    DetHasher* det = nullptr,
    TimesliceIndex window_slices = kAttributionWindowSlices);

}  // namespace g10::core
