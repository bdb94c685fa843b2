// Per-run analysis digest the ensemble aggregates over, and the outcome
// taxonomy every journaled run carries. The digest is deliberately small
// and fully deterministic: only values that are bit-identical across
// re-executions of the same scenario belong here, because the aggregate
// report must be byte-identical whether a run was freshly computed or
// replayed from the journal. Wall-clock timings live on the journal entry,
// outside this struct, and never enter the aggregate.
//
// Outcomes (journaled, documented in DESIGN.md §12):
//   ok              run + analysis completed
//   timeout         the supervisor killed the worker running it as wedged
//   run_failed      the engine run threw, or its worker crashed
//   analysis_failed the run produced artifacts but characterization failed
//   skipped         never completed: it kept killing workers (poisonous)
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace g10::ensemble {

enum class RunOutcome {
  kOk,
  kTimeout,
  kRunFailed,
  kAnalysisFailed,
  kSkipped,
};

/// Journal/report tag ("ok", "timeout", "run_failed", ...).
constexpr std::string_view outcome_name(RunOutcome outcome) {
  switch (outcome) {
    case RunOutcome::kOk:
      return "ok";
    case RunOutcome::kTimeout:
      return "timeout";
    case RunOutcome::kRunFailed:
      return "run_failed";
    case RunOutcome::kAnalysisFailed:
      return "analysis_failed";
    case RunOutcome::kSkipped:
      return "skipped";
  }
  return "?";
}

constexpr std::optional<RunOutcome> parse_outcome(std::string_view name) {
  for (const RunOutcome outcome :
       {RunOutcome::kOk, RunOutcome::kTimeout, RunOutcome::kRunFailed,
        RunOutcome::kAnalysisFailed, RunOutcome::kSkipped}) {
    if (outcome_name(outcome) == name) return outcome;
  }
  return std::nullopt;
}

struct RunReport {
  /// Simulated makespan of the run, in seconds.
  double makespan_seconds = 0.0;

  /// Dominant bottleneck per phase type: the resource with the largest
  /// total bottlenecked time over all instances of the type (phases whose
  /// instances were never bottlenecked are absent).
  struct PhaseBottleneck {
    std::string phase;     ///< phase type name, e.g. "GatherStep"
    std::string resource;  ///< resource name, e.g. "network"
    double seconds = 0.0;  ///< total bottlenecked time on that resource
  };
  std::vector<PhaseBottleneck> phase_bottlenecks;

  /// Detected performance issues, labeled "<kind>:<subject>" (e.g.
  /// "imbalance:GatherThread", "bottleneck:network", "fault-recovery"),
  /// with the replay-estimated makespan impact fraction.
  struct Issue {
    std::string label;
    double impact = 0.0;
  };
  std::vector<Issue> issues;

  /// §IV-D headline: the scenario injected the sync bug and the analysis
  /// surfaced a Gather-phase imbalance issue above the rediscovery
  /// threshold — the injected bug was found.
  bool sync_bug_rediscovered = false;
};

}  // namespace g10::ensemble
