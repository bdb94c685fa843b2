// Per-run analysis digest the ensemble aggregates over. Deliberately small
// and fully deterministic: only values that are bit-identical across
// re-executions of the same scenario belong here, because the aggregate
// report must be byte-identical whether a run was freshly computed or
// replayed from the journal. Wall-clock timings live on the journal entry,
// outside this struct, and never enter the aggregate.
#pragma once

#include <string>
#include <vector>

namespace g10::ensemble {

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
