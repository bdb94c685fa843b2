// Tunables of the Grade10 analysis pipeline.
#pragma once

#include "common/time.hpp"

namespace g10::core {

struct AnalysisConfig {
  /// Timeslice duration (paper §III-C; tens of milliseconds in practice).
  DurationNs timeslice = 10 * kMillisecond;

  /// Total analysis concurrency (workers + the calling thread) for the
  /// pipeline stages that fan out per (resource, machine) / per candidate
  /// issue. 0 = auto: the G10_THREADS environment variable if set, else
  /// the hardware thread count. 1 = fully serial (no pool threads).
  /// Results are bit-identical at every setting.
  int threads = 0;

  /// Performance issues below this makespan-reduction fraction are dropped
  /// (the paper's "arbitrary minimum threshold").
  double min_issue_impact = 0.01;
};

}  // namespace g10::core
