// Shared experiment machinery: calibrated engine configurations (the
// "testbed" of §IV-A) and run-then-characterize helpers used by every
// table/figure harness.
#pragma once

#include <string>

#include "grade10/pipeline.hpp"
#include "monitor/sampler.hpp"
#include "workload/workload.hpp"

namespace g10::bench {

/// The simulated testbed: 4 machines x 8 cores, 1 Gb/s NICs. Engine cost
/// constants are calibrated so the Giraph stand-in shows the paper's
/// managed-runtime pathologies (GC pauses, queue stalls, unsaturated CPU)
/// and the PowerGraph stand-in is lean but imbalance-prone.
sim::ClusterSpec testbed_cluster();

engine::PregelConfig default_pregel_config();
engine::GasConfig default_gas_config();

/// One engine run pushed through the full Grade10 pipeline.
struct CharacterizedRun {
  trace::RunArtifacts artifacts;
  std::vector<trace::MonitoringSampleRecord> samples;
  core::FrameworkModel model;
  core::CharacterizationResult result;
};

struct CharacterizeOptions {
  DurationNs timeslice = 50 * kMillisecond;
  DurationNs monitoring_interval = 400 * kMillisecond;  ///< 8x default
  bool tuned_rules = true;
  /// Untuned analysis also drops GC phases/blocking from the trace
  /// (an untuned model does not describe them).
  double min_issue_impact = 0.0;
};

CharacterizedRun characterize_pregel(const engine::PregelConfig& cfg,
                                     const graph::Graph& graph,
                                     const algorithms::PregelProgram& program,
                                     const CharacterizeOptions& options);

CharacterizedRun characterize_gas(const engine::GasConfig& cfg,
                                  const graph::Graph& graph,
                                  const algorithms::GasProgram& program,
                                  const CharacterizeOptions& options);

/// Directory for CSV exports (created on demand): bench/results under the
/// current working directory, overridable via G10_RESULTS_DIR.
std::string results_dir();

}  // namespace g10::bench
