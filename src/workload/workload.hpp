// The run recipe. Grade10 characterizes a run from three inputs: the phase
// log, the monitoring samples and the framework's expert model (paper
// Fig. 1, §III-B/C). run() produces all three from one run description;
// g10_run, the ensemble runner and the examples make their runs with it.
// run_flags() is the part of that description both tools take as flags.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.hpp"
#include "common/time.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/models/pregel_model.hpp"
#include "graph/graph.hpp"
#include "sim/fault_injector.hpp"
#include "trace/node_log.hpp"
#include "trace/records.hpp"

namespace g10::workload {

/// The engine's expert model, sized from its config: cores per machine,
/// compute threads per worker and NIC bytes/s.
core::FrameworkModel framework_model(const engine::PregelConfig& cfg);
core::FrameworkModel framework_model(const engine::GasConfig& cfg);

/// The engines Spec::engine names, in the order usage texts list them.
inline constexpr std::array<std::string_view, 2> kEngineNames = {
    "pregel", "gas"};

/// One run: what g10_run's flags and an ensemble Scenario both name.
struct Spec {
  std::string engine = "pregel";  ///< "pregel" | "gas"
  std::string algorithm = "pagerank";
  int workers = 4;
  int cores = 8;
  int iterations = 20;
  std::uint64_t seed = 2020;
  sim::FaultSpec faults;
  bool sync_bug = false;  ///< GAS only
  double sync_bug_probability = engine::SyncBugConfig{}.probability;
  engine::CrashLogStyle crash_log = engine::CrashLogStyle::kReconciled;
  double core_speed = 1.0;     ///< scales MachineSpec::core_work_per_sec
  double nic_bandwidth = 1.0;  ///< scales MachineSpec::nic_bandwidth_bps
  DurationNs monitor_interval = 400 * kMillisecond;
  /// Host threads of the engine run (RunConfig::host_threads; 0 = auto).
  /// Never changes a result.
  std::size_t host_threads = 0;
};

/// Grade10's three inputs from one run, and what the sampler lost.
struct Result {
  /// The run's log as the phase logger hands it over, with the monitoring
  /// samples (no META records): what both trace writers and the trace
  /// build take as it is.
  trace::NodeLog log;
  /// Every other engine artifact; its record vectors are empty.
  trace::RunArtifacts artifacts;
  core::FrameworkModel model;
  std::size_t dropped_samples = 0;  ///< removed by injected sampler dropout
};

/// Builds the engine config, runs the engine on `graph`, builds the model,
/// samples the ground truth every `monitor_interval` and applies the fault
/// spec's sampler dropout. SSSP runs on a copy of `graph` with random edge
/// weights in [1, 10] seeded by the run seed. Throws on an unknown engine or
/// algorithm, and whatever the engine throws.
Result run(const Spec& spec, const graph::Graph& graph);

/// The flags g10_run and g10_ensemble share: --algorithm, --dataset,
/// --workers, --cores, --iterations and --sync-bug, bound to the caller's
/// storage, whose values are the defaults. A --dataset of unknown kind is
/// a parse failure (exit 3), one with a bad size a bad argument (exit 2).
std::vector<cli::Flag> run_flags(std::string& algorithm, std::string& dataset,
                                 int& workers, int& cores, int& iterations,
                                 bool& sync_bug);

}  // namespace g10::workload
