#include "support/experiment.hpp"

#include <cstdlib>
#include <filesystem>

namespace g10::bench {

sim::ClusterSpec testbed_cluster() {
  sim::ClusterSpec cluster;
  cluster.machine_count = 4;
  cluster.machine.cores = 8;
  cluster.machine.core_work_per_sec = 4.0e7;
  cluster.machine.nic_bandwidth_bps = 1.0e9;  // 1 Gb/s
  return cluster;
}

engine::PregelConfig default_pregel_config() {
  engine::PregelConfig cfg;
  cfg.cluster = testbed_cluster();
  cfg.threads_per_worker = 7;
  // Java serialization overhead: fatter wire messages than the GAS engine,
  // and enough allocation churn to trigger regular collections.
  cfg.costs.bytes_per_message = 128.0;
  cfg.gc.young_gen_bytes = 24e6;
  cfg.gc.pause_base_seconds = 0.06;
  cfg.gc.pause_per_byte = 1.0e-9;
  cfg.queue.capacity_bytes = 2e6;
  cfg.seed = 2020;
  return cfg;
}

engine::GasConfig default_gas_config() {
  engine::GasConfig cfg;
  cfg.cluster = testbed_cluster();
  cfg.threads_per_worker = 7;
  cfg.partitioning = engine::VertexCutStrategy::kRangeSource;
  cfg.seed = 2020;
  return cfg;
}

namespace {

core::CharacterizationResult run_pipeline(const CharacterizedRun& run,
                                          const CharacterizeOptions& options,
                                          bool drop_gc_records) {
  core::CharacterizationInput input;
  input.model = &run.model.execution;
  input.resources = &run.model.resources;
  input.rules = options.tuned_rules ? &run.model.tuned_rules
                                    : &run.model.untuned_rules;
  input.phase_events = run.artifacts.phase_events;
  std::vector<trace::PhaseEventRecord> filtered_events;
  std::vector<trace::BlockingEventRecord> no_blocks;
  if (drop_gc_records) {
    // Untuned analysis: the analyst has not modeled GC, so GcPause phases
    // and blocking events are absent from the model's view of the run.
    for (const auto& event : run.artifacts.phase_events) {
      if (event.path.leaf().type != "GcPause") {
        filtered_events.push_back(event);
      }
    }
    input.phase_events = filtered_events;
    input.blocking_events = no_blocks;
  } else {
    input.blocking_events = run.artifacts.blocking_events;
  }
  input.samples = run.samples;
  input.config.timeslice = options.timeslice;
  input.config.min_issue_impact = options.min_issue_impact;
  return core::characterize(input);
}

}  // namespace

CharacterizedRun characterize_pregel(const engine::PregelConfig& cfg,
                                     const graph::Graph& graph,
                                     const algorithms::PregelProgram& program,
                                     const CharacterizeOptions& options) {
  CharacterizedRun run;
  run.artifacts = engine::PregelEngine(cfg).run(graph, program);
  run.samples = monitor::sample_ground_truth(run.artifacts.ground_truth,
                                             options.monitoring_interval,
                                             run.artifacts.makespan);
  run.model = workload::framework_model(cfg);
  run.result = run_pipeline(run, options, /*drop_gc_records=*/!options.tuned_rules);
  return run;
}

CharacterizedRun characterize_gas(const engine::GasConfig& cfg,
                                  const graph::Graph& graph,
                                  const algorithms::GasProgram& program,
                                  const CharacterizeOptions& options) {
  CharacterizedRun run;
  run.artifacts = engine::GasEngine(cfg).run(graph, program);
  run.samples = monitor::sample_ground_truth(run.artifacts.ground_truth,
                                             options.monitoring_interval,
                                             run.artifacts.makespan);
  run.model = workload::framework_model(cfg);
  run.result = run_pipeline(run, options, /*drop_gc_records=*/false);
  return run;
}

std::string results_dir() {
  // srclint: entropy-ok(G10_RESULTS_DIR picks where bench output lands, not what it contains)
  const char* env = std::getenv("G10_RESULTS_DIR");
  const std::string dir = env != nullptr ? env : "bench_results";
  std::filesystem::create_directories(dir);
  return dir;
}

}  // namespace g10::bench
