#include "workload/workload.hpp"

#include "algorithms/programs.hpp"
#include "common/check.hpp"
#include "grade10/models/gas_model.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"

namespace g10::workload {
namespace {

/// Sets the fields both engine configs share from the spec.
void apply(const Spec& spec, engine::RunConfig& cfg) {
  cfg.cluster.machine_count = spec.workers;
  cfg.cluster.machine.cores = spec.cores;
  cfg.cluster.machine.core_work_per_sec *= spec.core_speed;
  cfg.cluster.machine.nic_bandwidth_bps *= spec.nic_bandwidth;
  cfg.cluster.faults = spec.faults;
  cfg.crash_log = spec.crash_log;
  cfg.seed = spec.seed;
}

template <typename Params>
Params model_params(const engine::RunConfig& cfg) {
  Params params;
  params.cores = cfg.cluster.machine.cores;
  params.threads = cfg.effective_threads();
  params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  return params;
}

template <typename Engine, typename Program, typename Config>
Result run_engine(const Spec& spec, const Config& cfg,
                  const graph::Graph& graph) {
  const algorithms::ProgramSet programs(spec.iterations);
  const Program& program = *programs.find<Program>(spec.algorithm);
  const Engine engine(cfg);
  Result out;
  out.artifacts = engine.run(graph, program);
  out.model = framework_model(cfg);
  out.samples = monitor::sample_ground_truth(out.artifacts.ground_truth,
                                             spec.monitor_interval,
                                             out.artifacts.makespan);
  if (spec.faults.has_kind(sim::FaultKind::kSampleDrop)) {
    sim::FaultInjector dropout(spec.faults, spec.seed);
    dropout.resolve(engine.estimate_horizon(graph, program));
    const std::size_t before = out.samples.size();
    out.samples = monitor::apply_sampler_dropout(out.samples, dropout);
    out.dropped_samples = before - out.samples.size();
  }
  return out;
}

Result run_on(const Spec& spec, const graph::Graph& graph) {
  if (spec.engine == "pregel") {
    engine::PregelConfig cfg;
    apply(spec, cfg);
    return run_engine<engine::PregelEngine, algorithms::PregelProgram>(
        spec, cfg, graph);
  }
  G10_CHECK_MSG(spec.engine == "gas", "unknown engine: " + spec.engine);
  engine::GasConfig cfg;
  apply(spec, cfg);
  cfg.sync_bug.enabled = spec.sync_bug;
  cfg.sync_bug.probability = spec.sync_bug_probability;
  return run_engine<engine::GasEngine, algorithms::GasProgram>(spec, cfg,
                                                               graph);
}

}  // namespace

core::FrameworkModel framework_model(const engine::PregelConfig& cfg) {
  return core::make_pregel_model(model_params<core::PregelModelParams>(cfg));
}

core::FrameworkModel framework_model(const engine::GasConfig& cfg) {
  return core::make_gas_model(model_params<core::GasModelParams>(cfg));
}

Result run(const Spec& spec, const graph::Graph& graph) {
  G10_CHECK_MSG(algorithms::is_algorithm_name(spec.algorithm),
                "unknown algorithm: " + spec.algorithm);
  if (spec.algorithm == "sssp") {
    graph::Graph weighted = graph;
    graph::assign_random_weights(weighted, 1.0, 10.0, spec.seed);
    return run_on(spec, weighted);
  }
  return run_on(spec, graph);
}

}  // namespace g10::workload
