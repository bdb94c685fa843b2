#include "workload/workload.hpp"

#include <iostream>

#include "algorithms/programs.hpp"
#include "common/check.hpp"
#include "common/exit_codes.hpp"
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
  cfg.host_threads = spec.host_threads;
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
  // The hand-over comes after the engine's run state is freed.
  engine::LoggedRun run = engine.run_logged(graph, program);
  out.log = run.log.take_log();
  out.artifacts = std::move(run.artifacts);
  out.model = framework_model(cfg);
  std::vector<trace::MonitoringSampleRecord>& samples = out.log.samples;
  samples = monitor::sample_ground_truth(out.artifacts.ground_truth,
                                         spec.monitor_interval,
                                         out.artifacts.makespan);
  if (spec.faults.has_kind(sim::FaultKind::kSampleDrop)) {
    sim::FaultInjector dropout(spec.faults, spec.seed);
    dropout.resolve(engine.estimate_horizon(graph, program));
    const std::size_t before = samples.size();
    samples = monitor::apply_sampler_dropout(samples, dropout);
    out.dropped_samples = before - samples.size();
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

std::vector<cli::Flag> run_flags(std::string& algorithm, std::string& dataset,
                                 int& workers, int& cores, int& iterations,
                                 bool& sync_bug) {
  const auto set_dataset = [&dataset](const std::string& value) {
    const graph::DatasetSpec spec = graph::parse_dataset(value);
    if (spec.kind == graph::DatasetSpec::Kind::kUnknown) {
      std::cerr << "unknown dataset spec: " << value << '\n';
      return kExitParseFailure;
    }
    if (!spec.size) return kExitBadArgs;
    dataset = value;
    return kExitOk;
  };
  return {
      {"--algorithm", cli::one_of(&algorithm, algorithms::kAlgorithmNames),
       "vertex program"},
      {"--dataset rmat:<scale>|datagen:<vertices>", cli::Setter(set_dataset),
       "R-MAT scale 1-30, or Datagen-like vertex count"},
      {"--workers N", &workers, "worker machines", 1},
      {"--cores N", &cores, "cores per machine", 1},
      {"--iterations K", &iterations, "iterations of PageRank and CDLP", 1},
      {"--sync-bug", cli::Switch{&sync_bug},
       "inject the GAS engine's synchronization bug"},
  };
}

}  // namespace g10::workload
