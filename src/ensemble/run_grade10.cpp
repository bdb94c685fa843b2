#include "ensemble/run_grade10.hpp"

#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "algorithms/programs.hpp"
#include "common/check.hpp"
#include "common/mutex.hpp"
#include "common/strings.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/phase_profile.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "sim/fault_injector.hpp"

namespace g10::ensemble {
namespace {

/// Graphs are deterministic functions of the dataset spec and expensive to
/// build, so the whole ensemble shares one immutable instance per spec.
std::shared_ptr<const graph::Graph> cached_dataset(const std::string& spec) {
  static Mutex mutex;
  static std::unordered_map<std::string, std::shared_ptr<const graph::Graph>>
      cache G10_GUARDED_BY(mutex);

  MutexLock lock(mutex);
  auto& slot = cache[spec];
  if (slot == nullptr) {
    const graph::DatasetSpec parsed = graph::parse_dataset(spec);
    G10_CHECK_MSG(parsed.ok(), "bad dataset spec: " + spec);
    slot =
        std::make_shared<const graph::Graph>(graph::generate_dataset(parsed));
    // Concurrent runs read the shared graph, and GAS gathers over in-edges:
    // build the lazily derived reverse index here, before publication.
    slot->ensure_in_index();
  }
  return slot;
}

RunAttempt cancelled_attempt() {
  RunAttempt attempt;
  attempt.outcome = RunOutcome::kTimeout;
  attempt.error = "cancelled at stage boundary";
  return attempt;
}

RunAttempt run_scenario(const Scenario& scenario, const CancelToken& token,
                        const Grade10RunnerOptions& options) {
  // Stage 1: dataset (cached after the first run per spec).
  const auto base_graph = cached_dataset(scenario.dataset);
  const graph::Graph* graph = base_graph.get();
  graph::Graph weighted;
  if (scenario.algorithm == "sssp") {
    weighted = *base_graph;
    graph::assign_random_weights(weighted, 1.0, 10.0, scenario.seed);
    graph = &weighted;
  }
  if (token.cancelled()) return cancelled_attempt();

  // g10_ensemble admits only known algorithm names.
  G10_CHECK_MSG(algorithms::is_algorithm_name(scenario.algorithm),
                "unknown algorithm: " + scenario.algorithm);
  const algorithms::ProgramSet programs(scenario.iterations);

  // Stage 2: engine run under the scenario's faults + cost jitter.
  trace::RunArtifacts artifacts;
  core::FrameworkModel framework;
  TimeNs fault_horizon = 0;
  if (scenario.engine == "pregel") {
    engine::PregelConfig cfg;
    cfg.cluster.machine_count = scenario.workers;
    cfg.cluster.machine.cores = scenario.cores;
    cfg.cluster.machine.core_work_per_sec *= scenario.jitter.core_speed;
    cfg.cluster.machine.nic_bandwidth_bps *= scenario.jitter.nic_bandwidth;
    cfg.cluster.faults = scenario.faults;
    cfg.seed = scenario.seed;
    const engine::PregelEngine engine(cfg);
    const auto& program =
        *programs.find<algorithms::PregelProgram>(scenario.algorithm);
    fault_horizon = engine.estimate_horizon(*graph, program);
    artifacts = engine.run(*graph, program);
    core::PregelModelParams params;
    params.cores = scenario.cores;
    params.threads = cfg.effective_threads();
    params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
    framework = core::make_pregel_model(params);
  } else if (scenario.engine == "gas") {
    engine::GasConfig cfg;
    cfg.cluster.machine_count = scenario.workers;
    cfg.cluster.machine.cores = scenario.cores;
    cfg.cluster.machine.core_work_per_sec *= scenario.jitter.core_speed;
    cfg.cluster.machine.nic_bandwidth_bps *= scenario.jitter.nic_bandwidth;
    cfg.cluster.faults = scenario.faults;
    cfg.seed = scenario.seed;
    cfg.sync_bug.enabled = scenario.sync_bug;
    cfg.sync_bug.probability = options.sync_bug_probability;
    const engine::GasEngine engine(cfg);
    const auto& program =
        *programs.find<algorithms::GasProgram>(scenario.algorithm);
    fault_horizon = engine.estimate_horizon(*graph, program);
    artifacts = engine.run(*graph, program);
    core::GasModelParams params;
    params.cores = scenario.cores;
    params.threads = cfg.effective_threads();
    params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
    framework = core::make_gas_model(params);
  } else {
    throw std::runtime_error("unknown engine: " + scenario.engine);
  }
  if (token.cancelled()) return cancelled_attempt();

  // Stage 3: monitoring samples (with fault-driven dropout, like g10_run).
  auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, options.monitor_interval, artifacts.makespan);
  if (scenario.faults.has_kind(sim::FaultKind::kSampleDrop)) {
    sim::FaultInjector dropout(scenario.faults, scenario.seed);
    dropout.resolve(fault_horizon);
    samples = monitor::apply_sampler_dropout(samples, dropout);
  }
  if (token.cancelled()) return cancelled_attempt();

  // Stage 4: characterization.
  core::CharacterizationInput input;
  input.model = &framework.execution;
  input.resources = &framework.resources;
  input.rules = &framework.tuned_rules;
  input.phase_events = artifacts.phase_events;
  input.blocking_events = artifacts.blocking_events;
  input.samples = samples;
  input.config.timeslice = options.timeslice;
  input.config.min_issue_impact = options.min_issue_impact;
  // Serial analysis: the ensemble's parallelism is across scenarios, and
  // nested pools would oversubscribe the machine.
  input.config.threads = 1;
  const core::CheckedCharacterization checked =
      core::characterize_checked(input);
  if (token.cancelled()) return cancelled_attempt();
  if (!checked.status.ok() || !checked.result.has_value()) {
    RunAttempt attempt;
    attempt.outcome = RunOutcome::kAnalysisFailed;
    attempt.error = checked.status.errors.empty()
                        ? "characterization produced no result"
                        : join(checked.status.errors, "; ");
    return attempt;
  }
  const core::CharacterizationResult& result = *checked.result;

  // Stage 5: reduce to the deterministic per-run digest.
  RunAttempt attempt;
  attempt.outcome = RunOutcome::kOk;
  RunReport& report = attempt.report;
  report.makespan_seconds = to_seconds(artifacts.makespan);

  for (const core::PerformanceIssue& issue : result.issues) {
    RunReport::Issue out;
    switch (issue.kind) {
      case core::IssueKind::kResourceBottleneck:
        out.label =
            "bottleneck:" + framework.resources.resource(issue.resource).name;
        break;
      case core::IssueKind::kImbalance: {
        const std::string& phase =
            framework.execution.type(issue.phase_type).name;
        out.label = "imbalance:" + phase;
        if (starts_with(phase, "Gather") &&
            issue.impact >= options.rediscovery_min_impact) {
          report.sync_bug_rediscovered = true;
        }
        break;
      }
      case core::IssueKind::kFaultRecovery:
        out.label = "fault-recovery";
        break;
    }
    out.impact = issue.impact;
    report.issues.push_back(std::move(out));
  }

  const auto profile = core::build_phase_profile(
      result.trace, result.usage, result.bottlenecks, result.grid);
  for (const core::PhaseTypeStats& stats : profile) {
    if (stats.bottlenecked.empty()) continue;
    // Dominant resource: largest bottlenecked time, lowest id on ties
    // (map order) — deterministic either way.
    auto dominant = stats.bottlenecked.begin();
    for (auto it = stats.bottlenecked.begin(); it != stats.bottlenecked.end();
         ++it) {
      if (it->second > dominant->second) dominant = it;
    }
    RunReport::PhaseBottleneck out;
    out.phase = framework.execution.type(stats.type).name;
    out.resource = framework.resources.resource(dominant->first).name;
    out.seconds = to_seconds(dominant->second);
    report.phase_bottlenecks.push_back(std::move(out));
  }
  return attempt;
}

}  // namespace

RunFn make_grade10_runner(const Grade10RunnerOptions& options) {
  return [options](const Scenario& scenario, const CancelToken& token) {
    return run_scenario(scenario, token, options);
  };
}

}  // namespace g10::ensemble
