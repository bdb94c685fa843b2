#include "ensemble/run_grade10.hpp"

#include <memory>
#include <unordered_map>

#include "common/check.hpp"
#include "common/strings.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/phase_profile.hpp"
#include "graph/generators.hpp"
#include "workload/workload.hpp"

namespace g10::ensemble {
namespace {

/// Monitoring-sample cadence fed to the analysis.
constexpr DurationNs kMonitorInterval = 100 * kMillisecond;
/// Analysis timeslice (paper §III-C).
constexpr DurationNs kTimeslice = 20 * kMillisecond;
/// Issues below this impact fraction are dropped from the report.
constexpr double kMinIssueImpact = 0.02;
/// GAS sync-bug reproduction probability when Scenario::sync_bug is set.
constexpr double kSyncBugProbability = 0.25;
/// An injected sync bug counts as rediscovered when a Gather-phase imbalance
/// issue clears this impact fraction.
constexpr double kRediscoveryMinImpact = 0.02;

/// Graphs are deterministic functions of the dataset spec and expensive to
/// build, so every run in a worker process shares one immutable instance
/// per spec. A worker runs one scenario at a time on its main thread (its
/// heartbeat thread never touches the cache), so the cache takes no lock.
std::shared_ptr<const graph::Graph> cached_dataset(const std::string& spec) {
  static std::unordered_map<std::string, std::shared_ptr<const graph::Graph>>
      cache;

  auto& slot = cache[spec];
  if (slot == nullptr) {
    const graph::DatasetSpec parsed = graph::parse_dataset(spec);
    G10_CHECK_MSG(parsed.ok(), "bad dataset spec: " + spec);
    slot =
        std::make_shared<const graph::Graph>(graph::generate_dataset(parsed));
    // GAS gathers over in-edges, and an SSSP run works on a weighted copy
    // (workload::run): building the reverse index once here lets every
    // such copy inherit it instead of rebuilding it per run.
    slot->ensure_in_index();
  }
  return slot;
}

RunAttempt run_scenario(const Scenario& scenario) {
  // Stage 1: dataset (cached after the first run per spec).
  const auto graph = cached_dataset(scenario.dataset);

  // Stages 2-3: engine run under the scenario's faults and cost jitter,
  // expert model, monitoring samples with fault-driven dropout.
  workload::Spec spec;
  spec.engine = scenario.engine;
  spec.algorithm = scenario.algorithm;
  spec.workers = scenario.workers;
  spec.cores = scenario.cores;
  spec.iterations = scenario.iterations;
  spec.seed = scenario.seed;
  spec.faults = scenario.faults;
  spec.sync_bug = scenario.sync_bug;
  spec.sync_bug_probability = kSyncBugProbability;
  spec.core_speed = scenario.jitter.core_speed;
  spec.nic_bandwidth = scenario.jitter.nic_bandwidth;
  spec.monitor_interval = kMonitorInterval;
  // A serial engine run, like the analysis below: the ensemble's
  // parallelism is across worker processes.
  spec.host_threads = 1;
  workload::Result run = workload::run(spec, *graph);
  const core::FrameworkModel& framework = run.model;

  // Stage 4: characterization, of the trace built straight from the
  // logger's hand-over.
  core::CharacterizationInput input;
  input.model = &framework.execution;
  input.resources = &framework.resources;
  input.rules = &framework.tuned_rules;
  input.config.timeslice = kTimeslice;
  input.config.min_issue_impact = kMinIssueImpact;
  // Serial analysis: the ensemble's parallelism is across worker
  // processes, and a pool in each would oversubscribe the machine.
  input.config.threads = 1;
  core::TraceBuild built = core::ExecutionTrace::build_checked(
      *input.model, *input.resources, run.log, input.trace_options);
  // Characterization reads only `built`, and the stages below only the
  // makespan of the artifacts: free the log before demand, attribution
  // and replay run.
  run.log = trace::NodeLog{};
  const core::CheckedCharacterization checked =
      core::characterize_trace(input, std::move(built));
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
  report.makespan_seconds = to_seconds(run.artifacts.makespan);

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
        if (scenario.sync_bug && starts_with(phase, "Gather") &&
            issue.impact >= kRediscoveryMinImpact) {
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
      result.trace, result.phase_usage, result.bottlenecks);
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

RunFn make_grade10_runner() { return run_scenario; }

}  // namespace g10::ensemble
