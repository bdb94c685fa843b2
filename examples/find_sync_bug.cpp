// Rediscover the §IV-D synchronization bug with Grade10's imbalance
// detector: run CDLP on the GAS (PowerGraph-like) engine with the bug
// reproduction enabled, let Grade10 rank the imbalance issues, then drill
// into the flagged Gather phases to see the outlier threads the paper
// describes ("all threads but one reach the barrier...").
#include <algorithm>
#include <iostream>
#include <map>

#include "algorithms/programs.hpp"
#include "common/stats.hpp"
#include "common/strings.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/report.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "workload/workload.hpp"

using namespace g10;

int main() {
  engine::GasConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  cfg.cluster.machine.core_work_per_sec = 4.0e7;
  cfg.threads_per_worker = 7;
  cfg.partitioning = engine::VertexCutStrategy::kRangeSource;
  cfg.sync_bug.enabled = true;       // the buggy build
  cfg.sync_bug.probability = 0.25;   // make the sporadic bug easy to catch

  graph::DatagenParams datagen;
  datagen.vertices = 1 << 16;
  datagen.mean_degree = 16;
  const graph::Graph graph = generate_datagen_like(datagen);
  const algorithms::Cdlp cdlp(12);

  std::cout << "Running CDLP(12) on the GAS engine (sync bug present)...\n";
  const engine::GasEngine engine(cfg);
  const trace::RunArtifacts artifacts = engine.run(graph, cdlp);
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 160 * kMillisecond, artifacts.makespan);

  const core::FrameworkModel model = workload::framework_model(cfg);

  core::CharacterizationInput input;
  input.model = &model.execution;
  input.resources = &model.resources;
  input.rules = &model.tuned_rules;
  input.phase_events = artifacts.phase_events;
  input.blocking_events = artifacts.blocking_events;
  input.samples = samples;
  input.config.timeslice = 20 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  const core::CharacterizationResult result = core::characterize(input);

  // Step 1: Grade10's automated ranking points at Gather imbalance.
  core::render_issues(std::cout, result.issues);

  // Step 2: drill into the worst gather step like the paper's Fig. 6.
  const core::PhaseTypeId thread_type =
      model.execution.find("GatherThread");
  std::map<std::string, std::vector<double>> durations_by_worker_phase;
  for (const auto& instance : result.trace.instances()) {
    if (instance.type != thread_type) continue;
    const core::PhaseInstance& parent =
        result.trace.instance(instance.parent);
    durations_by_worker_phase[parent.path].push_back(
        to_seconds(instance.duration()));
  }
  std::string worst_phase;
  double worst_ratio = 0.0;
  for (const auto& [phase, durations] : durations_by_worker_phase) {
    RunningStats stats;
    for (const double d : durations) stats.add(d);
    if (stats.mean() <= 0) continue;
    const double ratio = stats.max() / stats.mean();
    if (ratio > worst_ratio) {
      worst_ratio = ratio;
      worst_phase = phase;
    }
  }
  std::cout << "\nWorst outlier: " << worst_phase << " — slowest thread "
            << format_fixed(worst_ratio, 2)
            << "x its worker's mean (the paper's smoking gun was 2.88x).\n";
  std::cout << "Thread durations [s]:";
  for (const double d : durations_by_worker_phase[worst_phase]) {
    std::cout << ' ' << format_fixed(d, 3);
  }
  std::cout << "\n\nDiagnosis (paper §IV-D): one thread found late-arriving "
               "messages at the\ncross-thread barrier and kept draining them "
               "while its siblings sat idle.\n";
  return 0;
}
