// Run the same workload on both bundled engines and compare Grade10's
// verdicts side by side — the paper's headline use case: "large differences
// in the nature and severity of bottlenecks across systems".
#include <iostream>
#include <map>

#include "algorithms/programs.hpp"
#include "common/strings.hpp"
#include "common/table.hpp"
#include "grade10/pipeline.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "workload/workload.hpp"

using namespace g10;

namespace {

struct Summary {
  double makespan_s = 0.0;
  std::map<std::string, double> issue_impacts;  ///< description -> impact
};

Summary summarize(const trace::RunArtifacts& artifacts,
                  const core::FrameworkModel& model) {
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 160 * kMillisecond, artifacts.makespan);
  core::CharacterizationInput input;
  input.model = &model.execution;
  input.resources = &model.resources;
  input.rules = &model.tuned_rules;
  input.phase_events = artifacts.phase_events;
  input.blocking_events = artifacts.blocking_events;
  input.samples = samples;
  input.config.timeslice = 20 * kMillisecond;
  input.config.min_issue_impact = 0.02;
  const core::CharacterizationResult result = core::characterize(input);

  Summary summary;
  summary.makespan_s = to_seconds(artifacts.makespan);
  for (const auto& issue : result.issues) {
    summary.issue_impacts[issue.description] = issue.impact;
  }
  return summary;
}

}  // namespace

int main() {
  graph::RmatParams rmat;
  rmat.scale = 16;
  const graph::Graph graph = generate_rmat(rmat);
  const algorithms::Cdlp cdlp(12);
  std::cout << "CDLP(12) on rmat-16 (" << graph.edge_count()
            << " edges), both engines\n\n";

  sim::ClusterSpec cluster;
  cluster.machine_count = 4;
  cluster.machine.cores = 8;
  cluster.machine.core_work_per_sec = 4.0e7;

  engine::PregelConfig pregel_cfg;
  pregel_cfg.cluster = cluster;
  pregel_cfg.threads_per_worker = 7;
  pregel_cfg.gc.young_gen_bytes = 24e6;
  pregel_cfg.costs.bytes_per_message = 128.0;
  pregel_cfg.queue.capacity_bytes = 2e6;
  const auto pregel_artifacts =
      engine::PregelEngine(pregel_cfg).run(graph, cdlp);
  const Summary giraph =
      summarize(pregel_artifacts, workload::framework_model(pregel_cfg));

  engine::GasConfig gas_cfg;
  gas_cfg.cluster = cluster;
  gas_cfg.threads_per_worker = 7;
  gas_cfg.partitioning = engine::VertexCutStrategy::kRangeSource;
  const auto gas_artifacts = engine::GasEngine(gas_cfg).run(graph, cdlp);
  const Summary powergraph =
      summarize(gas_artifacts, workload::framework_model(gas_cfg));

  std::cout << "Giraph-like engine:     "
            << format_fixed(giraph.makespan_s, 2) << " s\n";
  std::cout << "PowerGraph-like engine: "
            << format_fixed(powergraph.makespan_s, 2) << " s\n\n";

  const auto print_issues = [](const char* name, const Summary& summary) {
    std::cout << name << " — top issues:\n";
    if (summary.issue_impacts.empty()) {
      std::cout << "  (none above 2%)\n";
      return;
    }
    for (const auto& [description, impact] : summary.issue_impacts) {
      std::cout << "  " << format_percent(impact) << "  " << description
                << '\n';
    }
  };
  print_issues("Giraph-like", giraph);
  std::cout << '\n';
  print_issues("PowerGraph-like", powergraph);

  std::cout << "\nNote the different *nature* of the issues: the managed-"
               "runtime engine\nis dominated by GC/queue blocking, the "
               "native one by gather imbalance.\n";
  return 0;
}
