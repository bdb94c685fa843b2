// Characterize a PageRank job on the bundled Pregel (Giraph-like) engine —
// the paper's canonical workflow: run the SUT, collect logs + monitoring,
// then build the fine-grained profile, find bottlenecks, and rank issues.
#include <iostream>

#include "algorithms/programs.hpp"
#include "grade10/pipeline.hpp"
#include "grade10/report/report.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "workload/workload.hpp"

using namespace g10;

int main() {
  // --- the system under test: 4 machines x 8 cores, 1 Gb/s ---------------
  engine::PregelConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  cfg.cluster.machine.core_work_per_sec = 4.0e7;
  cfg.threads_per_worker = 7;
  cfg.gc.young_gen_bytes = 24e6;
  cfg.costs.bytes_per_message = 128.0;
  cfg.queue.capacity_bytes = 2e6;

  // --- the workload: PageRank on a scale-16 power-law graph --------------
  graph::RmatParams rmat;
  rmat.scale = 16;
  const graph::Graph graph = generate_rmat(rmat);
  const algorithms::PageRank pagerank(30);

  std::cout << "Running PageRank(30) on " << graph.vertex_count()
            << " vertices / " << graph.edge_count() << " edges...\n";
  const engine::PregelEngine engine(cfg);
  const trace::RunArtifacts artifacts = engine.run(graph, pagerank);
  std::cout << "simulated makespan: " << to_seconds(artifacts.makespan)
            << " s, " << artifacts.blocking_events.size()
            << " blocking events (GC + queue stalls)\n\n";

  // --- monitoring: sample the cluster at a coarse 400 ms interval ---------
  const auto samples = monitor::sample_ground_truth(
      artifacts.ground_truth, 400 * kMillisecond, artifacts.makespan);

  // --- Grade10: the expert model shipped for this engine ------------------
  const core::FrameworkModel model = workload::framework_model(cfg);

  core::CharacterizationInput input;
  input.model = &model.execution;
  input.resources = &model.resources;
  input.rules = &model.tuned_rules;
  input.phase_events = artifacts.phase_events;
  input.blocking_events = artifacts.blocking_events;
  input.samples = samples;
  input.config.timeslice = 50 * kMillisecond;  // upsample 8x
  const core::CharacterizationResult result = core::characterize(input);

  core::render_profile(std::cout, result.trace, model.resources, result.usage,
                       result.grid);
  std::cout << '\n';
  core::render_bottlenecks(std::cout, model.resources, result.bottlenecks);
  std::cout << '\n';
  core::render_issues(std::cout, result.issues);
  return 0;
}
