// fold_characterization: the analysis-side half of the determinism oracle
// (DESIGN.md §14). The whole CharacterizationResult — instance tree,
// attribution, bottlenecks, issues — digests to the same per-phase-path
// hashes at every thread count, which is exactly the comparison
// `g10_analyze --det-check N` runs.
#include <gtest/gtest.h>

#include "algorithms/programs.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/det_fold.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/pipeline.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"

namespace g10::core {
namespace {

struct Workload {
  trace::RunArtifacts artifacts;
  std::vector<trace::MonitoringSampleRecord> samples;
  FrameworkModel model;
};

const Workload& workload() {
  static const Workload w = [] {
    graph::DatagenParams params;
    params.vertices = 512;
    params.mean_degree = 8;
    params.seed = 21;
    const graph::Graph graph = generate_datagen_like(params);

    engine::PregelConfig cfg;
    cfg.cluster.machine_count = 3;
    cfg.cluster.machine.cores = 4;
    const engine::PregelEngine engine(cfg);

    Workload out;
    out.artifacts = engine.run(graph, algorithms::PageRank(4));
    out.samples = monitor::sample_ground_truth(out.artifacts.ground_truth,
                                               50 * kMillisecond,
                                               out.artifacts.makespan);
    PregelModelParams model_params;
    model_params.cores = cfg.cluster.machine.cores;
    model_params.threads = cfg.effective_threads();
    model_params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
    out.model = make_pregel_model(model_params);
    return out;
  }();
  return w;
}

DetSummary digest_at(int threads) {
  const Workload& w = workload();
  CharacterizationInput input;
  input.model = &w.model.execution;
  input.resources = &w.model.resources;
  input.rules = &w.model.tuned_rules;
  input.phase_events = w.artifacts.phase_events;
  input.blocking_events = w.artifacts.blocking_events;
  input.samples = w.samples;
  input.config.timeslice = 10 * kMillisecond;
  input.config.min_issue_impact = 0.0;
  input.config.threads = threads;
  DetHasher hasher;
  characterize(input, &hasher);
  return hasher.summary();
}

TEST(DetFoldCharacterization, DigestCoversTheWholeResult) {
  const DetSummary summary = digest_at(1);
  EXPECT_GT(summary.phases.size(), 10u);
  EXPECT_GT(summary.total_folds, 1000u);
  bool has_usage = false;
  bool has_saturation = false;
  for (const DetSummary::Entry& entry : summary.phases) {
    has_usage |= entry.path.compare(0, 6, "usage/") == 0;
    has_saturation |= entry.path.compare(0, 11, "saturation/") == 0;
  }
  EXPECT_TRUE(has_usage);
  EXPECT_TRUE(has_saturation);
}

TEST(DetFoldCharacterization, IdenticalAcrossThreadCounts) {
  const DetSummary serial = digest_at(1);
  for (const int threads : {2, 4, 8}) {
    const auto divergence = first_divergence(serial, digest_at(threads));
    EXPECT_FALSE(divergence.has_value())
        << "threads=" << threads << " diverged at '" << divergence->path
        << "': " << divergence->detail;
  }
}

TEST(DetFoldCharacterization, RepeatedSerialRunsAreStable) {
  EXPECT_FALSE(first_divergence(digest_at(1), digest_at(1)).has_value());
}

}  // namespace
}  // namespace g10::core
