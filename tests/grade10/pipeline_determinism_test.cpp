// The parallelized pipeline's core guarantee: the CharacterizationResult is
// bit-identical at every thread count. Each field that feeds reports or
// downstream stages is compared exactly (doubles with ==, not tolerances)
// between a serial run and multi-threaded runs of the same input.
#include <gtest/gtest.h>

#include "algorithms/programs.hpp"
#include "common/thread_pool.hpp"
#include "engine/pregel/pregel_engine.hpp"
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
    params.vertices = 1024;
    params.mean_degree = 10;
    params.seed = 33;
    const graph::Graph graph = generate_datagen_like(params);

    engine::PregelConfig cfg;
    cfg.cluster.machine_count = 4;
    cfg.cluster.machine.cores = 4;
    cfg.gc.young_gen_bytes = 4e5;
    cfg.queue.capacity_bytes = 5e4;
    const engine::PregelEngine engine(cfg);

    Workload out;
    out.artifacts = engine.run(graph, algorithms::Cdlp(4));
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

CharacterizationResult characterize_with(int threads) {
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
  return characterize(input);
}

void expect_identical_demand(const std::vector<DemandMatrix>& a,
                             const std::vector<DemandMatrix>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t m = 0; m < a.size(); ++m) {
    SCOPED_TRACE("matrix " + std::to_string(m));
    EXPECT_EQ(a[m].resource, b[m].resource);
    EXPECT_EQ(a[m].machine, b[m].machine);
    EXPECT_EQ(a[m].capacity, b[m].capacity);
    EXPECT_EQ(a[m].slice_count, b[m].slice_count);
    EXPECT_EQ(a[m].exact, b[m].exact);        // exact double equality
    EXPECT_EQ(a[m].variable, b[m].variable);  // exact double equality
    ASSERT_EQ(a[m].leaves.size(), b[m].leaves.size());
    for (std::size_t l = 0; l < a[m].leaves.size(); ++l) {
      EXPECT_EQ(a[m].leaves[l].instance, b[m].leaves[l].instance);
      EXPECT_EQ(a[m].leaves[l].first_slice, b[m].leaves[l].first_slice);
      EXPECT_EQ(a[m].leaves[l].active_fraction,
                b[m].leaves[l].active_fraction);
    }
  }
}

void expect_identical_usage(const AttributedUsage& a,
                            const AttributedUsage& b) {
  ASSERT_EQ(a.resources.size(), b.resources.size());
  for (std::size_t r = 0; r < a.resources.size(); ++r) {
    SCOPED_TRACE("resource " + std::to_string(r));
    const AttributedResource& x = a.resources[r];
    const AttributedResource& y = b.resources[r];
    EXPECT_EQ(x.resource, y.resource);
    EXPECT_EQ(x.machine, y.machine);
    EXPECT_EQ(x.capacity, y.capacity);
    EXPECT_EQ(x.upsampled.usage, y.upsampled.usage);
    EXPECT_EQ(x.upsampled.unallocated, y.upsampled.unallocated);
    EXPECT_EQ(x.slice_offsets, y.slice_offsets);
    EXPECT_EQ(x.unattributed, y.unattributed);
    ASSERT_EQ(x.entries.size(), y.entries.size());
    for (std::size_t e = 0; e < x.entries.size(); ++e) {
      EXPECT_EQ(x.entries[e].instance, y.entries[e].instance);
      EXPECT_EQ(x.entries[e].usage, y.entries[e].usage);
      EXPECT_EQ(x.entries[e].demand, y.entries[e].demand);
      EXPECT_EQ(x.entries[e].fraction, y.entries[e].fraction);
      EXPECT_EQ(x.entries[e].exact, y.entries[e].exact);
    }
  }
}

void expect_identical_bottlenecks(const BottleneckReport& a,
                                  const BottleneckReport& b) {
  EXPECT_EQ(a.blocked, b.blocked);
  EXPECT_EQ(a.saturated, b.saturated);
  EXPECT_EQ(a.self_limited, b.self_limited);
  ASSERT_EQ(a.saturation.size(), b.saturation.size());
  for (std::size_t s = 0; s < a.saturation.size(); ++s) {
    EXPECT_EQ(a.saturation[s].resource, b.saturation[s].resource);
    EXPECT_EQ(a.saturation[s].machine, b.saturation[s].machine);
    EXPECT_EQ(a.saturation[s].saturated, b.saturation[s].saturated);
    EXPECT_EQ(a.saturation[s].total_saturated,
              b.saturation[s].total_saturated);
  }
}

void expect_identical_issues(const std::vector<PerformanceIssue>& a,
                             const std::vector<PerformanceIssue>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("issue " + std::to_string(i));
    EXPECT_EQ(a[i].kind, b[i].kind);
    EXPECT_EQ(a[i].resource, b[i].resource);
    EXPECT_EQ(a[i].phase_type, b[i].phase_type);
    EXPECT_EQ(a[i].description, b[i].description);
    EXPECT_EQ(a[i].baseline_makespan, b[i].baseline_makespan);
    EXPECT_EQ(a[i].optimistic_makespan, b[i].optimistic_makespan);
    EXPECT_EQ(a[i].impact, b[i].impact);  // exact double equality
  }
}

void expect_identical(const CharacterizationResult& a,
                      const CharacterizationResult& b) {
  EXPECT_EQ(a.trace.instances().size(), b.trace.instances().size());
  EXPECT_EQ(a.trace.end_time(), b.trace.end_time());
  expect_identical_demand(a.demand, b.demand);
  expect_identical_usage(a.usage, b.usage);
  expect_identical_bottlenecks(a.bottlenecks, b.bottlenecks);
  EXPECT_EQ(a.phase_usage, b.phase_usage);  // exact double equality
  expect_identical_issues(a.issues, b.issues);
  EXPECT_EQ(a.baseline_makespan, b.baseline_makespan);
}

TEST(PipelineDeterminismTest, TwoThreadsMatchesSerialBitForBit) {
  const CharacterizationResult serial = characterize_with(1);
  const CharacterizationResult parallel = characterize_with(2);
  expect_identical(serial, parallel);
}

TEST(PipelineDeterminismTest, EightThreadsMatchesSerialBitForBit) {
  const CharacterizationResult serial = characterize_with(1);
  const CharacterizationResult parallel = characterize_with(8);
  expect_identical(serial, parallel);
}

TEST(PipelineDeterminismTest, LeafDemandMatchesSerialBitForBit) {
  // characterize() releases the per-leaf fractions once attributed, so the
  // leaves are compared on direct estimate_demand sweeps of the same trace.
  const Workload& w = workload();
  const CharacterizationResult built = characterize_with(1);
  const auto sweep = [&](std::size_t threads) {
    ThreadPool pool(threads);
    return estimate_demand(w.model.resources, w.model.tuned_rules,
                           built.trace, built.grid, &pool);
  };
  const std::vector<DemandMatrix> serial = sweep(1);
  std::size_t leaves = 0;
  for (const DemandMatrix& matrix : serial) leaves += matrix.leaves.size();
  ASSERT_GT(leaves, 0u);
  for (const std::size_t threads : {2u, 8u}) {
    SCOPED_TRACE(std::to_string(threads) + " threads");
    expect_identical_demand(serial, sweep(threads));
  }
}

TEST(PipelineDeterminismTest, RepeatedParallelRunsAreStable) {
  // Scheduling differs run to run; the result must not.
  const CharacterizationResult first = characterize_with(8);
  for (int repeat = 0; repeat < 3; ++repeat) {
    expect_identical(first, characterize_with(8));
  }
}

}  // namespace
}  // namespace g10::core
