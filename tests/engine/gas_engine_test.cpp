#include "engine/gas/gas_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "algorithms/programs.hpp"
#include "algorithms/reference.hpp"
#include "common/check.hpp"
#include "engine/resource_names.hpp"
#include "graph/generators.hpp"
#include "identical_runs.hpp"

namespace g10::engine {
namespace {

using algorithms::Bfs;
using algorithms::Cdlp;
using algorithms::PageRank;
using algorithms::Wcc;
using testing::expect_identical_runs;

graph::Graph small_graph() {
  graph::RmatParams params;
  params.scale = 9;
  params.edge_factor = 8;
  params.seed = 17;
  return generate_rmat(params);
}

graph::Graph small_undirected() {
  graph::DatagenParams params;
  params.vertices = 512;
  params.mean_degree = 8;
  params.seed = 21;
  return generate_datagen_like(params);
}

GasConfig small_config() {
  GasConfig cfg;
  cfg.cluster.machine_count = 3;
  cfg.cluster.machine.cores = 4;
  cfg.seed = 55;
  return cfg;
}

void expect_values_near(const std::vector<double>& actual,
                        const std::vector<double>& expected, double tol) {
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t i = 0; i < actual.size(); ++i) {
    if (std::isinf(expected[i])) {
      EXPECT_TRUE(std::isinf(actual[i])) << "vertex " << i;
    } else {
      EXPECT_NEAR(actual[i], expected[i], tol) << "vertex " << i;
    }
  }
}

TEST(GasEngineTest, PageRankMatchesReference) {
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, PageRank(8));
  expect_values_near(result.vertex_values,
                     algorithms::pagerank_reference(g, 8), 0.0);
}

TEST(GasEngineTest, BfsMatchesReference) {
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, Bfs(1));
  expect_values_near(result.vertex_values, algorithms::bfs_reference(g, 1),
                     1e-12);
}

TEST(GasEngineTest, WccMatchesReference) {
  const auto g = small_undirected();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, Wcc());
  expect_values_near(result.vertex_values, algorithms::wcc_reference(g),
                     1e-12);
}

TEST(GasEngineTest, CdlpMatchesReference) {
  const auto g = small_undirected();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, Cdlp(4));
  expect_values_near(result.vertex_values, algorithms::cdlp_reference(g, 4),
                     1e-12);
}

TEST(GasEngineTest, SsspMatchesDijkstraOnWeightedGraph) {
  auto g = small_graph();
  graph::assign_random_weights(g, 1.0, 10.0, 99);
  const GasEngine engine(small_config());
  const auto result = engine.run(g, algorithms::Sssp(1));
  expect_values_near(result.vertex_values,
                     algorithms::sssp_reference(g, 1), 1e-9);
}

TEST(GasEngineTest, SsspOnUnweightedGraphEqualsBfs) {
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, algorithms::Sssp(1));
  expect_values_near(result.vertex_values, algorithms::bfs_reference(g, 1),
                     1e-12);
}

TEST(GasEngineTest, DeterministicForSameSeed) {
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto a = engine.run(g, PageRank(5));
  const auto b = engine.run(g, PageRank(5));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.phase_events.size(), b.phase_events.size());
}

TEST(GasEngineTest, PhaseEventsAreBalanced) {
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, PageRank(4));
  std::map<std::string, int> open;
  for (const auto& event : result.phase_events) {
    open[event.path.to_string()] +=
        event.kind == trace::PhaseEventRecord::Kind::Begin ? 1 : -1;
  }
  for (const auto& [key, count] : open) EXPECT_EQ(count, 0) << key;
}

TEST(GasEngineTest, NoBlockingEventsEver) {
  // PowerGraph has no GC and no explicit queue stalls (paper §IV-C).
  const auto g = small_undirected();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, Cdlp(4));
  EXPECT_TRUE(result.blocking_events.empty());
}

TEST(GasEngineTest, CpuWithinCapacity) {
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, PageRank(5));
  for (const auto& gt : result.ground_truth) {
    if (gt.resource != resource_names::kCpu) continue;
    EXPECT_LE(gt.series.max_over(0, result.makespan), gt.capacity + 1e-9);
  }
}

TEST(GasEngineTest, IterationStepsPresentAndOrdered) {
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, PageRank(3));
  // Gather of iteration 0 must end before Apply of iteration 0 begins.
  std::map<std::string, std::pair<TimeNs, TimeNs>> spans;
  for (const auto& event : result.phase_events) {
    auto& span = spans[event.path.to_string()];
    (event.kind == trace::PhaseEventRecord::Kind::Begin ? span.first
                                                        : span.second) =
        event.time;
  }
  const std::string prefix = "Job.0/Execute.0/Iteration.0/";
  ASSERT_TRUE(spans.contains(prefix + "GatherStep.0"));
  ASSERT_TRUE(spans.contains(prefix + "ApplyStep.0"));
  ASSERT_TRUE(spans.contains(prefix + "ScatterStep.0"));
  ASSERT_TRUE(spans.contains(prefix + "ExchangeStep.0"));
  EXPECT_LE(spans[prefix + "GatherStep.0"].second,
            spans[prefix + "ApplyStep.0"].first);
  EXPECT_LE(spans[prefix + "ApplyStep.0"].second,
            spans[prefix + "ScatterStep.0"].first);
  EXPECT_LE(spans[prefix + "ScatterStep.0"].second,
            spans[prefix + "ExchangeStep.0"].first);
}

TEST(GasEngineTest, SyncBugInflatesGatherSteps) {
  const auto g = small_undirected();
  auto cfg = small_config();
  cfg.seed = 7;

  auto cfg_bug = cfg;
  cfg_bug.sync_bug.enabled = true;
  cfg_bug.sync_bug.probability = 1.0;  // every gather step on every worker
  cfg_bug.sync_bug.min_extra = 0.5;
  cfg_bug.sync_bug.max_extra = 0.5;

  const auto clean = GasEngine(cfg).run(g, Cdlp(4));
  const auto buggy = GasEngine(cfg_bug).run(g, Cdlp(4));
  EXPECT_GT(buggy.makespan, clean.makespan);
}

TEST(GasEngineTest, SyncBugDisabledByDefault) {
  const GasConfig cfg;
  EXPECT_FALSE(cfg.sync_bug.enabled);
}

class GasPartitioningTest : public ::testing::TestWithParam<VertexCutStrategy> {
};

TEST_P(GasPartitioningTest, CorrectUnderAllStrategies) {
  const auto g = small_undirected();
  auto cfg = small_config();
  cfg.partitioning = GetParam();
  const GasEngine engine(cfg);
  const auto result = engine.run(g, Wcc());
  const auto expected = algorithms::wcc_reference(g);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_DOUBLE_EQ(result.vertex_values[i], expected[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Strategies, GasPartitioningTest,
                         ::testing::Values(VertexCutStrategy::kHashSource,
                                           VertexCutStrategy::kGreedy,
                                           VertexCutStrategy::kRandom));

TEST(GasEngineTest, BfsTerminatesEarlyOnConvergence) {
  // BFS on a small graph should need far fewer iterations than the cap.
  const auto g = small_graph();
  const GasEngine engine(small_config());
  const auto result = engine.run(g, Bfs(1));
  std::int64_t max_iteration = -1;
  for (const auto& event : result.phase_events) {
    for (const auto& element : event.path.elements) {
      if (element.type == "Iteration") {
        max_iteration = std::max(max_iteration, element.index);
      }
    }
  }
  EXPECT_GE(max_iteration, 1);
  EXPECT_LT(max_iteration, 100);
}

TEST(GasFaultTest, SlowdownStretchesMakespanWithoutChangingOutput) {
  const auto g = small_graph();
  const GasEngine baseline_engine(small_config());
  const auto baseline = baseline_engine.run(g, PageRank(6));
  auto cfg = small_config();
  const auto spec = sim::FaultSpec::parse("slow:w*@0s:x0.25");
  ASSERT_TRUE(spec.has_value());
  cfg.cluster.faults = *spec;
  const GasEngine engine(cfg);
  const auto slowed = engine.run(g, PageRank(6));
  EXPECT_GT(slowed.makespan, baseline.makespan);
  expect_values_near(slowed.vertex_values, baseline.vertex_values, 0.0);
}

TEST(GasFaultTest, CrashRecoveryConvergesToReference) {
  const auto g = small_graph();
  auto cfg = small_config();
  const auto spec = sim::FaultSpec::parse("crash:w0@40%");
  ASSERT_TRUE(spec.has_value());
  cfg.cluster.faults = *spec;
  const GasEngine engine(cfg);
  const auto result = engine.run(g, PageRank(8));
  // Snapshot restore + re-execution must not perturb algorithm output.
  expect_values_near(result.vertex_values,
                     algorithms::pagerank_reference(g, 8), 0.0);

  // The reconciled crash log stays balanced, has Recovery/Checkpoint
  // phases, and reports the downtime as Recovery blocking events.
  std::map<std::string, int> open;
  bool saw_recovery_phase = false;
  for (const auto& event : result.phase_events) {
    open[event.path.to_string()] +=
        event.kind == trace::PhaseEventRecord::Kind::Begin ? 1 : -1;
    for (const auto& element : event.path.elements) {
      if (element.type == "Recovery") saw_recovery_phase = true;
    }
  }
  for (const auto& [key, count] : open) EXPECT_EQ(count, 0) << key;
  EXPECT_TRUE(saw_recovery_phase);
  bool saw_recovery_block = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == resource_names::kRecovery) saw_recovery_block = true;
  }
  EXPECT_TRUE(saw_recovery_block);
}

TEST(GasFaultTest, PartitionIsRiddenOutWithRetries) {
  const auto g = small_graph();
  const GasEngine baseline_engine(small_config());
  const auto baseline = baseline_engine.run(g, PageRank(6));
  auto cfg = small_config();
  const auto spec = sim::FaultSpec::parse("part:w0-w1@20%+25%");
  ASSERT_TRUE(spec.has_value());
  cfg.cluster.faults = *spec;
  const GasEngine engine(cfg);
  const auto result = engine.run(g, PageRank(6));
  bool saw_retry = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == resource_names::kRetry) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);
  EXPECT_GT(result.makespan, baseline.makespan);
  expect_values_near(result.vertex_values, baseline.vertex_values, 0.0);
}

TEST(GasFaultTest, LossyNicCausesRetryBlocksWithoutChangingOutput) {
  const auto g = small_graph();
  const GasEngine baseline_engine(small_config());
  const auto baseline = baseline_engine.run(g, PageRank(6));
  auto cfg = small_config();
  const auto spec = sim::FaultSpec::parse("nic:w*@0s:x0.5:loss=0.4");
  ASSERT_TRUE(spec.has_value());
  cfg.cluster.faults = *spec;
  const GasEngine engine(cfg);
  const auto result = engine.run(g, PageRank(6));
  bool saw_retry = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == resource_names::kRetry) saw_retry = true;
  }
  EXPECT_TRUE(saw_retry);
  expect_values_near(result.vertex_values, baseline.vertex_values, 0.0);
}

TEST(GasFaultTest, CrashUnderLossyNicRecovers) {
  // g10_run --engine gas --dataset datagen:512 --workers 4 --iterations 10
  // under crash + lossy NIC. A crash while the exchange drained used to
  // let the iteration retire its barrier anyway; the checkpoint it opened
  // then ended before it began when recovery aborted it.
  graph::DatagenParams params;
  params.vertices = 512;
  const auto g = generate_datagen_like(params);
  const auto spec =
      sim::FaultSpec::parse("crash:w3@40%,nic:w1@10%+40%:x0.25:loss=0.3");
  ASSERT_TRUE(spec.has_value());
  const auto reference = algorithms::pagerank_reference(g, 10);
  for (const std::uint64_t seed : {4, 5, 6, 7}) {
    GasConfig cfg;
    cfg.cluster.machine_count = 4;
    cfg.cluster.faults = *spec;
    cfg.seed = seed;
    const auto result = GasEngine(cfg).run(g, PageRank(10));
    expect_values_near(result.vertex_values, reference, 0.0);
    std::map<std::string, int> open;
    for (const auto& event : result.phase_events) {
      open[event.path.to_string()] +=
          event.kind == trace::PhaseEventRecord::Kind::Begin ? 1 : -1;
    }
    for (const auto& [key, count] : open) {
      EXPECT_EQ(count, 0) << key << " (seed " << seed << ")";
    }
  }
}

/// (algorithm, workers, fault spec, sync bug).
class GasHostThreadsTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, int, std::string, bool>> {};

TEST_P(GasHostThreadsTest, ParallelPassesMatchTheSerialRun) {
  // Gather/apply with the work counts, and the activation pull, fan out on
  // the host; every host thread count must reproduce the one-thread run bit
  // for bit. A graph of 4096 vertices gives each pass four ranges.
  const auto& [algorithm, workers, faults, sync_bug] = GetParam();
  graph::RmatParams params;
  params.scale = 12;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = 31;
  graph::Graph g = generate_rmat(params);
  std::unique_ptr<algorithms::GasProgram> program;
  std::vector<double> reference;
  double tolerance = 0.0;
  if (algorithm == "pagerank") {
    program = std::make_unique<PageRank>(6);
    reference = algorithms::pagerank_reference(g, 6);
  } else if (algorithm == "bfs") {
    program = std::make_unique<Bfs>(1);
    reference = algorithms::bfs_reference(g, 1);
  } else if (algorithm == "wcc") {
    program = std::make_unique<Wcc>();
    reference = algorithms::wcc_reference(g);
  } else if (algorithm == "cdlp") {
    program = std::make_unique<Cdlp>(4);
    reference = algorithms::cdlp_reference(g, 4);
  } else {
    // Weighted SSSP: the gather reads every in-edge's weight.
    graph::assign_random_weights(g, 1.0, 10.0, 99);
    program = std::make_unique<algorithms::Sssp>(1);
    reference = algorithms::sssp_reference(g, 1);
    tolerance = 1e-9;
  }
  GasConfig cfg = small_config();
  cfg.cluster.machine_count = workers;
  if (!faults.empty()) {
    const auto spec = sim::FaultSpec::parse(faults);
    ASSERT_TRUE(spec.has_value()) << faults;
    cfg.cluster.faults = *spec;
  }
  cfg.sync_bug.enabled = sync_bug;
  cfg.host_threads = 1;
  const auto serial = GasEngine(cfg).run(g, *program);
  for (const std::size_t threads : {2, 4}) {
    SCOPED_TRACE("host threads " + std::to_string(threads));
    cfg.host_threads = threads;
    const auto parallel = GasEngine(cfg).run(g, *program);
    expect_identical_runs(parallel, serial);
    if (threads == 4) {
      expect_values_near(parallel.vertex_values, reference, tolerance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, GasHostThreadsTest,
    ::testing::Combine(::testing::Values("pagerank", "bfs", "wcc", "cdlp",
                                         "sssp"),
                       ::testing::Values(1, 2, 8),
                       ::testing::Values(std::string()),
                       ::testing::Values(false)));

// A crash restores a snapshot, so the next iteration scans active_ again; a
// lossy NIC sends the exchange through the per-destination split.
INSTANTIATE_TEST_SUITE_P(
    Faults, GasHostThreadsTest,
    ::testing::Combine(::testing::Values("pagerank", "bfs", "wcc", "cdlp",
                                         "sssp"),
                       ::testing::Values(2, 8),
                       ::testing::Values(std::string("crash:w1@40%"),
                                         std::string(
                                             "nic:w*@0s:x0.5:loss=0.4")),
                       ::testing::Values(false)));

INSTANTIATE_TEST_SUITE_P(
    SyncBug, GasHostThreadsTest,
    ::testing::Combine(::testing::Values("pagerank", "bfs", "cdlp"),
                       ::testing::Values(2, 8),
                       ::testing::Values(std::string()),
                       ::testing::Values(true)));

}  // namespace
}  // namespace g10::engine
