#include "engine/pregel/pregel_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <tuple>

#include "algorithms/programs.hpp"
#include "algorithms/reference.hpp"
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

PregelConfig small_config() {
  PregelConfig cfg;
  cfg.cluster.machine_count = 3;
  cfg.cluster.machine.cores = 4;
  cfg.seed = 123;
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

TEST(PregelEngineTest, PageRankMatchesReference) {
  const auto g = small_graph();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, PageRank(8));
  expect_values_near(result.vertex_values,
                     algorithms::pagerank_reference(g, 8), 0.0);
}

TEST(PregelEngineTest, BfsMatchesReference) {
  const auto g = small_graph();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, Bfs(1));
  expect_values_near(result.vertex_values, algorithms::bfs_reference(g, 1),
                     1e-12);
}

TEST(PregelEngineTest, WccMatchesReference) {
  const auto g = small_undirected();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, Wcc());
  expect_values_near(result.vertex_values, algorithms::wcc_reference(g),
                     1e-12);
}

TEST(PregelEngineTest, CdlpMatchesReference) {
  const auto g = small_undirected();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, Cdlp(4));
  expect_values_near(result.vertex_values, algorithms::cdlp_reference(g, 4),
                     1e-12);
}

TEST(PregelEngineTest, SsspMatchesDijkstraOnWeightedGraph) {
  auto g = small_graph();
  graph::assign_random_weights(g, 1.0, 10.0, 99);
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, algorithms::Sssp(1));
  expect_values_near(result.vertex_values,
                     algorithms::sssp_reference(g, 1), 1e-9);
}

TEST(PregelEngineTest, SsspOnUnweightedGraphEqualsBfs) {
  const auto g = small_graph();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, algorithms::Sssp(1));
  expect_values_near(result.vertex_values, algorithms::bfs_reference(g, 1),
                     1e-12);
}

TEST(PregelEngineTest, DeterministicForSameSeed) {
  const auto g = small_graph();
  const PregelEngine engine(small_config());
  const auto a = engine.run(g, PageRank(5));
  const auto b = engine.run(g, PageRank(5));
  EXPECT_EQ(a.makespan, b.makespan);
  EXPECT_EQ(a.phase_events.size(), b.phase_events.size());
  EXPECT_EQ(a.blocking_events.size(), b.blocking_events.size());
}

TEST(PregelEngineTest, PhaseEventsAreBalanced) {
  const auto g = small_graph();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, PageRank(4));
  std::map<std::string, int> open;
  for (const auto& event : result.phase_events) {
    const std::string key = event.path.to_string();
    if (event.kind == trace::PhaseEventRecord::Kind::Begin) {
      ++open[key];
    } else {
      --open[key];
    }
  }
  for (const auto& [key, count] : open) EXPECT_EQ(count, 0) << key;
}

TEST(PregelEngineTest, GroundTruthCpuWithinCapacity) {
  const auto g = small_graph();
  const auto cfg = small_config();
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, PageRank(5));
  for (const auto& gt : result.ground_truth) {
    if (gt.resource != resource_names::kCpu) continue;
    EXPECT_LE(gt.series.max_over(0, result.makespan), gt.capacity + 1e-9);
    // Usage never negative.
    for (const double v : gt.series.values()) EXPECT_GE(v, -1e-9);
  }
}

TEST(PregelEngineTest, EmitsGcPausesWhenEnabled) {
  const auto g = small_undirected();
  auto cfg = small_config();
  cfg.gc.young_gen_bytes = 2e5;  // aggressive: force collections
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, Cdlp(4));
  bool has_gc_block = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == pregel_names::kGc) has_gc_block = true;
  }
  EXPECT_TRUE(has_gc_block);
  bool has_gc_phase = false;
  for (const auto& event : result.phase_events) {
    if (event.path.leaf().type == "GcPause") has_gc_phase = true;
  }
  EXPECT_TRUE(has_gc_phase);
}

TEST(PregelEngineTest, NoGcWhenDisabled) {
  const auto g = small_undirected();
  auto cfg = small_config();
  cfg.gc.enabled = false;
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, Cdlp(4));
  for (const auto& block : result.blocking_events) {
    EXPECT_NE(block.resource, pregel_names::kGc);
  }
}

TEST(PregelEngineTest, SmallQueueCausesMessageQueueStalls) {
  const auto g = small_undirected();
  auto cfg = small_config();
  cfg.queue.capacity_bytes = 2000;  // tiny buffer: must stall
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, Cdlp(3));
  bool stalled = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == pregel_names::kMessageQueue) stalled = true;
  }
  EXPECT_TRUE(stalled);
}

TEST(PregelEngineTest, BlockingEventsLieWithinTheirPhase) {
  const auto g = small_undirected();
  auto cfg = small_config();
  cfg.gc.young_gen_bytes = 2e6;
  cfg.queue.capacity_bytes = 50000;
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, Cdlp(3));
  std::map<std::string, std::pair<TimeNs, TimeNs>> spans;
  for (const auto& event : result.phase_events) {
    auto& span = spans[event.path.to_string()];
    if (event.kind == trace::PhaseEventRecord::Kind::Begin) {
      span.first = event.time;
    } else {
      span.second = event.time;
    }
  }
  for (const auto& block : result.blocking_events) {
    const auto it = spans.find(block.path.to_string());
    ASSERT_NE(it, spans.end());
    EXPECT_GE(block.begin, it->second.first);
    EXPECT_LE(block.end, it->second.second);
  }
}

TEST(PregelEngineTest, SuperstepCountMatchesAlgorithm) {
  const auto g = small_graph();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, PageRank(6));
  std::int64_t max_superstep = -1;
  for (const auto& event : result.phase_events) {
    for (const auto& element : event.path.elements) {
      if (element.type == "Superstep") {
        max_superstep = std::max(max_superstep, element.index);
      }
    }
  }
  // PageRank(6) runs supersteps 0..6.
  EXPECT_EQ(max_superstep, 6);
}

TEST(PregelEngineTest, MakespanCoversAllEvents) {
  const auto g = small_graph();
  const PregelEngine engine(small_config());
  const auto result = engine.run(g, Bfs(0));
  for (const auto& event : result.phase_events) {
    EXPECT_LE(event.time, result.makespan);
  }
  EXPECT_GT(result.makespan, 0);
}

PregelConfig faulted_config(const std::string& faults) {
  PregelConfig cfg = small_config();
  auto spec = sim::FaultSpec::parse(faults);
  EXPECT_TRUE(spec.has_value()) << faults;
  if (spec) cfg.cluster.faults = *spec;
  return cfg;
}

TEST(PregelFaultTest, CrashRecoveryConvergesToReference) {
  // A worker crash mid-run must not change the algorithm's output: the
  // engine restarts from the last checkpoint and re-executes.
  const auto g = small_graph();
  const PregelEngine engine(faulted_config("crash:w1@40%"));
  const auto result = engine.run(g, PageRank(8));
  expect_values_near(result.vertex_values,
                     algorithms::pagerank_reference(g, 8), 0.0);
}

TEST(PregelFaultTest, CrashEmitsRecoveryBlocksAndTruncatedPhases) {
  const auto g = small_graph();
  const PregelEngine baseline_engine(small_config());
  const auto baseline = baseline_engine.run(g, PageRank(8));
  PregelConfig cfg = faulted_config("crash:w1@40%");
  cfg.crash_log = CrashLogStyle::kTruncated;
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, PageRank(8));
  // The recovery window shows up as blocked time.
  bool has_recovery = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == resource_names::kRecovery) has_recovery = true;
  }
  EXPECT_TRUE(has_recovery);
  // The crashed worker's log stops mid-phase: at least one BEGIN has no END.
  std::map<std::string, int> open;
  for (const auto& event : result.phase_events) {
    open[event.path.to_string()] +=
        event.kind == trace::PhaseEventRecord::Kind::Begin ? 1 : -1;
  }
  int truncated = 0;
  for (const auto& [key, count] : open) truncated += count;
  EXPECT_GT(truncated, 0);
  // Recovery + re-execution costs time.
  EXPECT_GT(result.makespan, baseline.makespan);
}

TEST(PregelFaultTest, ReconciledCrashLogStaysBalanced) {
  // With the default CrashLogStyle::kReconciled, a crash run still emits a
  // balanced log (every BEGIN has an END) so strict analysis succeeds, and
  // the lost time is visible as Recovery blocking instead.
  const auto g = small_graph();
  const PregelEngine engine(faulted_config("crash:w1@40%"));
  const auto result = engine.run(g, PageRank(8));
  std::map<std::string, int> open;
  for (const auto& event : result.phase_events) {
    open[event.path.to_string()] +=
        event.kind == trace::PhaseEventRecord::Kind::Begin ? 1 : -1;
  }
  for (const auto& [key, count] : open) EXPECT_EQ(count, 0) << key;
  bool has_recovery = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == resource_names::kRecovery) has_recovery = true;
  }
  EXPECT_TRUE(has_recovery);
  expect_values_near(result.vertex_values,
                     algorithms::pagerank_reference(g, 8), 0.0);
}

TEST(PregelFaultTest, PartitionIsRiddenOutWithRetries) {
  // A temporary network partition between two workers delays their traffic
  // (Retry blocking while the channel waits for the link to heal) but the
  // output and the log stay intact.
  const auto g = small_graph();
  const PregelEngine baseline_engine(small_config());
  const auto baseline = baseline_engine.run(g, PageRank(6));
  const PregelEngine engine(faulted_config("part:w0-w1@20%+25%"));
  const auto result = engine.run(g, PageRank(6));
  bool has_retry = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == resource_names::kRetry) has_retry = true;
  }
  EXPECT_TRUE(has_retry);
  EXPECT_GT(result.makespan, baseline.makespan);
  std::map<std::string, int> open;
  for (const auto& event : result.phase_events) {
    open[event.path.to_string()] +=
        event.kind == trace::PhaseEventRecord::Kind::Begin ? 1 : -1;
  }
  for (const auto& [key, count] : open) EXPECT_EQ(count, 0) << key;
  expect_values_near(result.vertex_values, baseline.vertex_values, 0.0);
}

TEST(PregelFaultTest, FaultScheduleIsDeterministic) {
  const auto g = small_graph();
  const PregelEngine engine(faulted_config("crash:w1@40%,slow:w0@30%+30%:x0.5"));
  const auto a = engine.run(g, PageRank(6));
  const auto b = engine.run(g, PageRank(6));
  ASSERT_EQ(a.phase_events.size(), b.phase_events.size());
  for (std::size_t i = 0; i < a.phase_events.size(); ++i) {
    EXPECT_EQ(a.phase_events[i].kind, b.phase_events[i].kind);
    EXPECT_EQ(a.phase_events[i].time, b.phase_events[i].time);
    EXPECT_EQ(a.phase_events[i].path.to_string(),
              b.phase_events[i].path.to_string());
  }
  ASSERT_EQ(a.blocking_events.size(), b.blocking_events.size());
  for (std::size_t i = 0; i < a.blocking_events.size(); ++i) {
    EXPECT_EQ(a.blocking_events[i].begin, b.blocking_events[i].begin);
    EXPECT_EQ(a.blocking_events[i].end, b.blocking_events[i].end);
  }
  EXPECT_EQ(a.makespan, b.makespan);
}

TEST(PregelFaultTest, SlowdownStretchesMakespan) {
  const auto g = small_graph();
  const PregelEngine baseline_engine(small_config());
  const auto baseline = baseline_engine.run(g, PageRank(6));
  const PregelEngine engine(faulted_config("slow:w*@0s:x0.25"));
  const auto slowed = engine.run(g, PageRank(6));
  EXPECT_GT(slowed.makespan, baseline.makespan);
  // Values never depend on timing: the program runs in vertex order before
  // the superstep is simulated.
  expect_values_near(slowed.vertex_values, baseline.vertex_values, 0.0);
}

TEST(PregelFaultTest, LossyNicCausesRetryBlocks) {
  const auto g = small_graph();
  const PregelEngine engine(faulted_config("nic:w*@0s:x0.5:loss=0.4"));
  const auto result = engine.run(g, PageRank(6));
  bool has_retry = false;
  for (const auto& block : result.blocking_events) {
    if (block.resource == resource_names::kRetry) has_retry = true;
  }
  EXPECT_TRUE(has_retry);
  expect_values_near(result.vertex_values,
                     algorithms::pagerank_reference(g, 6), 0.0);
}

TEST(PregelFaultTest, CrashedRunEmitsCheckpoints) {
  const auto g = small_graph();
  const PregelEngine engine(faulted_config("crash:w0@50%"));
  const auto result = engine.run(g, PageRank(6));
  bool has_checkpoint = false;
  for (const auto& event : result.phase_events) {
    if (event.path.leaf().type == "CheckpointWorker") has_checkpoint = true;
  }
  EXPECT_TRUE(has_checkpoint);
}

class PregelChunkingTest
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(PregelChunkingTest, CorrectnessIndependentOfScheduling) {
  // Chunk size and partition granularity change the DES interleaving but
  // must never change the algorithm's output.
  const auto [chunk, partitions] = GetParam();
  const auto g = small_undirected();
  auto cfg = small_config();
  cfg.chunk_vertices = chunk;
  cfg.partitions_per_thread = partitions;
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, Cdlp(4));
  const auto expected = algorithms::cdlp_reference(g, 4);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_DOUBLE_EQ(result.vertex_values[i], expected[i]) << i;
  }
  EXPECT_GT(result.makespan, 0);
}

INSTANTIATE_TEST_SUITE_P(Granularities, PregelChunkingTest,
                         ::testing::Values(std::make_pair(16, 1),
                                           std::make_pair(64, 2),
                                           std::make_pair(256, 4),
                                           std::make_pair(4096, 8)));

/// (workers, seed, threads per worker).
class PregelWorkerCountTest
    : public ::testing::TestWithParam<std::tuple<int, std::uint64_t, int>> {};

TEST_P(PregelWorkerCountTest, CorrectAcrossClusterSizes) {
  // PageRank sums its messages in ascending sender order whatever the
  // cluster, seed and thread count, so it equals the reference bitwise.
  const auto [workers, seed, threads] = GetParam();
  const auto g = small_graph();
  auto cfg = small_config();
  cfg.cluster.machine_count = workers;
  cfg.seed = seed;
  cfg.threads_per_worker = threads;
  const PregelEngine engine(cfg);
  const auto result = engine.run(g, PageRank(4));
  const auto expected = algorithms::pagerank_reference(g, 4);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ(result.vertex_values[i], expected[i]) << "vertex " << i;
  }
  // One CPU + one network ground-truth series per machine.
  EXPECT_EQ(result.ground_truth.size(), static_cast<std::size_t>(2 * workers));
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, PregelWorkerCountTest,
    ::testing::Combine(::testing::Values(1, 2, 4, 8),
                       ::testing::Values<std::uint64_t>(1, 2, 3, 4),
                       ::testing::Values(1, 4)));

/// (algorithm, workers, fault spec).
class PregelHostThreadsTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, int, std::string>> {};

TEST_P(PregelHostThreadsTest, ParallelPassesMatchTheSerialRun) {
  // The vertex program, the deliveries and the chunk costs fan out on the
  // host; every host thread count must reproduce the one-thread run bit for
  // bit. A graph of 4096 vertices gives the vertex-program pass four ranges.
  const auto& [algorithm, workers, faults] = GetParam();
  graph::RmatParams params;
  params.scale = 12;
  params.edge_factor = 8;
  params.undirected = true;
  params.seed = 31;
  graph::Graph g = generate_rmat(params);
  std::unique_ptr<algorithms::PregelProgram> program;
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
    // Weighted SSSP: every delivery adds its edge's weight.
    graph::assign_random_weights(g, 1.0, 10.0, 99);
    program = std::make_unique<algorithms::Sssp>(1);
    reference = algorithms::sssp_reference(g, 1);
    tolerance = 1e-9;
  }
  PregelConfig cfg = faults.empty() ? small_config() : faulted_config(faults);
  cfg.cluster.machine_count = workers;
  cfg.host_threads = 1;
  const auto serial = PregelEngine(cfg).run(g, *program);
  for (const std::size_t threads : {2, 4}) {
    SCOPED_TRACE("host threads " + std::to_string(threads));
    cfg.host_threads = threads;
    const auto parallel = PregelEngine(cfg).run(g, *program);
    expect_identical_runs(parallel, serial);
    if (threads == 4) {
      expect_values_near(parallel.vertex_values, reference, tolerance);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PregelHostThreadsTest,
    ::testing::Combine(::testing::Values("pagerank", "bfs", "wcc", "cdlp",
                                         "sssp"),
                       ::testing::Values(1, 2, 8),
                       ::testing::Values(std::string())));

INSTANTIATE_TEST_SUITE_P(
    CrashAndRestore, PregelHostThreadsTest,
    ::testing::Combine(::testing::Values("pagerank", "cdlp", "sssp"),
                       ::testing::Values(2, 8),
                       ::testing::Values(std::string("crash:w1@40%"))));

}  // namespace
}  // namespace g10::engine
