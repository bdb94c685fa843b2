// Golden-trace regression: the engines' logs must stay byte-identical to
// committed fixtures across refactors of the trace-generation path. The
// `_batched` fixtures pin each engine's fault-free delivery schedule
// (DESIGN.md §13): Pregel's coalesced frames, GAS's per-destination
// exchange. The `_faulted`
// fixtures pin the shared crash/checkpoint/recovery path (DESIGN.md §10)
// in both crash-log styles; they also carry the monitoring samples, so CPU
// accounting through checkpoint writes and crash teardown is pinned too.
// The crash sweep at the end moves one crash across the whole run of both
// engines: every crash point must recover into a trace the strict build
// accepts.
//
// Set G10_REGEN_GOLDEN=1 (or use the `regen-golden` CMake target /
// tools/regen_golden.sh) to rewrite every fixture from the current build
// instead of comparing.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "algorithms/programs.hpp"
#include "engine/dataflow/dataflow_engine.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "grade10/models/gas_model.hpp"
#include "grade10/models/pregel_model.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "sim/fault_injector.hpp"
#include "trace/log_io.hpp"

namespace g10 {
namespace {

std::string fixture_path(const std::string& name) {
  return std::string(G10_GOLDEN_TRACE_DIR) + "/" + name;
}

std::string read_fixture(const std::string& name) {
  const std::string path = fixture_path(name);
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << "missing fixture: " << path;
  std::ostringstream buffer;
  buffer << is.rdbuf();
  return buffer.str();
}

/// Compares `rendered` to the committed fixture, or rewrites the fixture
/// when G10_REGEN_GOLDEN is set in the environment.
void check_or_regen(const std::string& name, const std::string& rendered) {
  if (std::getenv("G10_REGEN_GOLDEN") != nullptr) {
    const std::string path = fixture_path(name);
    std::ofstream os(path, std::ios::binary);
    ASSERT_TRUE(os.good()) << "cannot write fixture: " << path;
    os << rendered;
    std::cout << "[regen] wrote " << path << " (" << rendered.size()
              << " bytes)\n";
    return;
  }
  EXPECT_EQ(rendered, read_fixture(name));
}

std::string render(const trace::RunArtifacts& artifacts) {
  std::ostringstream os;
  trace::write_log(os, artifacts.phase_events, artifacts.blocking_events, {});
  return os.str();
}

/// Phase and blocking records plus the ground truth sampled at 5 ms.
std::string render_with_samples(const trace::RunArtifacts& artifacts) {
  std::ostringstream os;
  trace::write_log(os, artifacts.phase_events, artifacts.blocking_events,
                   monitor::sample_ground_truth(artifacts.ground_truth,
                                                5 * kMillisecond,
                                                artifacts.makespan));
  return os.str();
}

sim::FaultSpec fault_spec(const std::string& text) {
  auto spec = sim::FaultSpec::parse(text);
  EXPECT_TRUE(spec.has_value()) << text;
  return spec.value_or(sim::FaultSpec{});
}

constexpr const char* kCrashPartition = "crash:w1@40%,part:w0-w2@30%+20%";
constexpr const char* kCrashLossyNic =
    "crash:w1@40%,nic:w*@10%+40%:x0.5:loss=0.3";

graph::Graph make_graph() {
  graph::DatagenParams params;
  params.vertices = 512;
  params.mean_degree = 8;
  params.seed = 11;
  return generate_datagen_like(params);
}

engine::PregelConfig pregel_config() {
  engine::PregelConfig cfg;
  cfg.cluster.machine_count = 3;
  cfg.cluster.machine.cores = 8;
  cfg.seed = 99;
  return cfg;
}

engine::GasConfig gas_config() {
  engine::GasConfig cfg;
  cfg.cluster.machine_count = 3;
  cfg.cluster.machine.cores = 8;
  cfg.seed = 99;
  return cfg;
}

TEST(GoldenTraceTest, PregelPageRankBatchedMatchesFixture) {
  const auto artifacts = engine::PregelEngine(pregel_config())
                             .run(make_graph(), algorithms::PageRank(5));
  check_or_regen("pregel_pagerank_d512_s99_batched.log", render(artifacts));
}

TEST(GoldenTraceTest, GasPageRankBatchedMatchesFixture) {
  const auto artifacts = engine::GasEngine(gas_config())
                             .run(make_graph(), algorithms::PageRank(5));
  check_or_regen("gas_pagerank_d512_s99_batched.log", render(artifacts));
}

TEST(GoldenTraceTest, PregelSsspMatchesFixture) {
  // SSSP sends and halts on value comparisons, so this trace pins that the
  // engine's timing depends on the program only through who sends and who
  // halts, not on the order vertex values are computed in.
  const auto artifacts = engine::PregelEngine(pregel_config())
                             .run(make_graph(), algorithms::Sssp(1));
  check_or_regen("pregel_sssp_d512_s99.log", render(artifacts));
}

TEST(GoldenTraceTest, PregelCrashPartitionReconciledMatchesFixture) {
  auto cfg = pregel_config();
  cfg.cluster.faults = fault_spec(kCrashPartition);
  const auto artifacts =
      engine::PregelEngine(cfg).run(make_graph(), algorithms::PageRank(5));
  check_or_regen("pregel_pagerank_d512_s99_faulted.log",
                 render_with_samples(artifacts));
}

TEST(GoldenTraceTest, PregelCrashPartitionTruncatedMatchesFixture) {
  auto cfg = pregel_config();
  cfg.cluster.faults = fault_spec(kCrashPartition);
  cfg.crash_log = engine::CrashLogStyle::kTruncated;
  const auto artifacts =
      engine::PregelEngine(cfg).run(make_graph(), algorithms::PageRank(5));
  check_or_regen("pregel_pagerank_d512_s99_faulted_truncated.log",
                 render_with_samples(artifacts));
}

TEST(GoldenTraceTest, PregelCrashLossyNicMatchesFixture) {
  auto cfg = pregel_config();
  cfg.cluster.faults = fault_spec(kCrashLossyNic);
  const auto artifacts =
      engine::PregelEngine(cfg).run(make_graph(), algorithms::PageRank(5));
  check_or_regen("pregel_pagerank_d512_s99_faulted_lossy.log",
                 render_with_samples(artifacts));
}

TEST(GoldenTraceTest, GasCrashPartitionReconciledMatchesFixture) {
  auto cfg = gas_config();
  cfg.cluster.faults = fault_spec(kCrashPartition);
  const auto artifacts =
      engine::GasEngine(cfg).run(make_graph(), algorithms::PageRank(5));
  check_or_regen("gas_pagerank_d512_s99_faulted.log",
                 render_with_samples(artifacts));
}

TEST(GoldenTraceTest, GasCrashPartitionTruncatedMatchesFixture) {
  auto cfg = gas_config();
  cfg.cluster.faults = fault_spec(kCrashPartition);
  cfg.crash_log = engine::CrashLogStyle::kTruncated;
  const auto artifacts =
      engine::GasEngine(cfg).run(make_graph(), algorithms::PageRank(5));
  check_or_regen("gas_pagerank_d512_s99_faulted_truncated.log",
                 render_with_samples(artifacts));
}

TEST(GoldenTraceTest, GasCrashBetweenStepsMatchesFixture) {
  // The crash lands while a GAS step's barrier is pending: the hand-off to
  // the next step must wait for recovery instead of opening phases on the
  // dead worker.
  auto cfg = gas_config();
  cfg.cluster.faults = fault_spec("crash:w1@4%");
  const auto artifacts =
      engine::GasEngine(cfg).run(make_graph(), algorithms::PageRank(5));
  check_or_regen("gas_pagerank_d512_s99_crash_between_steps.log",
                 render_with_samples(artifacts));
}

TEST(GoldenTraceTest, DataflowMatchesFixture) {
  engine::DataflowConfig cfg;
  cfg.cluster.machine_count = 3;
  cfg.cluster.machine.cores = 8;
  cfg.seed = 99;
  engine::StageSpec stage;
  stage.tasks = 48;
  stage.skew = 0.3;
  engine::DataflowJobSpec job;
  job.stages = {stage, stage, stage};
  const auto artifacts = engine::DataflowEngine(cfg).run(job);
  check_or_regen("dataflow_3stage_s99.log", render(artifacts));
}

/// Runs `run(cfg)` with `crash:w1@p%` for p = 1..99 in both crash-log
/// styles. Every run must complete; a reconciled trace must also build
/// strictly against `model`.
template <typename Config, typename Run>
void sweep_crash_points(Config cfg, const core::FrameworkModel& model,
                        Run run) {
  for (const auto style : {engine::CrashLogStyle::kReconciled,
                           engine::CrashLogStyle::kTruncated}) {
    cfg.crash_log = style;
    for (int p = 1; p <= 99; ++p) {
      const std::string spec = "crash:w1@" + std::to_string(p) + "%";
      SCOPED_TRACE(spec);
      cfg.cluster.faults = fault_spec(spec);
      trace::RunArtifacts artifacts;
      ASSERT_NO_THROW(artifacts = run(cfg));
      if (style == engine::CrashLogStyle::kTruncated) continue;
      const core::TraceBuild build = core::ExecutionTrace::build_checked(
          model.execution, model.resources, artifacts.phase_events,
          artifacts.blocking_events, {}, {});
      EXPECT_FALSE(build.error.has_value()) << build.error.value_or("");
    }
  }
}

TEST(CrashSweepTest, PregelRecoversFromEveryCrashPoint) {
  const auto cfg = pregel_config();
  core::PregelModelParams params;
  params.cores = cfg.cluster.machine.cores;
  params.threads = cfg.effective_threads();
  params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  const graph::Graph g = make_graph();
  sweep_crash_points(cfg, core::make_pregel_model(params),
                     [&](const engine::PregelConfig& c) {
                       return engine::PregelEngine(c).run(
                           g, algorithms::PageRank(5));
                     });
}

TEST(CrashSweepTest, GasRecoversFromEveryCrashPoint) {
  const auto cfg = gas_config();
  core::GasModelParams params;
  params.cores = cfg.cluster.machine.cores;
  params.threads = cfg.effective_threads();
  params.network_capacity = cfg.cluster.machine.nic_bytes_per_sec();
  const graph::Graph g = make_graph();
  sweep_crash_points(cfg, core::make_gas_model(params),
                     [&](const engine::GasConfig& c) {
                       return engine::GasEngine(c).run(
                           g, algorithms::PageRank(5));
                     });
}

}  // namespace
}  // namespace g10
