// Message loss must cost time, never correctness: the logical workload —
// messages produced per step, logical remote wire bytes, and the final
// per-vertex values — has to come out identical with and without injected
// message loss. What loss IS allowed to change is the transport
// bookkeeping: live ReliableChannel plans under loss, and Pregel's
// coalesced frame flushes (DESIGN.md §13).
#include <gtest/gtest.h>

#include <string>

#include "algorithms/programs.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "graph/generators.hpp"
#include "sim/fault_injector.hpp"

namespace g10::engine {
namespace {

constexpr const char* kLossSpec = "nic:w*@10%+40%:x0.5:loss=0.3";

graph::Graph make_graph() {
  graph::DatagenParams params;
  params.vertices = 512;
  params.mean_degree = 8;
  params.seed = 11;
  return generate_datagen_like(params);
}

template <typename Config>
Config base_config() {
  Config cfg;
  cfg.cluster.machine_count = 3;
  cfg.cluster.machine.cores = 8;
  cfg.seed = 99;
  return cfg;
}

template <typename Config>
Config lossy_config() {
  Config cfg = base_config<Config>();
  std::string error;
  const auto spec = sim::FaultSpec::parse(kLossSpec, &error);
  EXPECT_TRUE(spec.has_value()) << error;
  cfg.cluster.faults = *spec;
  return cfg;
}

void expect_same_logical_workload(const trace::RunArtifacts& lossy,
                                  const trace::RunArtifacts& clean) {
  EXPECT_EQ(lossy.comm.messages_per_step, clean.comm.messages_per_step);
  EXPECT_EQ(lossy.comm.remote_bytes_total, clean.comm.remote_bytes_total);
  EXPECT_EQ(lossy.vertex_values, clean.vertex_values);
}

TEST(LossEquivalenceTest, PregelLogicalWorkloadSurvivesLoss) {
  const graph::Graph graph = make_graph();
  const algorithms::Wcc wcc;
  const auto lossy = PregelEngine(lossy_config<PregelConfig>()).run(graph, wcc);
  const auto clean = PregelEngine(base_config<PregelConfig>()).run(graph, wcc);
  expect_same_logical_workload(lossy, clean);
  // Pregel coalesces its sends in both runs; only the lossy one plans them
  // through the live channel.
  EXPECT_GT(lossy.comm.batch_flushes, 0);
  EXPECT_GT(clean.comm.batch_flushes, 0);
  EXPECT_GT(lossy.comm.channel_plans, 0);
  EXPECT_EQ(clean.comm.channel_plans, 0);
}

TEST(LossEquivalenceTest, GasLogicalWorkloadSurvivesLoss) {
  const graph::Graph graph = make_graph();
  const algorithms::Wcc wcc;
  const auto lossy = GasEngine(lossy_config<GasConfig>()).run(graph, wcc);
  const auto clean = GasEngine(base_config<GasConfig>()).run(graph, wcc);
  expect_same_logical_workload(lossy, clean);
  // The GAS exchange is one transfer per destination at a barrier: no
  // coalescing stage, and channel plans only under loss.
  EXPECT_GT(lossy.comm.channel_plans, 0);
  EXPECT_EQ(clean.comm.channel_plans, 0);
  EXPECT_EQ(lossy.comm.batch_flushes, 0);
  EXPECT_EQ(clean.comm.batch_flushes, 0);
}

}  // namespace
}  // namespace g10::engine
