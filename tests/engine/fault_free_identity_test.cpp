// Regression: the fault-tolerance substrate must be a strict no-op when no
// faults are injected. Attaching an empty FaultSpec — and turning every
// retry / heartbeat / checkpoint knob — must leave the serialized trace of
// both engines byte-identical to a plain run, at any thread count. If the
// reliable channel, failure detector, or checkpoint scheduling ever engages
// on a fault-free run (extra RNG draws, reordered records, spurious
// phases), this test catches it at the byte level.
#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "algorithms/programs.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "graph/generators.hpp"
#include "sim/fault_injector.hpp"
#include "trace/log_io.hpp"

namespace g10::engine {
namespace {

graph::Graph make_graph() {
  graph::DatagenParams params;
  params.vertices = 512;
  params.mean_degree = 8;
  params.seed = 11;
  return generate_datagen_like(params);
}

std::string pregel_log(const PregelConfig& cfg, const graph::Graph& graph) {
  const auto artifacts =
      PregelEngine(cfg).run(graph, algorithms::PageRank(5));
  std::ostringstream os;
  trace::write_log(os, artifacts.phase_events, artifacts.blocking_events, {});
  return os.str();
}

std::string gas_log(const GasConfig& cfg, const graph::Graph& graph) {
  const auto artifacts = GasEngine(cfg).run(graph, algorithms::PageRank(5));
  std::ostringstream os;
  trace::write_log(os, artifacts.phase_events, artifacts.blocking_events, {});
  return os.str();
}

/// Attaches an empty spec and moves every fault-tolerance knob away from
/// its default; none of it may matter without fault events.
template <typename Config>
Config with_idle_fault_machinery(Config cfg) {
  cfg.cluster.faults = sim::FaultSpec{};
  cfg.retry.timeout_seconds = 0.5;
  cfg.retry.backoff = 3.0;
  cfg.retry.max_attempts = 9;
  cfg.heartbeat.interval_seconds = 0.01;
  cfg.heartbeat.timeout_seconds = 0.03;
  cfg.checkpoint.interval_steps = 2;
  cfg.crash_log = CrashLogStyle::kTruncated;
  return cfg;
}

TEST(FaultFreeIdentityTest, PregelTraceIsByteIdentical) {
  const graph::Graph graph = make_graph();
  for (const int threads : {1, 2, 8}) {
    PregelConfig cfg;
    cfg.cluster.machine_count = 3;
    cfg.cluster.machine.cores = 8;
    cfg.threads_per_worker = threads;
    cfg.seed = 99;
    const std::string reference = pregel_log(cfg, graph);
    EXPECT_EQ(pregel_log(with_idle_fault_machinery(cfg), graph), reference)
        << "threads_per_worker=" << threads;
  }
}

TEST(FaultFreeIdentityTest, GasTraceIsByteIdentical) {
  const graph::Graph graph = make_graph();
  for (const int threads : {1, 2, 8}) {
    GasConfig cfg;
    cfg.cluster.machine_count = 3;
    cfg.cluster.machine.cores = 8;
    cfg.threads_per_worker = threads;
    cfg.seed = 99;
    const std::string reference = gas_log(cfg, graph);
    EXPECT_EQ(gas_log(with_idle_fault_machinery(cfg), graph), reference)
        << "threads_per_worker=" << threads;
  }
}

// Determinism sweep for the delivery schedule: running the same
// configuration twice must reproduce the trace byte-for-byte at every thread
// count (Pregel's coalescing buffers introduce no hidden run-to-run state).
TEST(FaultFreeIdentityTest, PregelBatchedTraceIsReproducible) {
  const graph::Graph graph = make_graph();
  for (const int threads : {1, 2, 8}) {
    PregelConfig cfg;
    cfg.cluster.machine_count = 3;
    cfg.cluster.machine.cores = 8;
    cfg.threads_per_worker = threads;
    cfg.seed = 99;
    const std::string reference = pregel_log(cfg, graph);
    EXPECT_EQ(pregel_log(cfg, graph), reference)
        << "threads_per_worker=" << threads;
  }
}

TEST(FaultFreeIdentityTest, GasBatchedTraceIsReproducible) {
  const graph::Graph graph = make_graph();
  for (const int threads : {1, 2, 8}) {
    GasConfig cfg;
    cfg.cluster.machine_count = 3;
    cfg.cluster.machine.cores = 8;
    cfg.threads_per_worker = threads;
    cfg.seed = 99;
    const std::string reference = gas_log(cfg, graph);
    EXPECT_EQ(gas_log(cfg, graph), reference)
        << "threads_per_worker=" << threads;
  }
}

}  // namespace
}  // namespace g10::engine
