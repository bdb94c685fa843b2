// Micro-benchmarks of the simulated engines themselves: how fast the
// discrete-event substrate executes workloads (simulated edges processed
// per wall-clock second), which bounds how large an experiment the
// reproduction can drive.
#include <benchmark/benchmark.h>

#include "algorithms/programs.hpp"
#include "engine/gas/gas_engine.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "graph/generators.hpp"

namespace g10::engine {
namespace {

graph::Graph bench_graph(int scale) {
  graph::RmatParams params;
  params.scale = scale;
  params.edge_factor = 16;
  params.seed = 4;
  return generate_rmat(params);
}

void BM_PregelPageRank(benchmark::State& state) {
  const auto graph = bench_graph(static_cast<int>(state.range(0)));
  PregelConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  const PregelEngine engine(cfg);
  const algorithms::PageRank pagerank(5);
  for (auto _ : state) {
    auto result = engine.run(graph, pagerank);
    benchmark::DoNotOptimize(result);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(graph.edge_count()) * 5);
  }
  state.counters["edges"] = static_cast<double>(graph.edge_count());
}
BENCHMARK(BM_PregelPageRank)->Arg(12)->Arg(14);

void BM_GasPageRank(benchmark::State& state) {
  const auto graph = bench_graph(static_cast<int>(state.range(0)));
  GasConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  const GasEngine engine(cfg);
  const algorithms::PageRank pagerank(5);
  for (auto _ : state) {
    auto result = engine.run(graph, pagerank);
    benchmark::DoNotOptimize(result);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(graph.edge_count()) * 5);
  }
}
BENCHMARK(BM_GasPageRank)->Arg(12)->Arg(14);

void BM_PregelCdlp(benchmark::State& state) {
  // CDLP has no combiner: per-vertex message lists are the stress case.
  const auto graph = bench_graph(12);
  PregelConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  const PregelEngine engine(cfg);
  const algorithms::Cdlp cdlp(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    auto result = engine.run(graph, cdlp);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_PregelCdlp)->Arg(2)->Arg(8);

void BM_DeliveryPath(benchmark::State& state) {
  // Pregel message-delivery hot path (coalesced sends): combiner=0 runs
  // PageRank (kSum, the combined-value fast lane), combiner=1 runs CDLP
  // (kNone, the message arena).
  const auto graph = bench_graph(12);
  PregelConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  const PregelEngine engine(cfg);
  const algorithms::PageRank pagerank(3);
  const algorithms::Cdlp cdlp(3);
  for (auto _ : state) {
    auto result = state.range(0) == 0 ? engine.run(graph, pagerank)
                                      : engine.run(graph, cdlp);
    benchmark::DoNotOptimize(result);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(graph.edge_count()) * 3);
  }
}
BENCHMARK(BM_DeliveryPath)->Arg(0)->Arg(1)->ArgName("combiner");

void BM_GasDeliveryPath(benchmark::State& state) {
  // GAS exchange path: one transfer per destination at the barrier.
  const auto graph = bench_graph(12);
  GasConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  const GasEngine engine(cfg);
  const algorithms::PageRank pagerank(3);
  for (auto _ : state) {
    auto result = engine.run(graph, pagerank);
    benchmark::DoNotOptimize(result);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(graph.edge_count()) * 3);
  }
}
BENCHMARK(BM_GasDeliveryPath);

void BM_GasSsspWeighted(benchmark::State& state) {
  auto graph = bench_graph(12);
  graph::assign_random_weights(graph, 1.0, 10.0, 7);
  GasConfig cfg;
  cfg.cluster.machine_count = 4;
  cfg.cluster.machine.cores = 8;
  const GasEngine engine(cfg);
  const algorithms::Sssp sssp(1);
  for (auto _ : state) {
    auto result = engine.run(graph, sssp);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_GasSsspWeighted);

}  // namespace
}  // namespace g10::engine

BENCHMARK_MAIN();
