// Micro-benchmarks of the graph substrate: generator and partitioner
// throughput (edges per second).
#include <benchmark/benchmark.h>

#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace g10::graph {
namespace {

void BM_GenerateRmat(benchmark::State& state) {
  RmatParams params;
  params.scale = static_cast<int>(state.range(0));
  params.edge_factor = 16;
  for (auto _ : state) {
    auto g = generate_rmat(params);
    benchmark::DoNotOptimize(g);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(g.edge_count()));
  }
}
BENCHMARK(BM_GenerateRmat)->Arg(12)->Arg(14)->Arg(16);

void BM_GenerateDatagen(benchmark::State& state) {
  DatagenParams params;
  params.vertices = static_cast<VertexId>(1u << state.range(0));
  params.mean_degree = 16;
  for (auto _ : state) {
    auto g = generate_datagen_like(params);
    benchmark::DoNotOptimize(g);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(g.edge_count()));
  }
}
BENCHMARK(BM_GenerateDatagen)->Arg(12)->Arg(14)->Arg(16);

void BM_VertexCutGreedy(benchmark::State& state) {
  RmatParams params;
  params.scale = static_cast<int>(state.range(0));
  params.edge_factor = 16;
  const auto g = generate_rmat(params);
  g.ensure_in_index();
  for (auto _ : state) {
    auto cut = partition_vertex_cut_greedy(g, 8);
    benchmark::DoNotOptimize(cut);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(g.edge_count()));
  }
}
BENCHMARK(BM_VertexCutGreedy)->Arg(12)->Arg(14);

// Args: scale, partitions. 16 x 64 is the GAS engine's load at the
// 64-worker scale.
void BM_VertexCutHashSource(benchmark::State& state) {
  RmatParams params;
  params.scale = static_cast<int>(state.range(0));
  params.edge_factor = 16;
  const auto g = generate_rmat(params);
  g.ensure_in_index();  // the cut walks in-edges; time the cut alone
  const auto parts = static_cast<PartitionId>(state.range(1));
  for (auto _ : state) {
    auto cut = partition_vertex_cut_hash_source(g, parts);
    benchmark::DoNotOptimize(cut);
    state.SetItemsProcessed(state.items_processed() +
                            static_cast<int64_t>(g.edge_count()));
  }
}
BENCHMARK(BM_VertexCutHashSource)
    ->Args({12, 8})
    ->Args({14, 8})
    ->Args({16, 64});

void BM_EdgeCutHash(benchmark::State& state) {
  RmatParams params;
  params.scale = 14;
  params.edge_factor = 16;
  const auto g = generate_rmat(params);
  for (auto _ : state) {
    auto cut = partition_by_hash(g, static_cast<PartitionId>(state.range(0)));
    benchmark::DoNotOptimize(cut);
  }
}
BENCHMARK(BM_EdgeCutHash)->Arg(4)->Arg(16)->Arg(64);

}  // namespace
}  // namespace g10::graph

BENCHMARK_MAIN();
