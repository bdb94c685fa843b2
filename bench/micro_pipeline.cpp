// Thread-scaling micro-benchmarks of the two parallelized paths: the full
// characterization pipeline (demand -> attribution -> bottlenecks -> issues)
// and chunked log ingestion. Each benchmark runs at 1/2/4/8 threads via the
// config/ParseOptions knob, so the speedup curve — and the serial baseline —
// is read off one report. Results are bit-identical across the thread axis
// (enforced by pipeline_determinism_test); only the time should move.
#include <benchmark/benchmark.h>

#include <sstream>

#include "algorithms/programs.hpp"
#include "grade10/pipeline.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "trace/log_io.hpp"
#include "workload/workload.hpp"

namespace g10::core {
namespace {

struct Workload {
  trace::RunArtifacts artifacts;
  std::vector<trace::MonitoringSampleRecord> samples;
  FrameworkModel model;
  std::string log_text;  ///< serialized run, for the ingestion benchmarks
};

const Workload& workload() {
  static const Workload w = [] {
    graph::DatagenParams params;
    params.vertices = 4096;
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
    out.artifacts = engine.run(graph, algorithms::Cdlp(6));
    out.samples = monitor::sample_ground_truth(out.artifacts.ground_truth,
                                               20 * kMillisecond,
                                               out.artifacts.makespan);
    out.model = workload::framework_model(cfg);

    std::ostringstream os;
    trace::write_log(os, out.artifacts.phase_events,
                     out.artifacts.blocking_events, out.samples);
    out.log_text = os.str();
    return out;
  }();
  return w;
}

void BM_Characterize(benchmark::State& state) {
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
  input.config.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    auto result = characterize(input);
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<int64_t>(w.artifacts.phase_events.size()));
}
BENCHMARK(BM_Characterize)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParseLog(benchmark::State& state) {
  const Workload& w = workload();
  trace::ParseOptions options;
  options.recover = true;
  options.threads = static_cast<int>(state.range(0));
  options.min_chunk_bytes = 1 << 16;  // the bench log is a few MB
  for (auto _ : state) {
    auto result = trace::parse_log_text(w.log_text, options);
    benchmark::DoNotOptimize(result);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(w.log_text.size()));
}
BENCHMARK(BM_ParseLog)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_WriteLog(benchmark::State& state) {
  // The serial writer, exercised because ingestion benchmarks depend on its
  // output format; to_chars formatting shows up here.
  const Workload& w = workload();
  for (auto _ : state) {
    std::ostringstream os;
    trace::write_log(os, w.artifacts.phase_events,
                     w.artifacts.blocking_events, w.samples);
    benchmark::DoNotOptimize(os);
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(w.log_text.size()));
}
BENCHMARK(BM_WriteLog)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace g10::core

BENCHMARK_MAIN();
