// Trace-ingestion micro-benchmarks: text parse vs `.g10t` binary ingest,
// and index-seek filtered reads vs full scans. Results are bit-identical
// across every path — trace_reader_test and trace_format_pipeline_test pin
// that; this file only measures the time.
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "algorithms/programs.hpp"
#include "engine/pregel/pregel_engine.hpp"
#include "graph/generators.hpp"
#include "monitor/sampler.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"
#include "trace/trace_reader.hpp"

namespace g10::trace {
namespace {

struct Workload {
  std::string text_path;
  std::string binary_path;
  std::size_t records = 0;
  TimeNs makespan = 0;
};

/// One engine run serialized to both formats in a temp directory.
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
    const RunArtifacts artifacts = engine.run(graph, algorithms::Cdlp(6));
    const auto samples = monitor::sample_ground_truth(
        artifacts.ground_truth, 5 * kMillisecond, artifacts.makespan);

    const auto root = std::filesystem::temp_directory_path() /
                      ("g10_micro_trace_io_" + std::to_string(::getpid()));
    std::filesystem::create_directories(root);

    Workload out;
    out.text_path = (root / "run.log").string();
    out.binary_path = (root / "run.g10t").string();
    out.records = artifacts.phase_events.size() +
                  artifacts.blocking_events.size() + samples.size();
    out.makespan = artifacts.makespan;
    {
      std::ofstream log(out.text_path);
      write_log(log, artifacts.phase_events, artifacts.blocking_events,
                samples);
    }
    ParsedLog log;
    log.phase_events = artifacts.phase_events;
    log.blocking_events = artifacts.blocking_events;
    log.samples = samples;
    // Small blocks so the seek benchmarks operate on dozens of blocks
    // instead of a handful of huge ones.
    G10tWriteOptions g10t;
    g10t.block_records = 256;
    std::string error;
    write_g10t_file(out.binary_path, log, g10t, &error);
    return out;
  }();
  return w;
}

void set_throughput(benchmark::State& state) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(workload().records));
}

/// Re-parsing the text log every time — what every analysis paid before
/// the binary format existed.
void BM_TextParse(benchmark::State& state) {
  const Workload& w = workload();
  TraceReadOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ParseResult result = read_trace_file(w.text_path, options);
    benchmark::DoNotOptimize(result);
  }
  set_throughput(state);
}

/// Binary ingest: every block is decoded from the mapped file (the
/// convert-then-analyze-once cost).
void BM_BinaryColdIngest(benchmark::State& state) {
  const Workload& w = workload();
  TraceReadOptions options;
  options.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    ParseResult result = read_trace_file(w.binary_path, options);
    benchmark::DoNotOptimize(result);
  }
  set_throughput(state);
}

/// Index-seek: a narrow time window admits only a few blocks; the rest are
/// rejected from the index without touching their payloads.
void BM_BinaryFilteredSeek(benchmark::State& state) {
  const Workload& w = workload();
  TraceFilter filter;
  filter.time_min = 0;
  filter.time_max = w.makespan / 64;
  for (auto _ : state) {
    ParseResult result = read_trace_file(w.binary_path, {}, filter);
    benchmark::DoNotOptimize(result);
  }
  TraceReader::OpenResult opened = TraceReader::open(w.binary_path, {});
  ParseResult probe = opened.reader->read(filter);
  benchmark::DoNotOptimize(probe);
  const TraceReadStats stats = opened.reader->stats();
  state.counters["blocks_total"] = static_cast<double>(stats.blocks_total);
  state.counters["blocks_skipped"] =
      static_cast<double>(stats.blocks_skipped);
}

/// The same filtered query against the text log parses everything and
/// discards most of it — the full-scan baseline BM_BinaryFilteredSeek beats.
void BM_TextFilteredScan(benchmark::State& state) {
  const Workload& w = workload();
  TraceFilter filter;
  filter.time_min = 0;
  filter.time_max = w.makespan / 64;
  for (auto _ : state) {
    ParseResult result = read_trace_file(w.text_path, {}, filter);
    benchmark::DoNotOptimize(result);
  }
}

BENCHMARK(BM_TextParse)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BinaryColdIngest)->Arg(1)->Arg(4)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_BinaryFilteredSeek)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_TextFilteredScan)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace g10::trace

BENCHMARK_MAIN();
