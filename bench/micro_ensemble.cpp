// Throughput micro-benchmarks of the ensemble machinery, split by layer:
//   - BM_JournalAppend: fsync'd JSONL appends (the crash-safety cost).
//   - BM_SyntheticFleet: the serial shard loop's own overhead — expand,
//     run, journal — plus the supervisor's final re-read and aggregate,
//     with a near-free run function. items_per_second counts scenarios.
//   - BM_Grade10Fleet: the real engine+characterize runner on a small
//     graph, i.e. what one `g10_ensemble` worker sustains per scenario.
// Results land in bench/results/BENCH_ensemble.json.
#include <benchmark/benchmark.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>

#include "ensemble/aggregate.hpp"
#include "ensemble/driver.hpp"
#include "ensemble/run_grade10.hpp"

namespace g10::ensemble {
namespace {

std::string fresh_journal_path() {
  static std::atomic<std::uint64_t> counter{0};
  const auto dir = std::filesystem::temp_directory_path() / "g10_bench_ens";
  std::filesystem::create_directories(dir);
  return (dir / ("journal_" + std::to_string(counter.fetch_add(1)) +
                 ".jsonl"))
      .string();
}

JournalEntry bench_entry() {
  JournalEntry entry;
  entry.key = 0x1234abcd5678ef01ull;
  entry.scenario =
      "engine=gas algo=pagerank dataset=rmat:12 workers=4 cores=8 iters=10 "
      "seed=42 sync_bug=1 jitter=1x1 faults=crash:w2@40%";
  entry.outcome = RunOutcome::kOk;
  entry.attempts = 1;
  entry.wall_ms = 57.25;
  entry.report.makespan_seconds = 0.0592;
  entry.report.phase_bottlenecks.push_back({"GatherStep", "network", 0.021});
  entry.report.phase_bottlenecks.push_back({"ApplyThread", "cpu", 0.017});
  entry.report.issues.push_back({"imbalance:GatherThread", 0.081});
  entry.report.sync_bug_rediscovered = true;
  return entry;
}

void BM_JournalAppend(benchmark::State& state) {
  const std::string path = fresh_journal_path();
  const JournalEntry entry = bench_entry();
  {
    JournalWriter writer(path);
    for (auto _ : state) writer.append(entry);
  }
  state.SetItemsProcessed(state.iterations());
  std::remove(path.c_str());
}
BENCHMARK(BM_JournalAppend)->UseRealTime()->Unit(benchmark::kMicrosecond);

void BM_SyntheticFleet(benchmark::State& state) {
  ScenarioMatrix matrix;
  matrix.engines = {"pregel", "gas"};
  matrix.seed_range(1, 128);
  matrix.fault_specs.emplace_back();
  matrix.fault_specs.push_back(*sim::FaultSpec::parse("crash:w1@40%"));
  const RunFn fn = [](const Scenario& scenario) {
    RunAttempt attempt;
    attempt.outcome = RunOutcome::kOk;
    attempt.report.makespan_seconds =
        1.0 + 0.001 * static_cast<double>(scenario.seed);
    attempt.report.sync_bug_rediscovered = scenario.seed % 2 == 0;
    return attempt;
  };
  const std::size_t scenario_count = matrix.expand().size();
  for (auto _ : state) {
    EnsembleOptions options;
    options.journal_path = fresh_journal_path();
    run_ensemble(matrix, fn, options);
    benchmark::DoNotOptimize(
        aggregate(matrix.expand(), read_journal(options.journal_path))
            .coverage);
    std::remove(options.journal_path.c_str());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenario_count));
}
BENCHMARK(BM_SyntheticFleet)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void BM_Grade10Fleet(benchmark::State& state) {
  ScenarioMatrix matrix;
  matrix.engines = {"gas"};
  matrix.dataset = "rmat:8";
  matrix.workers = 2;
  matrix.cores = 2;
  matrix.iterations = 5;
  matrix.sync_bug = true;
  matrix.seed_range(1, 16);
  const RunFn fn = make_grade10_runner();
  const std::size_t scenario_count = matrix.expand().size();
  for (auto _ : state) {
    EnsembleOptions options;
    options.journal_path = fresh_journal_path();
    run_ensemble(matrix, fn, options);
    benchmark::DoNotOptimize(
        aggregate(matrix.expand(), read_journal(options.journal_path))
            .coverage);
    std::remove(options.journal_path.c_str());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(scenario_count));
}
BENCHMARK(BM_Grade10Fleet)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace g10::ensemble

BENCHMARK_MAIN();
