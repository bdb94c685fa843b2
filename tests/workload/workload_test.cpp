// The run recipe against its two production callers: workload::run
// reproduces g10_run's dump byte for byte, and the ensemble runner built on
// it reports fault recovery and never a rediscovery it did not inject.
#include "workload/workload.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>

#include "ensemble/run_grade10.hpp"
#include "grade10/model/model_io.hpp"
#include "graph/generators.hpp"
#include "trace/g10t_io.hpp"
#include "trace/log_io.hpp"

namespace g10::workload {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Runs g10_run with `flags` into a fresh directory, writing both trace
/// formats; returns the directory. Its stdout lands in <dir>/stdout.txt.
std::string run_cli(const std::string& tag, const std::string& flags) {
  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("g10_workload_test_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string command = std::string(G10_RUN_BIN) + flags +
                              " --trace-format both --out " + dir.string() +
                              " > " +
                              (dir / "stdout.txt").string() + " 2>&1";
  EXPECT_EQ(std::system(command.c_str()), 0) << command;
  return dir.string();
}

sim::FaultSpec faults(const std::string& text) {
  const auto parsed = sim::FaultSpec::parse(text);
  EXPECT_TRUE(parsed.has_value()) << text;
  return parsed.value_or(sim::FaultSpec{});
}

graph::Graph rmat8() {
  return graph::generate_dataset(graph::parse_dataset("rmat:8"));
}

/// The recipe's run, rendered as records and serialized by the record
/// writers, equals what g10_run writes from the hand-over into both trace
/// files.
void expect_matches_cli(const Spec& spec, const std::string& dir) {
  Result run = workload::run(spec, rmat8());
  run.log.meta = {{"faults", spec.faults.to_string()}};
  const trace::ParsedLog rendered = trace::render_log(run.log);
  std::ostringstream log;
  trace::write_log(log, rendered.phase_events, rendered.blocking_events,
                   rendered.samples, rendered.meta);
  EXPECT_EQ(log.str(), slurp(dir + "/run.log"));
  std::ostringstream g10t;
  trace::write_g10t(g10t, rendered);
  EXPECT_EQ(g10t.str(), slurp(dir + "/run.g10t"));
  std::ostringstream model;
  core::write_model(model, run.model.execution, run.model.resources,
                    run.model.tuned_rules);
  EXPECT_EQ(model.str(), slurp(dir + "/model.g10"));
}

TEST(WorkloadTest, PregelDropRunEqualsCli) {
  const std::string dir =
      run_cli("pregel", " --engine pregel --algorithm pagerank"
                        " --dataset rmat:8 --iterations 5 --monitor-ms 10"
                        " --faults drop:w1@20%+30%");
  Spec spec;
  spec.engine = "pregel";
  spec.algorithm = "pagerank";
  spec.iterations = 5;
  spec.monitor_interval = 10 * kMillisecond;
  spec.faults = faults("drop:w1@20%+30%");
  expect_matches_cli(spec, dir);

  const Result run = workload::run(spec, rmat8());
  EXPECT_GT(run.dropped_samples, 0u);
  const std::string line =
      "sampler dropout: " + std::to_string(run.dropped_samples) + " of " +
      std::to_string(run.log.samples.size() + run.dropped_samples) +
      " samples lost\n";
  EXPECT_NE(slurp(dir + "/stdout.txt").find(line), std::string::npos)
      << line;
  std::filesystem::remove_all(dir);
}

TEST(WorkloadTest, GasSsspSyncBugCrashRunEqualsCli) {
  const std::string dir =
      run_cli("gas", " --engine gas --algorithm sssp --dataset rmat:8"
                     " --iterations 5 --sync-bug --faults crash:w2@40%");
  Spec spec;
  spec.engine = "gas";
  spec.algorithm = "sssp";
  spec.iterations = 5;
  spec.sync_bug = true;
  spec.faults = faults("crash:w2@40%");
  expect_matches_cli(spec, dir);
  std::filesystem::remove_all(dir);
}

ensemble::RunAttempt run_scenario(const ensemble::Scenario& scenario) {
  return ensemble::make_grade10_runner()(scenario);
}

ensemble::Scenario gas_scenario(std::uint64_t seed) {
  ensemble::Scenario scenario;
  scenario.engine = "gas";
  scenario.dataset = "rmat:8";
  scenario.iterations = 5;
  scenario.seed = seed;
  return scenario;
}

TEST(EnsembleRunnerTest, GasCrashRecovers) {
  ensemble::Scenario scenario = gas_scenario(1);
  scenario.faults = faults("crash:w1@40%");
  const ensemble::RunAttempt attempt = run_scenario(scenario);
  ASSERT_EQ(attempt.outcome, ensemble::RunOutcome::kOk) << attempt.error;
  bool recovered = false;
  for (const auto& issue : attempt.report.issues) {
    if (issue.label == "fault-recovery") recovered = true;
  }
  EXPECT_TRUE(recovered);
}

TEST(EnsembleRunnerTest, NoRediscoveryWithoutTheBug) {
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const ensemble::RunAttempt attempt = run_scenario(gas_scenario(seed));
    ASSERT_EQ(attempt.outcome, ensemble::RunOutcome::kOk) << attempt.error;
    EXPECT_FALSE(attempt.report.sync_bug_rediscovered) << "seed " << seed;
  }
}

}  // namespace
}  // namespace g10::workload
