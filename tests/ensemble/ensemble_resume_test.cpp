// End-to-end driver tests with a synthetic (fast, deterministic) run
// function: crash-resume byte-identity, partial-fleet degradation and
// sharding. Each report is the aggregate of a fresh journal read, as the
// supervisor renders it.
#include "ensemble/driver.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ensemble/aggregate.hpp"

namespace g10::ensemble {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("g10_ensemble_test_" + tag + "_" + std::to_string(::getpid()));
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

ScenarioMatrix test_matrix(int seeds = 12) {
  ScenarioMatrix m;
  m.engines = {"pregel", "gas"};
  m.sync_bug = true;
  m.seed_range(1, seeds);
  return m;
}

/// The fleet report over `journal`, as the supervisor renders it.
AggregateReport report_of(const ScenarioMatrix& matrix,
                          const std::string& journal) {
  return aggregate(matrix.expand(), read_journal(journal));
}

/// Deterministic synthetic runner: the report is a pure function of the
/// scenario, like the real engine+analysis under a fixed seed.
RunAttempt synthetic_run(const Scenario& scenario) {
  RunAttempt attempt;
  attempt.outcome = RunOutcome::kOk;
  attempt.report.makespan_seconds =
      0.5 + 0.01 * static_cast<double>(scenario.seed) +
      (scenario.engine == "gas" ? 0.25 : 0.0);
  attempt.report.sync_bug_rediscovered =
      scenario.engine == "gas" && scenario.seed % 3 != 0;
  attempt.report.issues.push_back(
      {"imbalance:GatherThread", 0.01 * static_cast<double>(scenario.seed)});
  attempt.report.phase_bottlenecks.push_back(
      {"GatherStep", scenario.seed % 2 == 0 ? "cpu" : "network", 0.125});
  return attempt;
}

TEST(EnsembleDriverTest, RunsEverythingAndAggregates) {
  const TempDir dir("full");
  EnsembleOptions options;
  options.journal_path = dir.file("journal.jsonl");
  const EnsembleOutcome outcome =
      run_ensemble(test_matrix(), synthetic_run, options);
  EXPECT_EQ(outcome.executed, 24u);
  EXPECT_EQ(outcome.reused, 0u);
  EXPECT_EQ(outcome.remaining, 0u);
  const AggregateReport report =
      report_of(test_matrix(), options.journal_path);
  EXPECT_EQ(report.ok, 24u);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  // gas runs with seed % 3 != 0: seeds 1..12 -> 8 of the 12 gas runs.
  EXPECT_EQ(report.sync_bug.hits, 8u);
  EXPECT_EQ(report.sync_bug.trials, 12u);
}

TEST(EnsembleDriverTest, ResumeAfterKillIsByteIdentical) {
  const TempDir dir("resume");

  // The uninterrupted reference fleet.
  EnsembleOptions full;
  full.journal_path = dir.file("full.jsonl");
  run_ensemble(test_matrix(), synthetic_run, full);
  const AggregateReport reference =
      report_of(test_matrix(), full.journal_path);

  // The "crashed" fleet: one shard of three ran, then a torn final line
  // simulates a kill -9 mid-append.
  EnsembleOptions part;
  part.journal_path = dir.file("part.jsonl");
  part.shard_count = 3;
  const EnsembleOutcome first =
      run_ensemble(test_matrix(), synthetic_run, part);
  EXPECT_GT(first.executed, 0u);
  EXPECT_LT(first.executed, 24u);
  EXPECT_EQ(first.executed + first.remaining, 24u);
  const AggregateReport partial = report_of(test_matrix(), part.journal_path);
  EXPECT_EQ(partial.missing, first.remaining);
  EXPECT_LT(partial.coverage, 1.0);
  {
    std::ofstream torn(part.journal_path, std::ios::app | std::ios::binary);
    torn << "{\"key\":\"00";  // the write the crash interrupted
  }

  EnsembleOptions resume;
  resume.journal_path = part.journal_path;
  const EnsembleOutcome second =
      run_ensemble(test_matrix(), synthetic_run, resume);
  EXPECT_EQ(second.reused, first.executed);
  EXPECT_EQ(second.executed, first.remaining);
  const AggregateReport resumed = report_of(test_matrix(), part.journal_path);
  EXPECT_EQ(resumed.ok, 24u);
  EXPECT_EQ(resumed.dropped_lines, 1u);  // the torn line, skipped

  // The aggregate (minus the journal-hygiene counters, which legitimately
  // differ) is byte-identical: same JSON for the distributional body.
  const std::string ref_json = render_json(reference);
  const std::string res_json = render_json(resumed);
  const auto strip_journal = [](std::string text) {
    const auto begin = text.find("\"journal\":{");
    const auto end = text.find('}', begin);
    return text.erase(begin, end - begin + 1);
  };
  EXPECT_EQ(strip_journal(ref_json), strip_journal(res_json));

  // And a resume of an already-complete fleet recomputes nothing and
  // renders the exact same bytes end to end.
  const EnsembleOutcome third =
      run_ensemble(test_matrix(), synthetic_run, resume);
  EXPECT_EQ(third.executed, 0u);
  EXPECT_EQ(third.reused, 24u);
  const AggregateReport again = report_of(test_matrix(), part.journal_path);
  EXPECT_EQ(render_json(again), res_json);
  EXPECT_EQ(render_text(again), render_text(resumed));
}

TEST(EnsembleDriverTest, FailuresDegradeCoverageInsteadOfAborting) {
  const TempDir dir("degraded");
  EnsembleOptions options;
  options.journal_path = dir.file("journal.jsonl");
  const auto flaky = [](const Scenario& scenario) -> RunAttempt {
    if (scenario.seed % 4 == 0) throw std::runtime_error("engine crashed");
    if (scenario.seed % 4 == 1) {
      RunAttempt a;
      a.outcome = RunOutcome::kAnalysisFailed;
      a.error = "damaged trace";
      return a;
    }
    return synthetic_run(scenario);
  };
  const EnsembleOutcome outcome =
      run_ensemble(test_matrix(), flaky, options);
  EXPECT_EQ(outcome.executed, 24u);
  const AggregateReport report =
      report_of(test_matrix(), options.journal_path);
  EXPECT_EQ(report.run_failed, 6u);       // seeds 4,8,12 x 2 engines
  EXPECT_EQ(report.analysis_failed, 6u);  // seeds 1,5,9 x 2 engines
  EXPECT_EQ(report.ok, 12u);
  EXPECT_DOUBLE_EQ(report.coverage, 0.5);
  // The distributional stats cover exactly the ok runs.
  EXPECT_EQ(report.makespan_seconds.count, 12u);
  // Rediscovery trials are the ok gas runs: seeds 2,3,6,7,10,11.
  EXPECT_EQ(report.sync_bug.trials, 6u);
}

TEST(EnsembleDriverTest, JournaledOutcomePreservesAttemptsAndError) {
  const TempDir dir("forensics");
  EnsembleOptions options;
  options.journal_path = dir.file("journal.jsonl");
  ScenarioMatrix m = test_matrix(1);
  m.engines = {"pregel"};
  const auto broken = [](const Scenario&) -> RunAttempt {
    throw std::runtime_error("persistent failure");
  };
  run_ensemble(m, broken, options);
  const JournalReplay replay = read_journal(options.journal_path);
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(replay.entries[0].outcome, RunOutcome::kRunFailed);
  // Engine runs are deterministic: a throwing run is not retried.
  EXPECT_EQ(replay.entries[0].attempts, 1);
  EXPECT_EQ(replay.entries[0].error, "persistent failure");
  EXPECT_GE(replay.entries[0].wall_ms, 0.0);
}

TEST(EnsembleDriverTest, ShardsPartitionPendingAndUnionIsByteIdentical) {
  const TempDir dir("shards");

  EnsembleOptions reference;
  reference.journal_path = dir.file("reference.jsonl");
  run_ensemble(test_matrix(), synthetic_run, reference);
  const AggregateReport ref =
      report_of(test_matrix(), reference.journal_path);

  // Three shard invocations against one shared journal — the multi-process
  // fan-out's access pattern, here in one process. Shards are disjoint and
  // exhaustive by construction (hash % shard_count), so executed counts sum
  // to the fleet and the final aggregate is byte-identical.
  constexpr std::size_t kShards = 3;
  std::size_t executed_total = 0;
  for (std::size_t shard = 0; shard < kShards; ++shard) {
    EnsembleOptions options;
    options.journal_path = dir.file("sharded.jsonl");
    options.shard_count = kShards;
    options.shard_index = shard;
    executed_total +=
        run_ensemble(test_matrix(), synthetic_run, options).executed;
  }
  EXPECT_EQ(executed_total, 24u);
  const AggregateReport last =
      report_of(test_matrix(), dir.file("sharded.jsonl"));
  EXPECT_EQ(last.ok, 24u);
  EXPECT_EQ(render_json(last), render_json(ref));
  EXPECT_EQ(render_text(last), render_text(ref));
}

TEST(EnsembleDriverTest, ShardIndexOutOfRangeIsRefused) {
  const TempDir dir("shard_range");
  EnsembleOptions options;
  options.journal_path = dir.file("journal.jsonl");
  options.shard_count = 2;
  options.shard_index = 2;
  EXPECT_THROW(run_ensemble(test_matrix(), synthetic_run, options),
               CheckError);
}

TEST(EnsembleDriverTest, DeferredKeysRunAfterTheHealthyRest) {
  const TempDir dir("defer");
  const std::vector<Scenario> scenarios = test_matrix().expand();
  // Defer two scenarios from the middle of the queue (the supervisor does
  // this for scenarios that crashed a worker).
  const std::uint64_t suspect_a = scenarios[3].hash();
  const std::uint64_t suspect_b = scenarios[10].hash();

  EnsembleOptions options;
  options.journal_path = dir.file("journal.jsonl");
  options.defer_keys = {suspect_a, suspect_b};
  std::vector<std::uint64_t> order;
  options.on_start = [&order](const Scenario& s) {
    order.push_back(s.hash());
  };
  const EnsembleOutcome outcome =
      run_ensemble(test_matrix(), synthetic_run, options);
  EXPECT_EQ(outcome.executed, 24u);
  ASSERT_EQ(order.size(), 24u);
  // The two suspects are the final two starts, in their original relative
  // order; everyone else keeps theirs too (stable partition).
  EXPECT_EQ(order[22], suspect_a);
  EXPECT_EQ(order[23], suspect_b);
}

}  // namespace
}  // namespace g10::ensemble
