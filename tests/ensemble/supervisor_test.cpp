// Supervision-loop tests with fake /bin/sh workers: crash attribution and
// containment, retry/crash budgets, wedge escalation, shutdown semantics,
// and the no-progress respawn cap. The fake workers speak the real status
// protocol over fd 3 and consult the real journal, so every path through
// run_supervised is exercised without engine costs.
#include "ensemble/supervisor.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "ensemble/driver.hpp"
#include "ensemble/journal.hpp"

namespace g10::ensemble {
namespace {

class TempDir {
 public:
  explicit TempDir(const std::string& tag) {
    path_ = std::filesystem::temp_directory_path() /
            ("g10_supervisor_test_" + tag + "_" + std::to_string(::getpid()));
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

ScenarioMatrix test_matrix(int seeds = 4) {
  ScenarioMatrix m;
  m.engines = {"pregel"};
  m.seed_range(1, seeds);
  return m;
}

/// Options preset with fast timings so the tests run in milliseconds.
SupervisorOptions fast_options(const std::string& journal_path) {
  SupervisorOptions options;
  options.journal_path = journal_path;
  options.jobs = 1;
  options.backoff_initial_s = 0.01;
  options.backoff_max_s = 0.05;
  options.kill_grace_s = 0.2;
  return options;
}

/// Worker command builder that always runs the same shell script,
/// regardless of shard (tests use matrices small enough to reason about).
std::function<std::vector<std::string>(std::size_t, int,
                                       const std::vector<std::uint64_t>&)>
sh_worker(const std::string& script) {
  return [script](std::size_t, int, const std::vector<std::uint64_t>&) {
    return std::vector<std::string>{"/bin/sh", "-c", script};
  };
}

/// "Crash once per attempt" worker: exits cleanly once the scenario is
/// settled in the journal, otherwise announces the scenario and dies.
std::string crashing_script(const std::string& journal,
                            const std::string& key_hex,
                            const std::string& death) {
  return "grep -q " + key_hex + " " + journal + " 2>/dev/null && exit 0; " +
         "printf 'start " + key_hex + "\\n' >&3; " + death;
}

TEST(SupervisorTest, CleanWorkersFinishTheFleet) {
  const TempDir dir("clean");
  const ScenarioMatrix matrix = test_matrix(8);
  SupervisorOptions options = fast_options(dir.file("journal.jsonl"));
  options.jobs = 2;
  options.command = sh_worker("printf 'hb\\n' >&3; exit 0");
  const SupervisorStats stats = run_supervised(matrix, options);

  std::size_t nonempty_shards = 0;
  std::vector<std::size_t> counts(options.jobs, 0);
  for (const Scenario& s : matrix.expand()) ++counts[s.hash() % options.jobs];
  for (const std::size_t c : counts) nonempty_shards += c > 0 ? 1 : 0;

  EXPECT_EQ(stats.spawned, nonempty_shards);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.wedges, 0u);
  EXPECT_EQ(stats.finalized, 0u);
  EXPECT_FALSE(stats.interrupted);
}

TEST(SupervisorTest, AllReusedFleetSpawnsNothing) {
  const TempDir dir("reused");
  const ScenarioMatrix matrix = test_matrix();
  // Complete the fleet with the driver first; the supervisor then has no
  // pending work and must not spawn a single process.
  EnsembleOptions driver;
  driver.journal_path = dir.file("journal.jsonl");
  run_ensemble(matrix, [](const Scenario&) {
    RunAttempt attempt;
    attempt.outcome = RunOutcome::kOk;
    return attempt;
  }, driver);

  SupervisorOptions options = fast_options(dir.file("journal.jsonl"));
  options.resume = true;
  options.command = sh_worker("exit 1");  // would count as a crash if run
  const SupervisorStats stats = run_supervised(matrix, options);
  EXPECT_EQ(stats.spawned, 0u);
  EXPECT_EQ(stats.crashes, 0u);
}

TEST(SupervisorTest, CrashIsChargedAndJournaledRunFailed) {
  const TempDir dir("crash");
  const ScenarioMatrix matrix = test_matrix();
  const std::string journal = dir.file("journal.jsonl");
  const std::uint64_t key = matrix.expand().front().hash();

  SupervisorOptions options = fast_options(journal);
  options.max_attempts = 1;
  options.command = sh_worker(
      crashing_script(journal, format_key(key), "kill -SEGV $$"));
  const SupervisorStats stats = run_supervised(matrix, options);

  EXPECT_GE(stats.crashes, 1u);
  EXPECT_EQ(stats.finalized, 1u);
  EXPECT_EQ(stats.poisoned, 0u);
  const JournalReplay replay = read_journal(journal);
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(replay.entries[0].key, key);
  EXPECT_EQ(replay.entries[0].outcome, RunOutcome::kRunFailed);
  EXPECT_EQ(replay.entries[0].attempts, 1);
  EXPECT_NE(replay.entries[0].error.find("SIGSEGV"), std::string::npos)
      << replay.entries[0].error;
}

TEST(SupervisorTest, CrashBudgetPoisonsTheScenario) {
  const TempDir dir("poison");
  const ScenarioMatrix matrix = test_matrix();
  const std::string journal = dir.file("journal.jsonl");
  const std::uint64_t key = matrix.expand().front().hash();

  SupervisorOptions options = fast_options(journal);
  options.max_attempts = 5;   // plenty of retries left...
  options.crash_budget = 2;   // ...but only two dead workers allowed
  options.command = sh_worker(
      crashing_script(journal, format_key(key), "kill -SEGV $$"));
  const SupervisorStats stats = run_supervised(matrix, options);

  EXPECT_GE(stats.crashes, 2u);
  EXPECT_EQ(stats.finalized, 1u);
  EXPECT_EQ(stats.poisoned, 1u);
  const JournalReplay replay = read_journal(journal);
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(replay.entries[0].outcome, RunOutcome::kSkipped);
  EXPECT_NE(replay.entries[0].error.find("poisonous"), std::string::npos);
  EXPECT_NE(replay.entries[0].error.find("SIGSEGV"), std::string::npos);
}

TEST(SupervisorTest, WedgedScenarioIsKilledAndJournaledTimeout) {
  const TempDir dir("wedge");
  const ScenarioMatrix matrix = test_matrix();
  const std::string journal = dir.file("journal.jsonl");
  const std::uint64_t key = matrix.expand().front().hash();

  SupervisorOptions options = fast_options(journal);
  options.max_attempts = 1;
  options.wedge_timeout_s = 0.3;
  // Heartbeats keep flowing while the "run" spins: only the per-scenario
  // wedge ceiling can reclaim this worker.
  options.command = sh_worker(crashing_script(
      journal, format_key(key),
      "while :; do printf 'hb\\n' >&3; sleep 0.05; done"));
  const SupervisorStats stats = run_supervised(matrix, options);

  EXPECT_GE(stats.wedges, 1u);
  EXPECT_EQ(stats.finalized, 1u);
  const JournalReplay replay = read_journal(journal);
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(replay.entries[0].outcome, RunOutcome::kTimeout);
  EXPECT_NE(replay.entries[0].error.find("wedged"), std::string::npos);
}

TEST(SupervisorTest, HeartbeatSilenceIsEscalated) {
  const TempDir dir("silent");
  const ScenarioMatrix matrix = test_matrix();
  const std::string journal = dir.file("journal.jsonl");
  const std::uint64_t key = matrix.expand().front().hash();

  SupervisorOptions options = fast_options(journal);
  options.max_attempts = 1;
  options.heartbeat_timeout_s = 0.3;
  options.command = sh_worker(
      crashing_script(journal, format_key(key), "sleep 30"));
  const SupervisorStats stats = run_supervised(matrix, options);

  EXPECT_GE(stats.wedges, 1u);
  const JournalReplay replay = read_journal(journal);
  ASSERT_EQ(replay.entries.size(), 1u);
  EXPECT_EQ(replay.entries[0].outcome, RunOutcome::kTimeout);
}

TEST(SupervisorTest, ShutdownTerminatesWithoutJournaling) {
  const TempDir dir("shutdown");
  const ScenarioMatrix matrix = test_matrix();
  std::atomic<bool> stop{true};  // raised before the first loop tick

  SupervisorOptions options = fast_options(dir.file("journal.jsonl"));
  options.stop = &stop;
  options.command = sh_worker(
      "printf 'start 0000000000000001\\n' >&3; "
      "while :; do printf 'hb\\n' >&3; sleep 0.05; done");
  const SupervisorStats stats = run_supervised(matrix, options);

  EXPECT_TRUE(stats.interrupted);
  EXPECT_EQ(stats.finalized, 0u);
  // Nothing journaled: the in-flight scenario stays missing (resumable).
  EXPECT_TRUE(read_journal(dir.file("journal.jsonl")).entries.empty());
}

TEST(SupervisorTest, NoProgressCrashLoopAbandonsTheShard) {
  const TempDir dir("abandon");
  const ScenarioMatrix matrix = test_matrix();

  SupervisorOptions options = fast_options(dir.file("journal.jsonl"));
  options.respawn_cap = 2;
  options.command = sh_worker("exit 3");  // cannot even start
  const SupervisorStats stats = run_supervised(matrix, options);

  EXPECT_EQ(stats.abandoned_shards, 1u);
  EXPECT_GE(stats.crashes, 2u);
  EXPECT_EQ(stats.finalized, 0u);
  EXPECT_FALSE(stats.interrupted);
}

// A worker closes its status pipe a moment before it exits. EOF must not
// be taken for a death: the clean exit counts as a finished shard.
TEST(SupervisorTest, PipeClosedBeforeCleanExitIsNotACrash) {
  const TempDir dir("eof_clean");
  SupervisorOptions options = fast_options(dir.file("journal.jsonl"));
  options.kill_grace_s = 5.0;  // far longer than the worker's last breath
  options.command = sh_worker("exec 3>&-; sleep 0.2; exit 0");
  const SupervisorStats stats = run_supervised(test_matrix(), options);

  EXPECT_EQ(stats.spawned, 1u);
  EXPECT_EQ(stats.crashes, 0u);
  EXPECT_EQ(stats.abandoned_shards, 0u);
}

// A worker that closes its status pipe and hangs is still killed once the
// grace runs out, and its death counts as a crash.
TEST(SupervisorTest, PipeClosedThenHangIsKilledAfterTheGrace) {
  const TempDir dir("eof_hang");
  SupervisorOptions options = fast_options(dir.file("journal.jsonl"));
  options.respawn_cap = 1;
  options.command = sh_worker("exec 3>&-; sleep 30");
  const auto start = std::chrono::steady_clock::now();
  const SupervisorStats stats = run_supervised(test_matrix(), options);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;

  EXPECT_EQ(stats.crashes, 1u);
  EXPECT_EQ(stats.abandoned_shards, 1u);
  EXPECT_GE(elapsed.count(), options.kill_grace_s);
  EXPECT_LT(elapsed.count(), 10.0);
}

TEST(SupervisorTest, PreconditionsThrow) {
  const TempDir dir("precond");
  const ScenarioMatrix matrix = test_matrix();
  {
    SupervisorOptions options;  // no journal path
    options.command = sh_worker("exit 0");
    EXPECT_THROW(run_supervised(matrix, options), CheckError);
  }
  {
    SupervisorOptions options = fast_options(dir.file("journal.jsonl"));
    // no command builder
    EXPECT_THROW(run_supervised(matrix, options), CheckError);
  }
}

}  // namespace
}  // namespace g10::ensemble
