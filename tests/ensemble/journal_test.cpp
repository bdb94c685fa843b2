#include "ensemble/journal.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "common/check.hpp"

namespace g10::ensemble {
namespace {

JournalEntry sample_entry(std::uint64_t key = 0xdeadbeefcafef00dull) {
  JournalEntry entry;
  entry.key = key;
  entry.scenario = "engine=gas algo=pagerank seed=7 faults=crash:w2@40%";
  entry.outcome = RunOutcome::kOk;
  entry.attempts = 2;
  entry.wall_ms = 12.75;
  entry.report.makespan_seconds = 1.0 / 3.0;
  entry.report.phase_bottlenecks.push_back({"GatherStep", "network", 0.125});
  entry.report.phase_bottlenecks.push_back({"ApplyThread", "cpu", 0.5});
  entry.report.issues.push_back({"imbalance:GatherThread", 0.18});
  entry.report.sync_bug_rediscovered = true;
  return entry;
}

class TempDir {
 public:
  TempDir() {
    path_ = std::filesystem::temp_directory_path() /
            ("g10_journal_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(path_);
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  std::string file(const std::string& name) const {
    return (path_ / name).string();
  }

 private:
  std::filesystem::path path_;
};

TEST(OutcomeNameTest, RoundTripsEveryOutcome) {
  for (const RunOutcome outcome :
       {RunOutcome::kOk, RunOutcome::kTimeout, RunOutcome::kRunFailed,
        RunOutcome::kAnalysisFailed, RunOutcome::kSkipped}) {
    const auto parsed = parse_outcome(outcome_name(outcome));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, outcome);
  }
  EXPECT_FALSE(parse_outcome("exploded").has_value());
}

TEST(JournalLineTest, RoundTripsExactly) {
  const JournalEntry entry = sample_entry();
  const std::string line = journal_line(entry);
  EXPECT_EQ(line.find('\n'), std::string::npos);
  const auto parsed = parse_journal_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->key, entry.key);
  EXPECT_EQ(parsed->scenario, entry.scenario);
  EXPECT_EQ(parsed->outcome, entry.outcome);
  EXPECT_EQ(parsed->attempts, entry.attempts);
  EXPECT_DOUBLE_EQ(parsed->wall_ms, entry.wall_ms);
  // Doubles survive bit-exactly (shortest-round-trip rendering): the
  // re-serialized line is byte-identical.
  EXPECT_EQ(parsed->report.makespan_seconds, entry.report.makespan_seconds);
  EXPECT_EQ(journal_line(*parsed), line);
  ASSERT_EQ(parsed->report.phase_bottlenecks.size(), 2u);
  EXPECT_EQ(parsed->report.phase_bottlenecks[0].phase, "GatherStep");
  EXPECT_EQ(parsed->report.phase_bottlenecks[0].resource, "network");
  ASSERT_EQ(parsed->report.issues.size(), 1u);
  EXPECT_EQ(parsed->report.issues[0].label, "imbalance:GatherThread");
  EXPECT_TRUE(parsed->report.sync_bug_rediscovered);
}

TEST(JournalLineTest, FailureEntryCarriesTheError) {
  JournalEntry entry;
  entry.key = 1;
  entry.scenario = "seed=1";
  entry.outcome = RunOutcome::kTimeout;
  entry.attempts = 3;
  entry.error = "deadline exceeded";
  const auto parsed = parse_journal_line(journal_line(entry));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->outcome, RunOutcome::kTimeout);
  EXPECT_EQ(parsed->error, "deadline exceeded");
}

TEST(JournalLineTest, RejectsDamagedLines) {
  const std::string line = journal_line(sample_entry());
  std::string error;
  // Torn tails: every strict prefix must fail to parse, never mis-parse.
  for (std::size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(parse_journal_line(line.substr(0, len), &error).has_value())
        << "prefix of length " << len << " parsed";
  }
  EXPECT_FALSE(parse_journal_line("{}", &error).has_value());
  EXPECT_FALSE(
      parse_journal_line("{\"key\":\"zz\",\"scenario\":\"s\"}", &error)
          .has_value());
  EXPECT_FALSE(parse_journal_line(
                   "{\"key\":\"0000000000000001\",\"scenario\":\"s\","
                   "\"outcome\":\"nope\",\"report\":{}}",
                   &error)
                   .has_value());
}

TEST(JournalWriterTest, AppendsAndReadsBack) {
  const TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  {
    JournalWriter writer(path);
    writer.append(sample_entry(1));
    writer.append(sample_entry(2));
  }
  {
    JournalWriter writer(path);  // reopen appends, never truncates
    writer.append(sample_entry(3));
  }
  const JournalReplay replay = read_journal(path);
  EXPECT_EQ(replay.dropped_lines, 0u);
  ASSERT_EQ(replay.entries.size(), 3u);
  EXPECT_EQ(replay.entries[0].key, 1u);
  EXPECT_EQ(replay.entries[1].key, 2u);
  EXPECT_EQ(replay.entries[2].key, 3u);
}

TEST(JournalWriterTest, MissingDirectoryIsAnError) {
  EXPECT_THROW(JournalWriter("/nonexistent-dir-g10/journal.jsonl"),
               CheckError);
}

TEST(ReadJournalTest, MissingFileIsEmpty) {
  const JournalReplay replay = read_journal("/tmp/g10-does-not-exist.jsonl");
  EXPECT_TRUE(replay.entries.empty());
  EXPECT_EQ(replay.dropped_lines, 0u);
}

TEST(ReadJournalTest, TornFinalLineIsDroppedNotFatal) {
  const TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  {
    JournalWriter writer(path);
    writer.append(sample_entry(1));
    writer.append(sample_entry(2));
  }
  // Simulate a kill -9 mid-write: append half a line, no newline.
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << journal_line(sample_entry(3)).substr(0, 40);
  }
  const JournalReplay replay = read_journal(path);
  ASSERT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.dropped_lines, 1u);
  EXPECT_EQ(replay.entries[0].key, 1u);
  EXPECT_EQ(replay.entries[1].key, 2u);
}

TEST(JournalWriterTest, ReopenAfterTornLineHealsTheTail) {
  const TempDir dir;
  const std::string path = dir.file("journal.jsonl");
  {
    JournalWriter writer(path);
    writer.append(sample_entry(1));
  }
  {
    std::ofstream out(path, std::ios::app | std::ios::binary);
    out << "{\"key\":\"00";  // kill -9 mid-append
  }
  {
    // The resumed writer must not fuse its first append onto the fragment.
    JournalWriter writer(path);
    writer.append(sample_entry(2));
  }
  const JournalReplay replay = read_journal(path);
  EXPECT_EQ(replay.dropped_lines, 1u);
  ASSERT_EQ(replay.entries.size(), 2u);
  EXPECT_EQ(replay.entries[0].key, 1u);
  EXPECT_EQ(replay.entries[1].key, 2u);
}

}  // namespace
}  // namespace g10::ensemble
