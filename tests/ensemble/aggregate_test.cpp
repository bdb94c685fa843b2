#include "ensemble/aggregate.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/json.hpp"

namespace g10::ensemble {
namespace {

/// GAS scenarios that inject the sync bug: every ok run is a rediscovery
/// trial.
std::vector<Scenario> make_scenarios(int count) {
  std::vector<Scenario> out;
  for (int i = 0; i < count; ++i) {
    Scenario s;
    s.engine = "gas";
    s.sync_bug = true;
    s.seed = static_cast<std::uint64_t>(i + 1);
    out.push_back(s);
  }
  return out;
}

JournalEntry ok_entry(const Scenario& s, double makespan, bool sync_bug) {
  JournalEntry entry;
  entry.key = s.hash();
  entry.scenario = s.key();
  entry.outcome = RunOutcome::kOk;
  entry.attempts = 1;
  entry.report.makespan_seconds = makespan;
  entry.report.sync_bug_rediscovered = sync_bug;
  return entry;
}

JournalEntry failed_entry(const Scenario& s, RunOutcome outcome) {
  JournalEntry entry;
  entry.key = s.hash();
  entry.scenario = s.key();
  entry.outcome = outcome;
  entry.attempts = 2;
  entry.error = "boom";
  return entry;
}

TEST(AggregateTest, FullCoverageCountsAndHeadline) {
  const auto scenarios = make_scenarios(10);
  JournalReplay replay;
  for (int i = 0; i < 10; ++i) {
    replay.entries.push_back(ok_entry(scenarios[static_cast<std::size_t>(i)],
                                      1.0 + i, i < 8));
  }
  const AggregateReport report = aggregate(scenarios, replay);
  EXPECT_EQ(report.scenario_count, 10u);
  EXPECT_EQ(report.ok, 10u);
  EXPECT_EQ(report.missing, 0u);
  EXPECT_DOUBLE_EQ(report.coverage, 1.0);
  EXPECT_EQ(report.sync_bug.hits, 8u);
  EXPECT_EQ(report.sync_bug.trials, 10u);
  EXPECT_DOUBLE_EQ(report.sync_bug.rate(), 0.8);
  EXPECT_GT(report.sync_bug.ci.low, 0.4);
  EXPECT_LT(report.sync_bug.ci.high, 1.0);
  EXPECT_EQ(report.makespan_seconds.count, 10u);
  EXPECT_DOUBLE_EQ(report.makespan_seconds.min, 1.0);
  EXPECT_DOUBLE_EQ(report.makespan_seconds.max, 10.0);
}

TEST(AggregateTest, RediscoveryCountsOnlyGasRunsThatInjectTheBug) {
  std::vector<Scenario> scenarios = make_scenarios(3);
  scenarios[1].sync_bug = false;  // GAS without the bug
  scenarios[2].engine = "pregel";  // Pregel cannot carry the GAS bug
  JournalReplay replay;
  for (const Scenario& s : scenarios) {
    replay.entries.push_back(ok_entry(s, 1.0, true));
  }
  const AggregateReport report = aggregate(scenarios, replay);
  EXPECT_EQ(report.ok, 3u);
  EXPECT_EQ(report.sync_bug.trials, 1u);
  EXPECT_EQ(report.sync_bug.hits, 1u);

  scenarios.erase(scenarios.begin());
  const AggregateReport none = aggregate(scenarios, replay);
  EXPECT_EQ(none.ok, 2u);
  EXPECT_EQ(none.sync_bug.trials, 0u);
  EXPECT_EQ(none.sync_bug.hits, 0u);
}

TEST(AggregateTest, PartialFleetIsDegradedNotFatal) {
  const auto scenarios = make_scenarios(8);
  JournalReplay replay;
  replay.entries.push_back(ok_entry(scenarios[0], 1.0, true));
  replay.entries.push_back(ok_entry(scenarios[1], 2.0, false));
  replay.entries.push_back(failed_entry(scenarios[2], RunOutcome::kTimeout));
  replay.entries.push_back(
      failed_entry(scenarios[3], RunOutcome::kRunFailed));
  replay.entries.push_back(
      failed_entry(scenarios[4], RunOutcome::kAnalysisFailed));
  // Scenarios 5-7 never ran (killed mid-fleet).
  replay.dropped_lines = 1;

  const AggregateReport report = aggregate(scenarios, replay);
  EXPECT_EQ(report.ok, 2u);
  EXPECT_EQ(report.timeout, 1u);
  EXPECT_EQ(report.run_failed, 1u);
  EXPECT_EQ(report.analysis_failed, 1u);
  EXPECT_EQ(report.missing, 3u);
  EXPECT_DOUBLE_EQ(report.coverage, 0.25);
  EXPECT_EQ(report.dropped_lines, 1u);
  // Rates are over ok runs only: failed runs have no trustworthy report.
  EXPECT_EQ(report.sync_bug.trials, 2u);
  EXPECT_EQ(report.sync_bug.hits, 1u);
  const std::string text = render_text(report);
  EXPECT_NE(text.find("DEGRADED"), std::string::npos);
  EXPECT_NE(text.find("missing=3"), std::string::npos);
}

TEST(AggregateTest, DuplicatesFirstWinAndUnknownsAreIgnored) {
  const auto scenarios = make_scenarios(2);
  JournalReplay replay;
  replay.entries.push_back(ok_entry(scenarios[0], 1.0, true));
  // A resume that re-ran scenario 0 after a torn line: second entry loses.
  replay.entries.push_back(ok_entry(scenarios[0], 99.0, false));
  // A line from some other matrix entirely.
  Scenario alien;
  alien.seed = 777;
  replay.entries.push_back(ok_entry(alien, 5.0, false));

  const AggregateReport report = aggregate(scenarios, replay);
  EXPECT_EQ(report.matched_entries, 1u);
  EXPECT_EQ(report.duplicate_entries, 1u);
  EXPECT_EQ(report.unknown_entries, 1u);
  EXPECT_EQ(report.ok, 1u);
  EXPECT_EQ(report.missing, 1u);
  EXPECT_DOUBLE_EQ(report.makespan_seconds.mean, 1.0);
  EXPECT_EQ(report.sync_bug.hits, 1u);
}

TEST(AggregateTest, IssueAndPhaseDistributions) {
  const auto scenarios = make_scenarios(4);
  JournalReplay replay;
  for (int i = 0; i < 4; ++i) {
    JournalEntry entry = ok_entry(scenarios[static_cast<std::size_t>(i)],
                                  1.0, false);
    if (i < 3) entry.report.issues.push_back({"bottleneck:network", 0.1 * (i + 1)});
    if (i == 0) entry.report.issues.push_back({"imbalance:GatherThread", 0.3});
    entry.report.phase_bottlenecks.push_back(
        {"GatherStep", i < 2 ? "network" : "cpu", 0.5});
    replay.entries.push_back(std::move(entry));
  }
  const AggregateReport report = aggregate(scenarios, replay);
  ASSERT_EQ(report.issues.size(), 2u);
  // Sorted by hits desc.
  EXPECT_EQ(report.issues[0].label, "bottleneck:network");
  EXPECT_EQ(report.issues[0].rate.hits, 3u);
  EXPECT_EQ(report.issues[0].rate.trials, 4u);
  EXPECT_EQ(report.issues[0].impact.count, 3u);
  EXPECT_DOUBLE_EQ(report.issues[0].impact.p50, 0.2);
  EXPECT_EQ(report.issues[1].label, "imbalance:GatherThread");
  EXPECT_EQ(report.issues[1].rate.hits, 1u);

  ASSERT_EQ(report.phase_bottlenecks.size(), 1u);
  EXPECT_EQ(report.phase_bottlenecks[0].phase, "GatherStep");
  ASSERT_EQ(report.phase_bottlenecks[0].resources.size(), 2u);
  // cpu and network tie at 2 runs each; name ascending breaks the tie.
  EXPECT_EQ(report.phase_bottlenecks[0].resources[0].resource, "cpu");
  EXPECT_EQ(report.phase_bottlenecks[0].resources[0].runs, 2u);
  EXPECT_EQ(report.phase_bottlenecks[0].resources[1].resource, "network");
}

TEST(AggregateTest, EmptyEverything) {
  const AggregateReport report = aggregate({}, JournalReplay{});
  EXPECT_EQ(report.scenario_count, 0u);
  EXPECT_DOUBLE_EQ(report.coverage, 0.0);
  EXPECT_EQ(report.sync_bug.trials, 0u);
  EXPECT_DOUBLE_EQ(report.sync_bug.ci.low, 0.0);
  EXPECT_DOUBLE_EQ(report.sync_bug.ci.high, 1.0);
  // Still renders without crashing.
  EXPECT_FALSE(render_text(report).empty());
  EXPECT_FALSE(render_json(report).empty());
}

TEST(AggregateTest, RenderingIsDeterministic) {
  const auto scenarios = make_scenarios(6);
  JournalReplay replay;
  for (int i = 0; i < 5; ++i) {
    JournalEntry entry = ok_entry(scenarios[static_cast<std::size_t>(i)],
                                  0.1 * (i + 1), i % 2 == 0);
    entry.report.issues.push_back({"fault-recovery", 0.05 * (i + 1)});
    entry.wall_ms = 1000.0 * i;  // wall clock must not affect the report
    entry.attempts = i + 1;
    replay.entries.push_back(std::move(entry));
  }
  const AggregateReport a = aggregate(scenarios, replay);
  // Same entries in a different order (journal order varies with pool
  // scheduling) -> byte-identical report.
  std::reverse(replay.entries.begin(), replay.entries.end());
  for (auto& entry : replay.entries) entry.wall_ms += 5.0;
  const AggregateReport b = aggregate(scenarios, replay);
  EXPECT_EQ(render_text(a), render_text(b));
  EXPECT_EQ(render_json(a), render_json(b));
}

TEST(AggregateTest, JsonIsParseable) {
  const auto scenarios = make_scenarios(3);
  JournalReplay replay;
  for (int i = 0; i < 3; ++i) {
    replay.entries.push_back(
        ok_entry(scenarios[static_cast<std::size_t>(i)], 1.5, true));
  }
  const std::string json = render_json(aggregate(scenarios, replay));
  const auto parsed = JsonValue::parse(
      std::string_view(json).substr(0, json.size() - 1));  // trailing \n
  ASSERT_TRUE(parsed.has_value());
  EXPECT_DOUBLE_EQ(parsed->get_double("coverage"), 1.0);
  const JsonValue* sync = parsed->find("sync_bug_rediscovery");
  ASSERT_NE(sync, nullptr);
  EXPECT_EQ(sync->get_uint("hits"), 3u);
}

}  // namespace
}  // namespace g10::ensemble
