#include "grade10/bottleneck/bottleneck.hpp"

#include <gtest/gtest.h>

#include "test_util.hpp"

namespace g10::core {
namespace {

using testing::add_phase;
using testing::make_block;
using testing::make_sample;

struct Fixture {
  ExecutionModel execution;
  ResourceModel resources;
  AttributionRuleSet rules;
  PhaseTypeId a = kNoPhaseType;
  ResourceId cpu = kNoResource;
  ResourceId gc = kNoResource;

  Fixture() {
    const PhaseTypeId job = execution.add_root("Job");
    a = execution.add_child(job, "A");
    cpu = resources.add_consumable("cpu", 4.0);
    gc = resources.add_blocking("GC");
  }

  struct Built {
    ExecutionTrace trace;
    AttributedUsage usage;
    BottleneckReport report;
  };

  Built build(const std::vector<trace::PhaseEventRecord>& events,
              const std::vector<trace::BlockingEventRecord>& blocks,
              const std::vector<trace::MonitoringSampleRecord>& samples,
              const AnalysisConfig& config) {
    const TimesliceGrid grid(config.timeslice);
    Built out{ExecutionTrace::build(execution, resources, events, blocks),
              {},
              {}};
    const auto demand = estimate_demand(resources, rules, out.trace, grid);
    const auto monitored = ResourceTrace::build(resources, samples);
    out.usage = attribute_usage(demand, monitored, grid);
    out.report = detect_bottlenecks(out.usage, out.trace, grid, config);
    return out;
  }
};

TEST(BottleneckTest, BlockedTimeAccounting) {
  Fixture f;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/A.0", 0, 100, 0);
  std::vector<trace::BlockingEventRecord> blocks{
      make_block("GC", "Job.0/A.0", 10, 30, 0),
      make_block("GC", "Job.0/A.0", 50, 60, 0)};
  AnalysisConfig config;
  config.timeslice = 10;
  const auto built = f.build(events, blocks, {}, config);
  const InstanceId a = built.trace.find("Job.0/A.0");
  EXPECT_EQ(built.report.blocked.at({a, f.gc}), 30);
}

TEST(BottleneckTest, SaturationRequiresThreshold) {
  Fixture f;
  f.rules.set(f.a, f.cpu, AttributionRule::variable(1.0));
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 30);
  add_phase(events, "Job.0/A.0", 0, 30, 0);
  AnalysisConfig config;
  config.timeslice = 10;
  // Slice utilizations: 100%, 50%, 100%.
  const auto built = f.build(events, {},
                             {make_sample("cpu", 0, 10, 4.0),
                              make_sample("cpu", 0, 20, 2.0),
                              make_sample("cpu", 0, 30, 4.0)},
                             config);
  const ResourceSaturation* sat = built.report.find_saturation(f.cpu, 0);
  ASSERT_NE(sat, nullptr);
  EXPECT_TRUE(sat->saturated[0]);
  EXPECT_FALSE(sat->saturated[1]);
  EXPECT_TRUE(sat->saturated[2]);
  EXPECT_EQ(sat->total_saturated, 20);
  const InstanceId a = built.trace.find("Job.0/A.0");
  EXPECT_EQ(built.report.saturated.at({a, f.cpu}), 20);
}

TEST(BottleneckTest, SelfLimitDetectedWithoutSaturation) {
  Fixture f;
  // A is pinned to one core of four.
  f.rules.set(f.a, f.cpu, AttributionRule::exact(1.0));
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 20);
  add_phase(events, "Job.0/A.0", 0, 20, 0);
  AnalysisConfig config;
  config.timeslice = 10;
  // Usage exactly at A's cap (1 core) but far below capacity (4).
  const auto built = f.build(
      events, {},
      {make_sample("cpu", 0, 10, 1.0), make_sample("cpu", 0, 20, 1.0)},
      config);
  const InstanceId a = built.trace.find("Job.0/A.0");
  EXPECT_EQ(built.report.self_limited.at({a, f.cpu}), 20);
  EXPECT_TRUE(built.report.saturated.find({a, f.cpu}) ==
              built.report.saturated.end());
}

TEST(BottleneckTest, NoSelfLimitWhenUsageBelowCap) {
  Fixture f;
  f.rules.set(f.a, f.cpu, AttributionRule::exact(2.0));
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 10);
  add_phase(events, "Job.0/A.0", 0, 10, 0);
  AnalysisConfig config;
  config.timeslice = 10;
  const auto built =
      f.build(events, {}, {make_sample("cpu", 0, 10, 1.0)}, config);
  const InstanceId a = built.trace.find("Job.0/A.0");
  EXPECT_TRUE(built.report.self_limited.find({a, f.cpu}) ==
              built.report.self_limited.end());
}

TEST(BottleneckTest, TotalsByResourceAggregates) {
  std::map<std::pair<InstanceId, ResourceId>, DurationNs> m;
  m[{1, 0}] = 10;
  m[{2, 0}] = 20;
  m[{1, 1}] = 5;
  const auto totals = BottleneckReport::totals_by_resource(m);
  EXPECT_EQ(totals.at(0), 30);
  EXPECT_EQ(totals.at(1), 5);
}

}  // namespace
}  // namespace g10::core
