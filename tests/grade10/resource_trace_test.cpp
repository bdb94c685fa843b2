#include "grade10/trace/resource_trace.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"
#include "grade10/model/execution_model.hpp"
#include "grade10/trace/execution_trace.hpp"
#include "test_util.hpp"

namespace g10::core {
namespace {

using testing::add_phase;
using testing::make_sample;

ResourceModel simple_resources() {
  ResourceModel m;
  m.add_consumable("cpu", 4.0);
  m.add_consumable("network", 100.0);
  m.add_blocking("GC");
  return m;
}

TEST(ResourceTraceTest, GroupsByResourceAndMachine) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 100, 1.0),
      make_sample("cpu", 0, 200, 2.0),
      make_sample("cpu", 1, 100, 3.0),
      make_sample("network", 0, 100, 50.0)};
  const auto trace = ResourceTrace::build(m, samples);
  EXPECT_EQ(trace.series().size(), 3u);
  const ResourceSeries* cpu0 = trace.find(m.find("cpu"), 0);
  ASSERT_NE(cpu0, nullptr);
  ASSERT_EQ(cpu0->measurements.size(), 2u);
  EXPECT_EQ(cpu0->measurements[0].begin, 0);
  EXPECT_EQ(cpu0->measurements[0].end, 100);
  EXPECT_DOUBLE_EQ(cpu0->measurements[0].value, 1.0);
  EXPECT_EQ(cpu0->measurements[1].begin, 100);
  EXPECT_EQ(cpu0->measurements[1].end, 200);
}

TEST(ResourceTraceTest, StrictBuildRejectsOutOfOrderSamples) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 200, 2.0), make_sample("cpu", 0, 100, 1.0)};
  try {
    ResourceTrace::build(m, samples);
    FAIL() << "out-of-order samples were accepted";
  } catch (const CheckError& e) {
    EXPECT_STREQ(e.what(),
                 "cpu@0: series repeats or decreases its sample time at "
                 "100ns");
  }
}

TEST(ResourceTraceTest, LenientBuildSortsOutOfOrderSamples) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 200, 2.0), make_sample("cpu", 0, 100, 1.0)};
  std::vector<TraceDefect> defects;
  const auto trace =
      ResourceTrace::build_checked(m, samples, {}, nullptr, defects);
  ASSERT_EQ(defects.size(), 1u);
  EXPECT_EQ(defects[0].rule_id, "trace-sample-nonmonotonic");
  EXPECT_EQ(defects[0].response, TraceDefect::Response::kRepair);
  EXPECT_EQ(defects[0].repair,
            "sorted monitoring series cpu@0; dropped 0 sample(s) that did "
            "not advance");
  const ResourceSeries* cpu = trace.find(m.find("cpu"), 0);
  ASSERT_NE(cpu, nullptr);
  ASSERT_EQ(cpu->measurements.size(), 2u);
  EXPECT_EQ(cpu->measurements[0].begin, 0);
  EXPECT_EQ(cpu->measurements[0].end, 100);
  EXPECT_DOUBLE_EQ(cpu->measurements[0].value, 1.0);
  EXPECT_EQ(cpu->measurements[1].begin, 100);
  EXPECT_EQ(cpu->measurements[1].end, 200);
  EXPECT_DOUBLE_EQ(cpu->measurements[1].value, 2.0);
}

TEST(ResourceTraceTest, RejectsDuplicateTimes) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 100, 1.0), make_sample("cpu", 0, 100, 2.0)};
  EXPECT_THROW(ResourceTrace::build(m, samples), CheckError);
}

TEST(ResourceTraceTest, RejectsASampleAtOrBeforeZero) {
  // A sample is the average rate since the previous one; the first window
  // starts at 0, so a sample at 0 has no window.
  const ResourceModel m = simple_resources();
  for (const TimeNs first : {TimeNs{0}, TimeNs{-5}}) {
    std::vector<trace::MonitoringSampleRecord> samples{
        make_sample("cpu", 0, first, 1.0), make_sample("cpu", 0, 100, 1.0)};
    EXPECT_THROW(ResourceTrace::build(m, samples), CheckError) << first;
  }
}

TEST(ResourceTraceTest, LenientRepairKeepsTheFirstOfEqualTimesInRecordOrder) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 0, 0, 3.0), make_sample("cpu", 0, 200, 2.0),
      make_sample("cpu", 0, 100, 1.0), make_sample("cpu", 0, 200, 3.0)};
  std::vector<TraceDefect> defects;
  const auto trace =
      ResourceTrace::build_checked(m, samples, {}, nullptr, defects);
  ASSERT_EQ(defects.size(), 1u);
  EXPECT_EQ(defects[0].message,
            "series repeats or decreases its sample time at 0ns");
  EXPECT_EQ(defects[0].repair,
            "sorted monitoring series cpu@0; dropped 2 sample(s) that did "
            "not advance");
  const ResourceSeries* cpu = trace.find(m.find("cpu"), 0);
  ASSERT_NE(cpu, nullptr);
  ASSERT_EQ(cpu->measurements.size(), 2u);
  EXPECT_EQ(cpu->measurements[1].begin, 100);
  EXPECT_EQ(cpu->measurements[1].end, 200);
  EXPECT_DOUBLE_EQ(cpu->measurements[1].value, 2.0);
}

TEST(ResourceTraceTest, NegativeRatesAreRejectedOrClampedToZero) {
  const ResourceModel m = simple_resources();
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", 1, 100, -2.5), make_sample("cpu", 1, 200, 1.0),
      make_sample("cpu", 1, 300, -1.0)};
  EXPECT_THROW(ResourceTrace::build(m, samples), CheckError);
  std::vector<TraceDefect> defects;
  const auto trace =
      ResourceTrace::build_checked(m, samples, {}, nullptr, defects);
  ASSERT_EQ(defects.size(), 1u);
  EXPECT_EQ(defects[0].rule_id, "trace-sample-negative");
  EXPECT_EQ(defects[0].message, "sample reports a negative rate -2.500");
  EXPECT_EQ(defects[0].repair,
            "clamped 2 negative monitoring sample(s) to 0: cpu@1");
  const ResourceSeries* cpu = trace.find(m.find("cpu"), 1);
  ASSERT_NE(cpu, nullptr);
  ASSERT_EQ(cpu->measurements.size(), 3u);
  EXPECT_DOUBLE_EQ(cpu->measurements[0].value, 0.0);
  EXPECT_DOUBLE_EQ(cpu->measurements[1].value, 1.0);
  EXPECT_DOUBLE_EQ(cpu->measurements[2].value, 0.0);
}

TEST(ResourceTraceTest, TraceBuildDecidesOnSampleDefects) {
  ExecutionModel model;
  model.add_root("Job");
  const ResourceModel m = simple_resources();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 300);
  std::vector<trace::MonitoringSampleRecord> samples{
      make_sample("cpu", -1, 0, 1.0), make_sample("cpu", -1, 100, -1.0),
      make_sample("cpu", -1, 200, 1.0)};
  ExecutionTrace::Options options;
  const TraceBuild strict =
      ExecutionTrace::build_checked(model, m, events, {}, samples, options);
  ASSERT_TRUE(strict.error.has_value());
  EXPECT_EQ(*strict.error,
            "damaged trace: cpu@-1: series repeats or decreases its sample "
            "time at 0ns (lenient ingestion repairs this)");
  EXPECT_TRUE(strict.monitored.series().empty());

  options.lenient = true;
  const TraceBuild lenient =
      ExecutionTrace::build_checked(model, m, events, {}, samples, options);
  ASSERT_FALSE(lenient.error.has_value()) << *lenient.error;
  EXPECT_EQ(lenient.trace.warnings(),
            (std::vector<std::string>{
                "sorted monitoring series cpu@-1; dropped 1 sample(s) that "
                "did not advance",
                "clamped 1 negative monitoring sample(s) to 0: cpu@-1"}));
  const ResourceSeries* cpu = lenient.monitored.find(m.find("cpu"), -1);
  ASSERT_NE(cpu, nullptr);
  ASSERT_EQ(cpu->measurements.size(), 2u);
  EXPECT_EQ(cpu->measurements[0].begin, 0);
  EXPECT_EQ(cpu->measurements[0].end, 100);
  EXPECT_DOUBLE_EQ(cpu->measurements[0].value, 0.0);

  // Samples of a resource the model lacks are rejected in every mode,
  // unless unknown resources are ignored: then they are dropped.
  samples.push_back(make_sample("mystery", -1, 100, 1.0));
  EXPECT_EQ(
      ExecutionTrace::build_checked(model, m, events, {}, samples, options)
          .error,
      "monitored resource 'mystery' is not in the model");
  options.ignore_unknown_blocking = true;
  const TraceBuild ignoring =
      ExecutionTrace::build_checked(model, m, events, {}, samples, options);
  EXPECT_FALSE(ignoring.error.has_value());
  EXPECT_EQ(ignoring.monitored.series().size(), 1u);
}

TEST(ResourceTraceTest, RejectsUnknownOrBlockingResources) {
  const ResourceModel m = simple_resources();
  EXPECT_THROW(ResourceTrace::build(
                   m, std::vector<trace::MonitoringSampleRecord>{
                          make_sample("mystery", 0, 100, 1.0)}),
               CheckError);
  EXPECT_THROW(ResourceTrace::build(
                   m, std::vector<trace::MonitoringSampleRecord>{
                          make_sample("GC", 0, 100, 1.0)}),
               CheckError);
  ResourceTrace::Options options;
  options.ignore_unknown_resources = true;
  const auto trace = ResourceTrace::build(
      m,
      std::vector<trace::MonitoringSampleRecord>{
          make_sample("mystery", 0, 100, 1.0)},
      options);
  EXPECT_TRUE(trace.series().empty());
}

TEST(ResourceTraceTest, FindMissingReturnsNull) {
  const ResourceModel m = simple_resources();
  const auto trace =
      ResourceTrace::build(m, std::vector<trace::MonitoringSampleRecord>{});
  EXPECT_EQ(trace.find(0, 0), nullptr);
}

}  // namespace
}  // namespace g10::core
