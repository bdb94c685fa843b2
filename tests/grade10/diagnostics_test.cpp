#include "grade10/report/diagnostics.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hpp"
#include "grade10/report/timeline_export.hpp"
#include "test_util.hpp"

namespace g10::core {
namespace {

using testing::add_phase;
using testing::make_sample;

AttributedResource make_resource(std::vector<double> usage, double capacity,
                                 trace::MachineId machine) {
  AttributedResource r;
  r.resource = 0;
  r.machine = machine;
  r.capacity = capacity;
  r.upsampled.usage = std::move(usage);
  r.unattributed.assign(r.upsampled.usage.size(), 0.0);
  r.slice_offsets.assign(r.upsampled.usage.size() + 1, 0);
  return r;
}

TEST(DiagnosticsTest, SmoothUsageHasBurstinessOne) {
  AttributedUsage usage;
  usage.resources.push_back(
      make_resource(std::vector<double>(20, 2.0), 4.0, 0));
  const auto diagnostics = compute_resource_diagnostics(usage);
  ASSERT_EQ(diagnostics.size(), 1u);
  EXPECT_NEAR(diagnostics[0].mean_utilization, 0.5, 1e-9);
  EXPECT_NEAR(diagnostics[0].burstiness, 1.0, 1e-9);
  EXPECT_NEAR(diagnostics[0].idle_fraction, 0.0, 1e-9);
}

TEST(DiagnosticsTest, SpikeUsageIsBursty) {
  std::vector<double> usage(20, 0.0);
  usage[3] = 4.0;
  usage[7] = 4.0;  // all mass in 2 of 20 slices = the busiest decile
  AttributedUsage attributed;
  attributed.resources.push_back(make_resource(usage, 4.0, 0));
  const auto diagnostics = compute_resource_diagnostics(attributed);
  EXPECT_NEAR(diagnostics[0].burstiness, 10.0, 1e-9);
  EXPECT_NEAR(diagnostics[0].idle_fraction, 18.0 / 20.0, 1e-9);
}

TEST(DiagnosticsTest, MachineSkewDetectsImbalance) {
  AttributedUsage usage;
  usage.resources.push_back(
      make_resource(std::vector<double>(10, 4.0), 4.0, 0));
  usage.resources.push_back(
      make_resource(std::vector<double>(10, 1.0), 4.0, 1));
  const auto skew = compute_machine_skew(usage);
  ASSERT_EQ(skew.size(), 1u);
  // Totals 40 and 10 -> mean 25, max/mean = 1.6.
  EXPECT_NEAR(skew[0].max_over_mean, 1.6, 1e-9);
  EXPECT_GT(skew[0].cov, 0.5);
}

TEST(DiagnosticsTest, SkewNeedsTwoMachines) {
  AttributedUsage usage;
  usage.resources.push_back(
      make_resource(std::vector<double>(10, 4.0), 4.0, 0));
  EXPECT_TRUE(compute_machine_skew(usage).empty());
}

TEST(DiagnosticsTest, RendersTables) {
  ResourceModel resources;
  resources.add_consumable("cpu", 4.0);
  AttributedUsage usage;
  usage.resources.push_back(
      make_resource(std::vector<double>(10, 2.0), 4.0, 0));
  usage.resources.push_back(
      make_resource(std::vector<double>(10, 3.0), 4.0, 1));
  std::ostringstream os;
  render_diagnostics(os, resources, compute_resource_diagnostics(usage),
                     compute_machine_skew(usage));
  EXPECT_NE(os.str().find("burstiness"), std::string::npos);
  EXPECT_NE(os.str().find("Cross-machine skew"), std::string::npos);
}

TEST(ChromeTraceTest, EmitsValidStructuredEvents) {
  ExecutionModel model;
  const PhaseTypeId job = model.add_root("Job");
  const PhaseTypeId work = model.add_child(job, "Work");
  (void)work;
  ResourceModel resources;
  resources.add_blocking("GC");
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100 * kMillisecond);
  add_phase(events, "Job.0/Work.0", 0, 60 * kMillisecond, 0);
  add_phase(events, "Job.0/Work.1", 0, 90 * kMillisecond, 0);
  std::vector<trace::BlockingEventRecord> blocks{
      testing::make_block("GC", "Job.0/Work.0", 10 * kMillisecond,
                          20 * kMillisecond, 0)};
  const auto trace = ExecutionTrace::build(model, resources, events, blocks);
  std::ostringstream os;
  write_chrome_trace(os, model, trace);
  const std::string out = os.str();
  // Structural sanity: JSON-ish wrapper, both event categories, lane split.
  EXPECT_NE(out.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\": \"phase\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\": \"blocked\""), std::string::npos);
  EXPECT_NE(out.find("\"cat\": \"structure\""), std::string::npos);
  // Two overlapping leaves on machine 0 must land on different lanes.
  EXPECT_NE(out.find("\"tid\": 0"), std::string::npos);
  EXPECT_NE(out.find("\"tid\": 1"), std::string::npos);
  // Balanced braces (cheap well-formedness check).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
            std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['),
            std::count(out.begin(), out.end(), ']'));
}

TEST(ChromeTraceTest, LongTraceKeepsExactMicrosecondsAndEscapesNames) {
  // Past 1 s the default stream precision (6 significant digits) would
  // round timestamps to 10 us, and a quote in a phase name would end the
  // JSON string early.
  ExecutionModel model;
  const PhaseTypeId job = model.add_root("Job");
  model.add_child(job, "Wo\"rk");
  ResourceModel resources;
  resources.add_blocking("GC");
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 3'000'000'007);
  add_phase(events, "Job.0/Wo\"rk.0", 1'234'567'891, 2'635'600'123, 0);
  std::vector<trace::BlockingEventRecord> blocks{testing::make_block(
      "GC", "Job.0/Wo\"rk.0", 1'500'000'001, 1'700'000'003, 0)};
  const auto trace = ExecutionTrace::build(model, resources, events, blocks);
  std::ostringstream os;
  write_chrome_trace(os, model, trace);

  std::string error;
  const std::optional<JsonValue> doc = JsonValue::parse(os.str(), &error);
  ASSERT_TRUE(doc.has_value()) << error << "\n" << os.str();
  const JsonValue* events_json = doc->find("traceEvents");
  ASSERT_NE(events_json, nullptr);
  struct Expected {
    std::string name;
    std::string category;
    double ts;
    double dur;
  };
  const std::vector<Expected> expected{
      {"Wo\"rk", "phase", 1234567.891, 1401032.232},
      {"Wo\"rk (blocked)", "blocked", 1500000.001, 200000.002},
      {"Job", "structure", 0.0, 3000000.007}};
  ASSERT_EQ(events_json->items().size(), expected.size()) << os.str();
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const JsonValue& event = events_json->items()[i];
    EXPECT_EQ(event.get_string("name"), expected[i].name) << i;
    EXPECT_EQ(event.get_string("cat"), expected[i].category) << i;
    EXPECT_EQ(event.get_double("ts"), expected[i].ts) << i;
    EXPECT_EQ(event.get_double("dur"), expected[i].dur) << i;
  }
}

}  // namespace
}  // namespace g10::core
