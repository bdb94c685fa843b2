#include "grade10/trace/execution_trace.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/check.hpp"
#include "test_util.hpp"

namespace g10::core {
namespace {

using testing::add_phase;
using testing::make_block;

struct Models {
  ExecutionModel execution;
  ResourceModel resources;
};

Models simple_models() {
  Models m;
  const PhaseTypeId job = m.execution.add_root("Job");
  const PhaseTypeId step = m.execution.add_child(job, "Step", true);
  m.execution.add_child(step, "Work");
  m.resources.add_consumable("cpu", 4.0);
  m.resources.add_blocking("GC");
  return m;
}

TEST(ExecutionTraceTest, BuildsInstanceTree) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 50);
  add_phase(events, "Job.0/Step.0/Work.0", 0, 40, 1);
  add_phase(events, "Job.0/Step.1", 50, 100);
  const auto trace =
      ExecutionTrace::build(m.execution, m.resources, events, {});

  EXPECT_EQ(trace.instances().size(), 4u);
  EXPECT_EQ(trace.leaves().size(), 2u);  // Work.0 and Step.1 (childless)
  const InstanceId work = trace.find("Job.0/Step.0/Work.0");
  ASSERT_NE(work, kNoInstance);
  const PhaseInstance& instance = trace.instance(work);
  EXPECT_EQ(instance.begin, 0);
  EXPECT_EQ(instance.end, 40);
  EXPECT_EQ(instance.machine, 1);
  EXPECT_EQ(instance.index, 0);
  EXPECT_EQ(trace.instance(instance.parent).path, "Job.0/Step.0");
  EXPECT_EQ(trace.end_time(), 100);
  ASSERT_EQ(trace.machines().size(), 1u);
  EXPECT_EQ(trace.machines()[0], 1);
}

TEST(ExecutionTraceTest, RejectsUnknownType) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 10);
  add_phase(events, "Job.0/Bogus.0", 0, 5);
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, {}),
               CheckError);
}

TEST(ExecutionTraceTest, RejectsUnbalancedEvents) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0"), 0, -1});
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, {}),
               CheckError);
}

TEST(ExecutionTraceTest, RejectsChildEscapingParent) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 120);  // ends after parent
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, {}),
               CheckError);
}

TEST(ExecutionTraceTest, RejectsHierarchyViolation) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  // Work directly under Job violates the model (Work's parent is Step).
  add_phase(events, "Job.0/Work.0", 0, 10);
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, {}),
               CheckError);
}

TEST(ExecutionTraceTest, MissingParentInstanceRejected) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0/Work.0", 0, 10);  // Step.0 never logged
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, {}),
               CheckError);
}

TEST(ExecutionTraceTest, AttachesAndMergesBlockingEvents) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 100);
  add_phase(events, "Job.0/Step.0/Work.0", 0, 90, 0);
  std::vector<trace::BlockingEventRecord> blocks;
  blocks.push_back(make_block("GC", "Job.0/Step.0/Work.0", 10, 20, 0));
  blocks.push_back(make_block("GC", "Job.0/Step.0/Work.0", 15, 30, 0));
  blocks.push_back(make_block("GC", "Job.0/Step.0/Work.0", 50, 60, 0));
  const auto trace =
      ExecutionTrace::build(m.execution, m.resources, events, blocks);
  const PhaseInstance& work =
      trace.instance(trace.find("Job.0/Step.0/Work.0"));
  ASSERT_EQ(work.blocked.size(), 2u);  // [10,30) merged, [50,60)
  EXPECT_EQ(work.blocked[0].begin, 10);
  EXPECT_EQ(work.blocked[0].end, 30);
  EXPECT_EQ(work.blocked_time(), 30);
  EXPECT_EQ(trace.blocking().size(), 3u);
}

TEST(ExecutionTraceTest, RejectsBlockingOnConsumableResource) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  std::vector<trace::BlockingEventRecord> blocks;
  blocks.push_back(make_block("cpu", "Job.0", 10, 20));
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, blocks),
               CheckError);
}

TEST(ExecutionTraceTest, UnknownBlockingResourceOptionallyIgnored) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  std::vector<trace::BlockingEventRecord> blocks;
  blocks.push_back(make_block("Mystery", "Job.0", 10, 20));
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, blocks),
               CheckError);
  ExecutionTrace::Options options;
  options.ignore_unknown_blocking = true;
  const auto trace = ExecutionTrace::build(m.execution, m.resources, events,
                                           blocks, options);
  EXPECT_TRUE(trace.blocking().empty());
}

TEST(ExecutionTraceLenientTest, SynthesizesEndForTruncatedPhases) {
  // A crashed worker's log just stops: Step.1 and its Work.0 have a BEGIN
  // but no END. Lenient mode closes them at the crash time (the latest
  // recorded time in the subtree) and flags them degraded.
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 50);
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0/Step.1"), 50, -1});
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0/Step.1/Work.0"), 50, 1});
  std::vector<trace::BlockingEventRecord> blocks;
  blocks.push_back(make_block("GC", "Job.0/Step.1/Work.0", 60, 80, 1));

  ExecutionTrace::Options options;
  options.lenient = true;
  const auto trace = ExecutionTrace::build(m.execution, m.resources, events,
                                           blocks, options);
  const PhaseInstance& work = trace.instance(trace.find("Job.0/Step.1/Work.0"));
  const PhaseInstance& step = trace.instance(trace.find("Job.0/Step.1"));
  // The blocking event pins the last sign of life at t=80.
  EXPECT_EQ(work.end, 80);
  EXPECT_TRUE(work.degraded);
  EXPECT_EQ(step.end, 80);
  EXPECT_TRUE(step.degraded);
  EXPECT_EQ(trace.degraded_count(), 2u);
  EXPECT_FALSE(trace.warnings().empty());
  // The blocking event itself still attaches.
  EXPECT_EQ(trace.blocking().size(), 1u);
}

TEST(ExecutionTraceLenientTest, SkipsDuplicateAndOrphanEvents) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 50);
  // Duplicate begin, duplicate end, end-without-begin.
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0/Step.0"), 60, -1});
  events.push_back({trace::PhaseEventRecord::Kind::End,
                    testing::make_path("Job.0/Step.0"), 70, -1});
  events.push_back({trace::PhaseEventRecord::Kind::End,
                    testing::make_path("Job.0/Step.7"), 70, -1});

  ExecutionTrace::Options options;
  options.lenient = true;
  const auto trace =
      ExecutionTrace::build(m.execution, m.resources, events, {}, options);
  EXPECT_EQ(trace.instances().size(), 2u);
  EXPECT_EQ(trace.instance(trace.find("Job.0/Step.0")).end, 50);
  EXPECT_EQ(trace.warnings().size(), 3u);
}

TEST(ExecutionTraceLenientTest, ClampsEscapingChildAndBlocking) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 120);  // ends after parent
  std::vector<trace::BlockingEventRecord> blocks;
  blocks.push_back(make_block("GC", "Job.0/Step.0", 90, 110, -1));

  ExecutionTrace::Options options;
  options.lenient = true;
  const auto trace = ExecutionTrace::build(m.execution, m.resources, events,
                                           blocks, options);
  const PhaseInstance& step = trace.instance(trace.find("Job.0/Step.0"));
  EXPECT_EQ(step.end, 100);  // clamped into Job.0
  EXPECT_TRUE(step.degraded);
  ASSERT_EQ(trace.blocking().size(), 1u);
  EXPECT_EQ(trace.blocking()[0].interval.end, 100);  // clamped too
}

TEST(ExecutionTraceLenientTest, ModelViolationsStayHardErrors) {
  // Lenient mode repairs damaged data, not a mismatched model.
  const Models m = simple_models();
  ExecutionTrace::Options options;
  options.lenient = true;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Work.0", 0, 10);  // Work under Job: wrong parent
  EXPECT_THROW(
      ExecutionTrace::build(m.execution, m.resources, events, {}, options),
      CheckError);
}

TEST(ExecutionTraceLenientTest, StrictModeStillThrowsOnTruncation) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0/Step.0"), 10, -1});
  EXPECT_THROW(ExecutionTrace::build(m.execution, m.resources, events, {}),
               CheckError);
}

// ---------------------------------------------------------------------------
// Instance assembly edge cases: instances pair up by path element, not by
// event order, and resolve to the same tree a path-string map would give.

TEST(ExecutionTraceAssemblyTest, ChildBeginBeforeParentBegin) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0/Step.0"), 10, -1});
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0"), 0, -1});
  events.push_back({trace::PhaseEventRecord::Kind::End,
                    testing::make_path("Job.0/Step.0"), 20, -1});
  events.push_back({trace::PhaseEventRecord::Kind::End,
                    testing::make_path("Job.0"), 100, -1});
  const auto trace =
      ExecutionTrace::build(m.execution, m.resources, events, {});
  // Ids follow BEGIN order; the parent link does not.
  ASSERT_EQ(trace.instances().size(), 2u);
  EXPECT_EQ(trace.find("Job.0/Step.0"), 0);
  EXPECT_EQ(trace.find("Job.0"), 1);
  EXPECT_EQ(trace.instance(0).parent, 1);
  EXPECT_EQ(trace.instance(1).parent, kNoInstance);
  EXPECT_EQ(trace.instance(1).children, std::vector<InstanceId>{0});
}

TEST(ExecutionTraceAssemblyTest, SameTypeAndIndexUnderTwoParents) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 50);
  add_phase(events, "Job.0/Step.0/Work.0", 0, 40, 1);
  add_phase(events, "Job.0/Step.1", 50, 100);
  add_phase(events, "Job.0/Step.1/Work.0", 50, 90, 2);
  const auto trace =
      ExecutionTrace::build(m.execution, m.resources, events, {});
  ASSERT_EQ(trace.instances().size(), 5u);
  const InstanceId a = trace.find("Job.0/Step.0/Work.0");
  const InstanceId b = trace.find("Job.0/Step.1/Work.0");
  ASSERT_NE(a, kNoInstance);
  ASSERT_NE(b, kNoInstance);
  EXPECT_NE(a, b);
  EXPECT_EQ(trace.instance(a).parent, trace.find("Job.0/Step.0"));
  EXPECT_EQ(trace.instance(b).parent, trace.find("Job.0/Step.1"));
  EXPECT_EQ(trace.instance(a).end, 40);
  EXPECT_EQ(trace.instance(b).end, 90);
}

TEST(ExecutionTraceAssemblyTest, TypeNamesContainingDots) {
  Models m;
  const PhaseTypeId job = m.execution.add_root("Job.v2");
  m.execution.add_child(job, "Step.x", true);
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.v2.0", 0, 100);
  add_phase(events, "Job.v2.0/Step.x.3", 10, 20);
  add_phase(events, "Job.v2.0/Step.x.12", 20, 30);
  const auto trace =
      ExecutionTrace::build(m.execution, m.resources, events, {});
  ASSERT_EQ(trace.instances().size(), 3u);
  const PhaseInstance& step = trace.instance(trace.find("Job.v2.0/Step.x.12"));
  EXPECT_EQ(step.path, "Job.v2.0/Step.x.12");
  EXPECT_EQ(step.index, 12);
  EXPECT_EQ(step.type, m.execution.find("Step.x"));
  EXPECT_EQ(step.parent, trace.find("Job.v2.0"));
}

TEST(ExecutionTraceAssemblyTest, UnknownIntermediateTypeLeavesChildOrphaned) {
  // Lenient repair skips Bogus.0 (an untuned model), which leaves Work.0
  // without a parent instance: a model mismatch no repair fixes.
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Bogus.0", 0, 50);
  add_phase(events, "Job.0/Bogus.0/Work.0", 0, 40);
  ExecutionTrace::Options options;
  options.lenient = true;
  try {
    ExecutionTrace::build(m.execution, m.resources, events, {}, options);
    ADD_FAILURE() << "expected a CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(
                  "parent instance missing for Job.0/Bogus.0/Work.0"),
              std::string::npos)
        << e.what();
  }
}

/// Builds `events` strictly (expecting `error`) and leniently (expecting
/// `warning` as the only warning), returning the lenient trace.
ExecutionTrace expect_repaired(const std::vector<trace::PhaseEventRecord>& events,
                               const std::string& error,
                               const std::string& warning) {
  const Models m = simple_models();
  try {
    ExecutionTrace::build(m.execution, m.resources, events, {});
    ADD_FAILURE() << "expected a CheckError";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find(error), std::string::npos)
        << e.what();
  }
  ExecutionTrace::Options options;
  options.lenient = true;
  ExecutionTrace trace =
      ExecutionTrace::build(m.execution, m.resources, events, {}, options);
  EXPECT_EQ(trace.warnings(), std::vector<std::string>{warning});
  return trace;
}

TEST(ExecutionTraceAssemblyTest, DuplicateBegin) {
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  events.push_back({trace::PhaseEventRecord::Kind::Begin,
                    testing::make_path("Job.0"), 5, -1});
  const auto trace = expect_repaired(events, "duplicate phase begin: Job.0",
                                     "skipped duplicate begin: Job.0");
  ASSERT_EQ(trace.instances().size(), 1u);
  EXPECT_EQ(trace.instance(0).begin, 0);
}

TEST(ExecutionTraceAssemblyTest, DuplicateEnd) {
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  events.push_back({trace::PhaseEventRecord::Kind::End,
                    testing::make_path("Job.0"), 120, -1});
  const auto trace = expect_repaired(events, "duplicate phase end: Job.0",
                                     "skipped duplicate end: Job.0");
  EXPECT_EQ(trace.instance(0).end, 100);
}

TEST(ExecutionTraceAssemblyTest, EndWithoutBegin) {
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  events.push_back({trace::PhaseEventRecord::Kind::End,
                    testing::make_path("Job.0/Step.4"), 50, -1});
  const auto trace =
      expect_repaired(events, "phase end without begin: Job.0/Step.4",
                      "skipped end without begin: Job.0/Step.4");
  EXPECT_EQ(trace.instances().size(), 1u);
}

TEST(ExecutionTraceAssemblyTest, UnknownTypeEndIsPartOfTheSkip) {
  // The END of a skipped unknown-type phase is not also an END without a
  // BEGIN: the one repair covers the whole path.
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Bogus.0", 10, 90);
  const auto trace =
      expect_repaired(events, "unknown phase type in log: Bogus",
                      "skipped phase of unknown type: Job.0/Bogus.0");
  EXPECT_EQ(trace.instances().size(), 1u);
}

TEST(ExecutionTraceAssemblyTest, FindRejectsAbsentAndMalformedPaths) {
  const Models m = simple_models();
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 50);
  const auto trace =
      ExecutionTrace::build(m.execution, m.resources, events, {});
  EXPECT_EQ(trace.find("Job.0/Step.0"), 1);
  for (const char* absent :
       {"Job.0/Step.1", "Job.1", "Job.0/Step.0/Work.0", "", "Job", "Job.0/",
        "/Job.0", "Job.0//Step.0", "Job.00", "Step.0", "Job.0/Step.0 "}) {
    EXPECT_EQ(trace.find(absent), kNoInstance) << absent;
  }
}

TEST(ActiveIntervalsTest, SubtractsAndMerges) {
  const auto active = active_intervals(0, 100, {{20, 40}, {30, 50}, {80, 90}});
  ASSERT_EQ(active.size(), 3u);
  EXPECT_EQ(active[0], (Interval{0, 20}));
  EXPECT_EQ(active[1], (Interval{50, 80}));
  EXPECT_EQ(active[2], (Interval{90, 100}));
}

TEST(ActiveIntervalsTest, FullyBlockedIsEmpty) {
  EXPECT_TRUE(active_intervals(10, 20, {{0, 30}}).empty());
}

TEST(ActiveIntervalsTest, NoBlocksIsWholeInterval) {
  const auto active = active_intervals(5, 15, {});
  ASSERT_EQ(active.size(), 1u);
  EXPECT_EQ(active[0], (Interval{5, 15}));
}

}  // namespace
}  // namespace g10::core
