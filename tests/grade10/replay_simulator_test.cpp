#include "grade10/issues/replay_simulator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "grade10/issues/issue_detector.hpp"
#include "grade10/model/model_io.hpp"
#include "grade10/pipeline.hpp"
#include "test_util.hpp"
#include "trace/trace_reader.hpp"

namespace g10::core {
namespace {

using testing::add_phase;

TEST(ReplaySimulatorTest, SequentialChainSumsDurations) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  const PhaseTypeId b = m.add_child(job, "B");
  m.add_order(a, b);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/A.0", 0, 30);
  add_phase(events, "Job.0/B.0", 40, 100);  // recorded gap of 10
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  // No delays between phases: 30 + 60 = 90 (the gap disappears).
  EXPECT_EQ(sim.simulate(sim.recorded_durations()).makespan, 90);
}

TEST(ReplaySimulatorTest, ConcurrentSiblingsTakeMax) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  m.add_child(job, "A");
  m.add_child(job, "B");
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 70);
  add_phase(events, "Job.0/A.0", 0, 30);
  add_phase(events, "Job.0/B.0", 0, 70);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  EXPECT_EQ(sim.simulate(sim.recorded_durations()).makespan, 70);
}

TEST(ReplaySimulatorTest, ParentTailPreserved) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  m.add_child(job, "A");
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);     // 20 of own work after A ends
  add_phase(events, "Job.0/A.0", 0, 80);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  EXPECT_EQ(sim.simulate(sim.recorded_durations()).makespan, 100);
}

TEST(ReplaySimulatorTest, RepeatedTypeRunsSequentially) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  m.add_child(job, "Step", /*repeated=*/true);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Step.0", 0, 30);
  add_phase(events, "Job.0/Step.1", 30, 70);
  add_phase(events, "Job.0/Step.2", 70, 100);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  EXPECT_EQ(sim.simulate(sim.recorded_durations()).makespan, 100);

  // Shrinking step 1 shrinks the chain.
  auto durations = sim.recorded_durations();
  durations[static_cast<std::size_t>(trace.find("Job.0/Step.1"))] = 10;
  EXPECT_EQ(sim.simulate(durations).makespan, 70);
}

TEST(ReplaySimulatorTest, IndexMatchedPrecedence) {
  // Prepare.w precedes Compute.w per worker, not across workers.
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId prep = m.add_child(job, "Prepare");
  const PhaseTypeId compute = m.add_child(job, "Compute");
  m.add_order(prep, compute);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 150);
  add_phase(events, "Job.0/Prepare.0", 0, 10, 0);
  add_phase(events, "Job.0/Prepare.1", 0, 50, 1);
  add_phase(events, "Job.0/Compute.0", 10, 110, 0);
  add_phase(events, "Job.0/Compute.1", 50, 150, 1);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  const auto schedule = sim.simulate(sim.recorded_durations());
  // Compute.0 starts right after Prepare.0 (10), not after Prepare.1 (50).
  EXPECT_EQ(schedule.start[static_cast<std::size_t>(
                trace.find("Job.0/Compute.0"))],
            10);
  EXPECT_EQ(schedule.start[static_cast<std::size_t>(
                trace.find("Job.0/Compute.1"))],
            50);
  EXPECT_EQ(schedule.makespan, 150);
}

TEST(ReplaySimulatorTest, WaitTypeHasZeroDuration) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId work = m.add_child(job, "Work");
  const PhaseTypeId barrier = m.add_child(job, "Barrier");
  m.add_order(work, barrier);
  m.set_wait(barrier);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/Work.0", 0, 40);
  add_phase(events, "Job.0/Barrier.0", 40, 100);  // 60 of recorded waiting
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  // The wait is slack: replay collapses it.
  EXPECT_EQ(sim.simulate(sim.recorded_durations()).makespan, 40);
}

TEST(ReplaySimulatorTest, ConcurrencyLimitQueuesInstances) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId task = m.add_child(job, "Task");
  m.set_concurrency_limit(task, 2);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  for (int i = 0; i < 4; ++i) {
    add_phase(events, "Job.0/Task." + std::to_string(i), 0, 100);
  }
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  std::vector<DurationNs> durations(trace.instances().size(), 0);
  for (const InstanceId leaf : trace.leaves()) {
    durations[static_cast<std::size_t>(leaf)] = 10;
  }
  // Four 10-unit tasks on two slots: 20.
  EXPECT_EQ(sim.simulate(durations).makespan, 20);
}

TEST(ReplaySimulatorTest, FallbackDependsOnAllPredecessorInstances) {
  // A has indices {0,1}; B has index 7 with no matching A.7: B waits for
  // every A.
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  const PhaseTypeId b = m.add_child(job, "B");
  m.add_order(a, b);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 100);
  add_phase(events, "Job.0/A.0", 0, 30);
  add_phase(events, "Job.0/A.1", 0, 50);
  add_phase(events, "Job.0/B.7", 50, 80);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  const auto schedule = sim.simulate(sim.recorded_durations());
  EXPECT_EQ(
      schedule.start[static_cast<std::size_t>(trace.find("Job.0/B.7"))], 50);
}

TEST(ReplaySimulatorTest, CriticalPathFollowsChain) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId a = m.add_child(job, "A");
  const PhaseTypeId b = m.add_child(job, "B");
  m.add_order(a, b);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 90);
  add_phase(events, "Job.0/A.0", 0, 30);
  add_phase(events, "Job.0/B.0", 30, 90);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  const auto schedule = sim.simulate(sim.recorded_durations());
  const auto path = sim.critical_leaves(schedule);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(trace.instance(path[0]).path, "Job.0/A.0");
  EXPECT_EQ(trace.instance(path[1]).path, "Job.0/B.0");
}

TEST(ReplaySimulatorTest, CriticalPathPicksLongestParallelBranch) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  m.add_child(job, "A");
  m.add_child(job, "B");
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 70);
  add_phase(events, "Job.0/A.0", 0, 30);
  add_phase(events, "Job.0/B.0", 0, 70);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  const auto schedule = sim.simulate(sim.recorded_durations());
  const auto path = sim.critical_leaves(schedule);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(trace.instance(path[0]).path, "Job.0/B.0");
}

TEST(ReplaySimulatorTest, CriticalPathThroughRepeatedSteps) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId step = m.add_child(job, "Step", true);
  m.add_child(step, "Work");
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 60);
  add_phase(events, "Job.0/Step.0", 0, 20);
  add_phase(events, "Job.0/Step.0/Work.0", 0, 10, 0);
  add_phase(events, "Job.0/Step.0/Work.1", 0, 20, 1);
  add_phase(events, "Job.0/Step.1", 20, 60);
  add_phase(events, "Job.0/Step.1/Work.0", 20, 60, 0);
  add_phase(events, "Job.0/Step.1/Work.1", 20, 30, 1);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  const auto schedule = sim.simulate(sim.recorded_durations());
  const auto path = sim.critical_leaves(schedule);
  // Longest worker of each step: Work.1 of Step.0, then Work.0 of Step.1.
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(trace.instance(path[0]).path, "Job.0/Step.0/Work.1");
  EXPECT_EQ(trace.instance(path[1]).path, "Job.0/Step.1/Work.0");
  // Path lengths sum to the makespan (no tails in this model).
  DurationNs total = 0;
  for (const InstanceId leaf : path) {
    total += schedule.end[static_cast<std::size_t>(leaf)] -
             schedule.start[static_cast<std::size_t>(leaf)];
  }
  EXPECT_EQ(total, schedule.makespan);
}

TEST(ReplaySimulatorTest, NestedHierarchy) {
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId phase = m.add_child(job, "Phase", true);
  m.add_child(phase, "Worker");
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  add_phase(events, "Job.0", 0, 110);
  add_phase(events, "Job.0/Phase.0", 0, 50);
  add_phase(events, "Job.0/Phase.0/Worker.0", 0, 30, 0);
  add_phase(events, "Job.0/Phase.0/Worker.1", 0, 50, 1);
  add_phase(events, "Job.0/Phase.1", 50, 110);
  add_phase(events, "Job.0/Phase.1/Worker.0", 50, 110, 0);
  const auto trace = ExecutionTrace::build(m, resources, events, {});
  const ReplaySimulator sim(m, trace);
  // Phase.0 = max(30, 50); Phase.1 = 60; sequential = 110.
  EXPECT_EQ(sim.simulate(sim.recorded_durations()).makespan, 110);

  // Balance Phase.0's workers to 40 each: makespan 100.
  auto durations = sim.recorded_durations();
  durations[static_cast<std::size_t>(
      trace.find("Job.0/Phase.0/Worker.0"))] = 40;
  durations[static_cast<std::size_t>(
      trace.find("Job.0/Phase.0/Worker.1"))] = 40;
  EXPECT_EQ(sim.simulate(durations).makespan, 100);
}

// Property: reducing any leaf duration can never increase the replayed
// makespan (the schedule is a monotone function of the durations).
class ReplayMonotonicityTest : public ::testing::TestWithParam<int> {};

TEST_P(ReplayMonotonicityTest, ShrinkingLeavesNeverGrowsMakespan) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 131);
  // Random two-level workload: sequential steps of concurrent workers.
  ExecutionModel m;
  const PhaseTypeId job = m.add_root("Job");
  const PhaseTypeId step = m.add_child(job, "Step", /*repeated=*/true);
  const PhaseTypeId work = m.add_child(step, "Work");
  m.set_concurrency_limit(work, 3);
  ResourceModel resources;
  std::vector<trace::PhaseEventRecord> events;
  const int steps = static_cast<int>(rng.next_int(2, 5));
  TimeNs t = 0;
  std::vector<TimeNs> step_ends;
  for (int s = 0; s < steps; ++s) {
    const int workers = static_cast<int>(rng.next_int(1, 6));
    TimeNs latest = t;
    std::vector<std::pair<std::string, TimeNs>> children;
    for (int w = 0; w < workers; ++w) {
      const TimeNs end = t + rng.next_int(5, 60);
      children.emplace_back("Job.0/Step." + std::to_string(s) + "/Work." +
                                std::to_string(w),
                            end);
      latest = std::max(latest, end);
    }
    add_phase(events, "Job.0/Step." + std::to_string(s), t, latest);
    for (const auto& [path, end] : children) {
      add_phase(events, path, t, end, 0);
    }
    t = latest;
  }
  // Root must be added before children chronologically? Build() is order-
  // agnostic for ends but parents must exist; prepend Job.
  std::vector<trace::PhaseEventRecord> all;
  add_phase(all, "Job.0", 0, t);
  all.insert(all.end(), events.begin(), events.end());
  const auto trace = ExecutionTrace::build(m, resources, all, {});
  const ReplaySimulator sim(m, trace);
  auto durations = sim.recorded_durations();
  TimeNs previous = sim.simulate(durations).makespan;
  for (int round = 0; round < 20; ++round) {
    // Shrink one random leaf.
    const auto& leaves = trace.leaves();
    const InstanceId leaf = leaves[rng.next_below(leaves.size())];
    auto& d = durations[static_cast<std::size_t>(leaf)];
    d = static_cast<DurationNs>(static_cast<double>(d) *
                                rng.next_double(0.3, 1.0));
    const TimeNs makespan = sim.simulate(durations).makespan;
    ASSERT_LE(makespan, previous) << "round " << round;
    previous = makespan;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReplayMonotonicityTest,
                         ::testing::Range(1, 9));

// ---- differential oracle ---------------------------------------------------
//
// The scheduler the replay plan replaced, kept as the reference: on every
// replay it regroups each parent's children by type in a std::map, sorts
// them by index and looks predecessors up by index in per-type maps. The
// plan must reproduce its schedules exactly, bindings included.

TimeNs reference_schedule(const ExecutionModel& model,
                          const ExecutionTrace& trace, InstanceId id,
                          TimeNs start,
                          const std::vector<DurationNs>& durations,
                          ReplaySchedule& out) {
  const PhaseInstance& instance = trace.instance(id);
  out.start[static_cast<std::size_t>(id)] = start;
  if (instance.is_leaf()) {
    const DurationNs duration =
        model.type(instance.type).wait
            ? 0
            : std::max<DurationNs>(0,
                                   durations[static_cast<std::size_t>(id)]);
    const TimeNs end = start + duration;
    out.end[static_cast<std::size_t>(id)] = end;
    return end;
  }
  std::map<PhaseTypeId, std::vector<InstanceId>> by_type;
  TimeNs latest_recorded_child_end = instance.begin;
  for (const InstanceId child : instance.children) {
    by_type[trace.instance(child).type].push_back(child);
    latest_recorded_child_end =
        std::max(latest_recorded_child_end, trace.instance(child).end);
  }
  for (auto& [type, list] : by_type) {
    std::sort(list.begin(), list.end(), [&](InstanceId a, InstanceId b) {
      return trace.instance(a).index < trace.instance(b).index;
    });
  }
  const DurationNs tail =
      std::max<DurationNs>(0, instance.end - latest_recorded_child_end);
  struct ChildEnd {
    TimeNs end = 0;
    InstanceId id = kNoInstance;
  };
  std::map<PhaseTypeId, std::map<std::int64_t, ChildEnd>> ends_by_type;
  TimeNs latest_child_end = start;
  InstanceId latest_child = kNoInstance;
  for (const PhaseTypeId type : model.sibling_order(instance.type)) {
    const auto it = by_type.find(type);
    if (it == by_type.end()) continue;
    const PhaseType& type_info = model.type(type);
    std::vector<TimeNs> slots;
    std::vector<InstanceId> slot_owner;
    if (type_info.concurrency_limit > 0) {
      slots.assign(static_cast<std::size_t>(type_info.concurrency_limit),
                   start);
      slot_owner.assign(slots.size(), kNoInstance);
    }
    TimeNs previous_end = start;
    InstanceId previous_id = kNoInstance;
    for (const InstanceId child : it->second) {
      const PhaseInstance& child_instance = trace.instance(child);
      TimeNs ready = start;
      InstanceId binding = kNoInstance;
      const auto raise = [&](TimeNs candidate, InstanceId source) {
        if (candidate > ready) {
          ready = candidate;
          binding = source;
        }
      };
      for (const PhaseTypeId pred : type_info.predecessors) {
        const auto pit = ends_by_type.find(pred);
        if (pit == ends_by_type.end()) continue;
        const auto& pred_ends = pit->second;
        const auto exact = pred_ends.find(child_instance.index);
        if (exact != pred_ends.end()) {
          raise(exact->second.end, exact->second.id);
        } else {
          for (const auto& [index, pred_end] : pred_ends) {
            raise(pred_end.end, pred_end.id);
          }
        }
      }
      if (type_info.repeated) raise(previous_end, previous_id);
      auto slot = slots.end();
      if (!slots.empty()) {
        slot = std::min_element(slots.begin(), slots.end());
        raise(*slot,
              slot_owner[static_cast<std::size_t>(slot - slots.begin())]);
      }
      out.binding_pred[static_cast<std::size_t>(child)] = binding;
      const TimeNs end =
          reference_schedule(model, trace, child, ready, durations, out);
      if (!slots.empty()) {
        *slot = end;
        slot_owner[static_cast<std::size_t>(slot - slots.begin())] = child;
      }
      ends_by_type[type][child_instance.index] = ChildEnd{end, child};
      previous_end = end;
      previous_id = child;
      if (end > latest_child_end) {
        latest_child_end = end;
        latest_child = child;
      }
    }
  }
  out.binding_child[static_cast<std::size_t>(id)] = latest_child;
  const TimeNs end = latest_child_end + tail;
  out.end[static_cast<std::size_t>(id)] = end;
  return end;
}

ReplaySchedule reference_simulate(const ExecutionModel& model,
                                  const ExecutionTrace& trace,
                                  const std::vector<DurationNs>& durations) {
  const std::size_t n = trace.instances().size();
  ReplaySchedule schedule;
  schedule.start.assign(n, 0);
  schedule.end.assign(n, 0);
  schedule.binding_child.assign(n, kNoInstance);
  schedule.binding_pred.assign(n, kNoInstance);
  if (trace.root() == kNoInstance) return schedule;
  schedule.makespan =
      reference_schedule(model, trace, trace.root(), 0, durations, schedule);
  return schedule;
}

/// Replays `durations` through the plan and the reference and compares
/// every field of the two schedules and their critical paths.
void expect_reference_replay(const ExecutionModel& model,
                             const ExecutionTrace& trace,
                             const ReplaySimulator& sim,
                             const std::vector<DurationNs>& durations,
                             const std::string& context) {
  const ReplaySchedule plan = sim.simulate(durations);
  const ReplaySchedule reference = reference_simulate(model, trace, durations);
  EXPECT_EQ(plan.makespan, reference.makespan) << context;
  EXPECT_EQ(plan.start, reference.start) << context;
  EXPECT_EQ(plan.end, reference.end) << context;
  EXPECT_EQ(plan.binding_child, reference.binding_child) << context;
  EXPECT_EQ(plan.binding_pred, reference.binding_pred) << context;
  EXPECT_EQ(sim.critical_leaves(plan), sim.critical_leaves(reference))
      << context;
}

/// The recorded durations, each leaf scaled by a random factor in [0, 2);
/// every seventh leaf is negative (the replay clamps it to zero).
std::vector<DurationNs> perturbed(const ReplaySimulator& sim,
                                  const ExecutionTrace& trace, Rng& rng) {
  std::vector<DurationNs> durations = sim.recorded_durations();
  for (const InstanceId leaf : trace.leaves()) {
    auto& d = durations[static_cast<std::size_t>(leaf)];
    d = rng.next_below(7) == 0
            ? -d
            : static_cast<DurationNs>(static_cast<double>(d) *
                                      rng.next_double(0.0, 2.0));
  }
  return durations;
}

/// A random model: three levels of child types, each sibling group with
/// ORDER edges consistent with a random permutation (so sibling order is
/// not id order), and random REPEATED, LIMIT and WAIT flags.
ExecutionModel random_model(Rng& rng) {
  ExecutionModel m;
  std::vector<PhaseTypeId> level{m.add_root("Job")};
  int next = 0;
  for (int depth = 0; depth < 3; ++depth) {
    std::vector<PhaseTypeId> below;
    for (const PhaseTypeId parent : level) {
      std::vector<PhaseTypeId> siblings;
      for (int k = static_cast<int>(rng.next_int(1, 3)); k > 0; --k) {
        const PhaseTypeId t = m.add_child(parent, "T" + std::to_string(next++),
                                          rng.next_bool(0.3));
        if (rng.next_bool(0.3)) {
          m.set_concurrency_limit(t, static_cast<int>(rng.next_int(1, 3)));
        }
        if (rng.next_bool(0.2)) m.set_wait(t);
        siblings.push_back(t);
      }
      for (std::size_t i = siblings.size(); i > 1; --i) {
        std::swap(siblings[i - 1], siblings[rng.next_below(i)]);
      }
      for (std::size_t i = 0; i < siblings.size(); ++i) {
        for (std::size_t j = i + 1; j < siblings.size(); ++j) {
          if (rng.next_bool(0.5)) m.add_order(siblings[i], siblings[j]);
        }
      }
      below.insert(below.end(), siblings.begin(), siblings.end());
    }
    level = std::move(below);
  }
  return m;
}

/// Appends one instance of `type` and a random subtree below it, parents
/// before children. Each child type gets 0-4 instances with indices drawn
/// from 0-5, so some children have no same-index predecessor. Returns the
/// instance's end: its last child's end plus a random tail.
TimeNs add_random_instance(const ExecutionModel& m, Rng& rng,
                           PhaseTypeId type, const std::string& path,
                           TimeNs begin,
                           std::vector<trace::PhaseEventRecord>& events) {
  std::vector<trace::PhaseEventRecord> below;
  TimeNs end = begin + rng.next_int(0, 40);
  for (const PhaseTypeId child : m.type(type).children) {
    std::vector<std::int64_t> indices{0, 1, 2, 3, 4, 5};
    for (std::size_t i = indices.size(); i > 1; --i) {
      std::swap(indices[i - 1], indices[rng.next_below(i)]);
    }
    indices.resize(rng.next_below(5));
    for (const std::int64_t index : indices) {
      end = std::max(end, add_random_instance(
                              m, rng, child,
                              path + "/" + m.type(child).name + "." +
                                  std::to_string(index),
                              begin + rng.next_int(0, 10), below));
    }
  }
  if (!m.type(type).children.empty()) end += rng.next_int(0, 10);
  testing::add_phase(events, path, begin, end);
  events.insert(events.end(), below.begin(), below.end());
  return end;
}

TEST(ReplayPlanOracleTest, RandomTreesMatchTheReference) {
  const ResourceModel resources;
  for (int seed = 1; seed <= 200; ++seed) {
    Rng rng(static_cast<std::uint64_t>(seed) * 7919);
    const ExecutionModel m = random_model(rng);
    std::vector<trace::PhaseEventRecord> events;
    add_random_instance(m, rng, m.root(), "Job.0", 0, events);
    const auto trace = ExecutionTrace::build(m, resources, events, {});
    const ReplaySimulator sim(m, trace);
    const std::string context = "seed " + std::to_string(seed);
    expect_reference_replay(m, trace, sim, sim.recorded_durations(), context);
    for (int round = 0; round < 4; ++round) {
      expect_reference_replay(m, trace, sim, perturbed(sim, trace, rng),
                              context + " round " + std::to_string(round));
    }
    // Durations from {0, 5, 10}: ties everywhere, so the first-of-equals
    // choices (earliest-free slot, strict `>`) decide the bindings.
    std::vector<DurationNs> coarse(trace.instances().size(), 0);
    for (const InstanceId leaf : trace.leaves()) {
      coarse[static_cast<std::size_t>(leaf)] =
          5 * static_cast<DurationNs>(rng.next_below(3));
    }
    expect_reference_replay(m, trace, sim, coarse, context + " coarse");
    if (HasFailure()) return;
  }
}

ModelDescription example_model(const std::string& log_name) {
  const std::string stem = log_name.substr(0, log_name.find('_'));
  std::ifstream file(std::string(G10_EXAMPLE_MODEL_DIR) + "/" + stem +
                     ".g10");
  ModelParseResult parsed = parse_model(file);
  EXPECT_TRUE(parsed.ok()) << stem;
  return parsed.model;
}

trace::ParsedLog golden_log(const std::string& name) {
  trace::ParseResult parsed =
      trace::read_trace_file(std::string(G10_GOLDEN_TRACE_DIR) + "/" + name);
  EXPECT_TRUE(parsed.ok()) << name;
  return std::move(parsed.log);
}

TEST(ReplayPlanOracleTest, GoldenTracesMatchTheReference) {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(G10_GOLDEN_TRACE_DIR)) {
    if (entry.path().extension() == ".log") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  ASSERT_GE(names.size(), 8u);
  Rng rng(2020);
  for (const std::string& name : names) {
    const ModelDescription model = example_model(name);
    const trace::ParsedLog log = golden_log(name);
    ExecutionTrace::Options options;
    options.lenient = true;  // the truncated goldens end mid-phase
    const TraceBuild built = ExecutionTrace::build_checked(
        model.execution, model.resources, log.phase_events,
        log.blocking_events, log.samples, options);
    ASSERT_FALSE(built.error.has_value()) << name << ": " << *built.error;
    const ReplaySimulator sim(model.execution, built.trace);
    expect_reference_replay(model.execution, built.trace, sim,
                            sim.recorded_durations(), name);
    for (int round = 0; round < 3; ++round) {
      expect_reference_replay(model.execution, built.trace, sim,
                              perturbed(sim, built.trace, rng),
                              name + " round " + std::to_string(round));
    }
  }
}

// The critical path the pipeline carries (its detector's baseline replay)
// is the one a fresh simulator finds on the recorded durations.
TEST(ReplayPlanOracleTest, PipelineCriticalPathMatchesAFreshSimulator) {
  std::vector<std::string> names;
  for (const auto& entry :
       std::filesystem::directory_iterator(G10_GOLDEN_TRACE_DIR)) {
    if (entry.path().extension() == ".log") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  ASSERT_GE(names.size(), 8u);
  for (const std::string& name : names) {
    const ModelDescription model = example_model(name);
    const trace::ParsedLog log = golden_log(name);
    CharacterizationInput input;
    input.model = &model.execution;
    input.resources = &model.resources;
    input.rules = &model.rules;
    input.phase_events = log.phase_events;
    input.blocking_events = log.blocking_events;
    input.samples = log.samples;
    input.trace_options.lenient = true;  // the truncated goldens
    const CharacterizationResult result = characterize(input);
    const CriticalPath& path = result.critical_path;

    const ReplaySimulator sim(model.execution, result.trace);
    const ReplaySchedule schedule = sim.simulate(sim.recorded_durations());
    EXPECT_EQ(path.leaves, sim.critical_leaves(schedule)) << name;
    EXPECT_FALSE(path.leaves.empty()) << name;
    ASSERT_EQ(path.lengths.size(), path.leaves.size()) << name;
    for (std::size_t i = 0; i < path.leaves.size(); ++i) {
      const auto leaf = static_cast<std::size_t>(path.leaves[i]);
      EXPECT_EQ(path.lengths[i], schedule.end[leaf] - schedule.start[leaf])
          << name << " leaf " << i;
    }
    EXPECT_EQ(path.makespan, schedule.makespan) << name;
    EXPECT_EQ(path.makespan, result.baseline_makespan) << name;
  }
}

// Every duration vector the issue detector replays, on one GAS and one
// Pregel trace: each resource's bottleneck removal and each type's
// balancing.
TEST(ReplayPlanOracleTest, DetectorCandidatesMatchTheReference) {
  for (const std::string name : {"gas_pagerank_d512_s99_batched.log",
                                 "pregel_pagerank_d512_s99_faulted.log"}) {
    const ModelDescription model = example_model(name);
    const trace::ParsedLog log = golden_log(name);
    CharacterizationInput input;
    input.model = &model.execution;
    input.resources = &model.resources;
    input.rules = &model.rules;
    input.phase_events = log.phase_events;
    input.blocking_events = log.blocking_events;
    input.samples = log.samples;
    input.config.min_issue_impact = 0.0;
    const CharacterizationResult result = characterize(input);
    const IssueDetector detector(model.execution, model.resources,
                                 result.trace, result.grid, input.config);
    // The pipeline keeps no tables; the whole-table stages rebuild them.
    const AttributedUsage usage = attribute_usage(
        estimate_demand(model.resources, model.rules, result.trace,
                        result.grid),
        result.monitored, result.grid);
    const ReplaySimulator sim(model.execution, result.trace);
    for (ResourceId r = 0;
         r < static_cast<ResourceId>(model.resources.resource_count()); ++r) {
      expect_reference_replay(
          model.execution, result.trace, sim,
          detector.bottleneck_durations(r, usage, result.bottlenecks),
          name + " bottleneck " + model.resources.resource(r).name);
    }
    for (PhaseTypeId t = 0;
         t < static_cast<PhaseTypeId>(model.execution.type_count()); ++t) {
      expect_reference_replay(model.execution, result.trace, sim,
                              detector.balanced_durations(t),
                              name + " imbalance " +
                                  model.execution.type(t).name);
    }
  }
}

}  // namespace
}  // namespace g10::core
